import io
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorparse import kgraph, logform
from tensorparse.features import normalize_phrase, tokenize
from tensorparse.kgraph import Entity, KnowledgeGraph, Relation
from tensorparse.logform import (
    Candidate,
    EntityLit,
    GenConfig,
    Intersect,
    Join,
    LogicalForm,
    ReverseJoin,
    generate_candidates,
    serialize,
)

from test_kgraph import catalogs

# every id a catalog accepts
ids = st.text(st.characters(exclude_characters=logform.ID_FORBIDDEN), min_size=1, max_size=6)

forms = st.recursive(
    st.builds(EntityLit, ids),
    lambda sub: st.one_of(
        st.builds(Join, ids, sub),
        st.builds(ReverseJoin, ids, sub),
        st.builds(Intersect, sub, sub),
    ),
    max_leaves=6,
)


def test_serialize_join():
    lf = Join("currency", EntityLit("brazil"))
    assert serialize(lf) == "join(currency, ent(brazil))"


def decode(text: str) -> LogicalForm:
    """The form that ``serialize`` wrote as ``text``.

    ``serialize`` writes ``", "`` between arguments and no other whitespace,
    and no id holds ``(``, ``)`` or ``,``, so each id ends at the first of
    those after it.
    """
    form, rest = _decode(text)
    assert rest == "", text
    return form


def _decode(text: str):
    """``(form, rest of text)`` for the form that begins ``text``."""
    head, _, rest = text.partition("(")
    if head == "ent":
        entity_id, _, rest = rest.partition(")")
        return EntityLit(entity_id), rest
    if head in ("join", "rev"):
        relation_id, _, rest = rest.partition(", ")
        sub, rest = _decode(rest)
        assert rest[:1] == ")", text
        return (Join if head == "join" else ReverseJoin)(relation_id, sub), rest[1:]
    assert head == "and", text
    left, rest = _decode(rest)
    assert rest[:2] == ", ", text
    right, rest = _decode(rest[2:])
    assert rest[:1] == ")", text
    return Intersect(left, right), rest[1:]


def test_parse_nested():
    text = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    lf = decode(text)
    assert lf == Join("character", Intersect(ReverseJoin("actor", EntityLit("brad_pitt")),
                                             ReverseJoin("film", EntityLit("troy"))))
    assert serialize(lf) == text


@given(forms)
def test_round_trip(lf):
    # serialize is injective over every id a catalog accepts
    assert decode(serialize(lf)) == lf


def test_id_forbidden_holds_every_space():
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert spaces <= logform.ID_FORBIDDEN


def generated_utterance(query, form, kg):
    """The utterance tokens generation gives ``form`` for ``query``."""
    cands = generate_candidates(tokenize(query), kg, GenConfig())
    return {serialize(c.logical_form): c.utterance_tokens for c in cands}[form]


def test_utterance_t1(mini_kg):
    assert generated_utterance(
        "what does ethiopia adjoin", "join(adjoins, ent(ethiopia))", mini_kg
    ) == tuple(tokenize("the adjoins of ethiopia"))


def test_utterance_t2(mini_kg):
    assert generated_utterance(
        "who uses the brazilian real", "rev(currency, ent(brazilian_real))", mini_kg
    ) == tuple(tokenize("the things whose currency is brazilian real"))


def test_utterance_t3(mini_kg):
    assert generated_utterance(
        "who did brad pitt play in troy",
        "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))",
        mini_kg,
    ) == tuple(tokenize(
        "the character of the thing whose actor is Brad Pitt"
        " and whose film is Troy"
    ))


def test_generate_currency_query(mini_kg):
    cands = generate_candidates(
        ["what", "currency", "does", "brazil", "use"], mini_kg, GenConfig()
    )
    by_form = {serialize(c.logical_form): c for c in cands}
    target = by_form["join(currency, ent(brazil))"]
    assert target.utterance_tokens == ("the", "currency", "of", "brazil")
    assert target.denotation == {"brazilian_real"}


def test_generate_from_any_spelling_of_the_question(mini_kg):
    # linking looks up joined tokens, which tokenize has already lowercased
    # and stripped of punctuation
    cands = generate_candidates(tokenize("What currency does BRAZIL use?!"), mini_kg, GenConfig())
    assert cands
    assert cands == generate_candidates(tokenize("what currency does brazil use"), mini_kg,
                                        GenConfig())


def test_generate_no_link(mini_kg):
    assert generate_candidates(["hello", "world"], mini_kg, GenConfig()) == []


def test_generate_cap(mini_kg):
    cands = generate_candidates(
        ["what", "currency", "does", "brazil", "use"],
        mini_kg,
        GenConfig(max_candidates=1),
    )
    assert len(cands) <= 1


def test_generate_deterministic_and_sorted(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    first = generate_candidates(tokens, mini_kg, GenConfig())
    second = generate_candidates(tokens, mini_kg, GenConfig())
    assert first == second
    serialized = [serialize(c.logical_form) for c in first]
    assert serialized == sorted(serialized)
    assert len(serialized) == len(set(serialized))


def test_generate_two_constraint(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    cands = generate_candidates(tokens, mini_kg, GenConfig())
    forms = {serialize(c.logical_form): c for c in cands}
    key = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    assert key in forms
    assert forms[key].denotation == {"achilles"}


def test_generated_forms_are_template_shaped(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        lf = c.logical_form
        assert isinstance(lf.sub, EntityLit) or (
            isinstance(lf, Join) and _two_constraint_parts(lf) is not None
        )
        assert decode(serialize(lf)) == lf


def test_cached_denotation_matches_fresh(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        assert c.denotation == kgraph.denotation(c.logical_form, mini_kg)


def test_forms_that_denote_nothing_are_not_generated(mini_kg):
    forms = {serialize(c.logical_form)
             for c in generate_candidates(tokenize("what currency does ethiopia use"),
                                          mini_kg, GenConfig())}
    # ethiopia adjoins two countries and is adjoined by them; it has no currency
    assert forms == {"join(adjoins, ent(ethiopia))", "rev(adjoins, ent(ethiopia))"}


def test_empty_inner_intersection_pruned(mini_kg):
    # brazil and troy never co-constrain any node, so no T3 form pairs them
    tokens = ["brazil", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        lf = c.logical_form
        if isinstance(lf, Join) and isinstance(lf.sub, Intersect):
            assert kgraph.denotation(lf.sub, mini_kg)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_candidates=0)


def test_empty_query_rejected(mini_kg):
    with pytest.raises(ValueError):
        generate_candidates([], mini_kg, GenConfig())


class UnsupportedShapeError(Exception):
    """Logical form does not match any utterance template."""


def _two_constraint_parts(lf: Join):
    """Return (r, r1, e1, r2, e2) ids if lf has the T3 shape, else None."""
    inner = lf.sub
    if not isinstance(inner, Intersect):
        return None
    left, right = inner.left, inner.right
    if not (isinstance(left, ReverseJoin) and isinstance(right, ReverseJoin)):
        return None
    if not (isinstance(left.sub, EntityLit) and isinstance(right.sub, EntityLit)):
        return None
    return (
        lf.relation_id,
        left.relation_id,
        left.sub.entity_id,
        right.relation_id,
        right.sub.entity_id,
    )


def canonical_utterance(lf: LogicalForm, kg: kgraph.KnowledgeGraph) -> str:
    """Rule-based natural-language rendering of a template-shaped form."""
    if isinstance(lf, Join):
        r = kg.relation(lf.relation_id)
        if isinstance(lf.sub, EntityLit):
            e = kg.entity(lf.sub.entity_id)
            return f"the {r.phrase} of {e.name}"
        parts = _two_constraint_parts(lf)
        if parts is not None:
            _, r1_id, e1_id, r2_id, e2_id = parts
            r1 = kg.relation(r1_id)
            r2 = kg.relation(r2_id)
            e1 = kg.entity(e1_id)
            e2 = kg.entity(e2_id)
            return (
                f"the {r.phrase} of the thing whose {r1.phrase} is {e1.name}"
                f" and whose {r2.phrase} is {e2.name}"
            )
    elif isinstance(lf, ReverseJoin) and isinstance(lf.sub, EntityLit):
        r = kg.relation(lf.relation_id)
        e = kg.entity(lf.sub.entity_id)
        return f"the things whose {r.phrase} is {e.name}"
    raise UnsupportedShapeError(f"no utterance template for {serialize(lf)}")


def brute_force_linked(query_tokens, kg):
    """The entities that any span of the query names, every span length from
    1 to n, ascending by id; read from the catalog, not the alias index."""
    n = len(query_tokens)
    spans = {normalize_phrase(" ".join(query_tokens[i:j]))
             for i in range(n) for j in range(i + 1, n + 1)}
    return [ent for _, ent in sorted(kg.entities.items())
            if not spans.isdisjoint(set(map(normalize_phrase, (ent.name,) + ent.aliases)) - {""})]


def test_linking_reaches_the_longest_alias(mini_kg):
    assert mini_kg.max_alias_tokens == 3  # "the dominican republic"
    kg = KnowledgeGraph({"a": Entity("a", "A", ("a",)),
                         "gd": Entity("gd", "Grand Duchy of Fenwick", ())},
                        {"r": Relation("r", "r")}, [("gd", "r", "a")])
    assert kg.max_alias_tokens == 4
    tokens = tokenize("what does the grand duchy of fenwick use")
    assert [e.id for e in logform._linked_entities(tokens, kg)] == ["gd"]
    assert "join(r, ent(gd))" in {serialize(c.logical_form)
                                  for c in generate_candidates(tokens, kg, GenConfig())}
    assert logform._linked_entities(["fenwick"], kg) == []


WORDS = ["a", "b", "cc", "d"]
alias_texts = st.lists(st.sampled_from(WORDS + ["-", "B"]), min_size=1, max_size=5).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(alias_texts, st.lists(alias_texts, max_size=3)), max_size=5),
       st.lists(st.sampled_from(WORDS), min_size=1, max_size=9))
def test_linked_entities_match_brute_force(named, query):
    entities = {f"e{i}": Entity(f"e{i}", name, tuple(aliases))
                for i, (name, aliases) in enumerate(named)}
    kg = KnowledgeGraph(entities, {"r": Relation("r", "r")}, [])
    assert logform._linked_entities(query, kg) == brute_force_linked(query, kg)


def reference_generate_candidates(query_tokens, kg):
    """``generate_candidates`` as it was before it read the graph's indexes
    and before each template rendered its own utterance, linking through
    every span of the query, with no cap.

    It emits T1 and T2 forms for every relation of the catalog.  For every
    ordered pair of linked entities it tries every (r1, r2) relation pair
    and keeps the pair when ``kgraph.denotation`` of the inner intersection
    is non-empty: L^2 R^2 probes; each kept pair gets a T3 form for every
    relation.  Each form's denotation is ``kgraph.denotation`` of it, empty
    or not, and its utterance is worked out again from its shape by
    ``canonical_utterance``, so a swapped r1/r2 or e1/e2 in the
    generator's text shows here.
    """
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = brute_force_linked(list(query_tokens), kg)
    rel_ids = sorted(kg.relations)
    forms: dict = {}

    def add(lf):
        forms.setdefault(serialize(lf), lf)

    for ent in linked:
        for rid in rel_ids:
            add(Join(rid, EntityLit(ent.id)))
            add(ReverseJoin(rid, EntityLit(ent.id)))
    if len(linked) >= 2:
        for e1 in linked:
            for e2 in linked:
                if e1.id == e2.id:
                    continue
                for r1 in rel_ids:
                    for r2 in rel_ids:
                        inner = Intersect(
                            ReverseJoin(r1, EntityLit(e1.id)),
                            ReverseJoin(r2, EntityLit(e2.id)),
                        )
                        if not kgraph.denotation(inner, kg):
                            continue
                        for r in rel_ids:
                            add(Join(r, inner))

    out = []
    for _, lf in sorted(forms.items()):
        utterance = canonical_utterance(lf, kg)
        out.append(
            Candidate(
                logical_form=lf,
                utterance_tokens=tuple(tokenize(utterance)),
                denotation=kgraph.denotation(lf, kg),
            )
        )
    return out


def filtered_reference(query_tokens, kg, cap):
    """The reference's forms that denote something, cap lifted, then the
    first ``cap`` of them."""
    return [c for c in reference_generate_candidates(query_tokens, kg) if c.denotation][:cap]


def assert_matches_reference(query_tokens, kg, cap):
    """``generate_candidates`` is the filtered reference, and each denotation
    is non-empty and what ``kgraph.denotation`` gives its form."""
    got = generate_candidates(query_tokens, kg, GenConfig(max_candidates=cap))
    assert got == filtered_reference(query_tokens, kg, cap), query_tokens
    for c in got:
        assert c.denotation and c.denotation == kgraph.denotation(c.logical_form, kg)


CAPS = [1, 3, 200, 10**9]

MINI_QUERIES = [
    "who did brad pitt play in troy",
    "troy brad pitt",
    "what currency does brazil use",
    "brazil troy",
    "which countries border ethiopia kenya and sudan",
    "achilles brad pitt troy performance 1",
    "hello world",
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("query", MINI_QUERIES)
def test_generate_matches_reference_on_mini(mini_kg, query, cap):
    assert_matches_reference(tokenize(query), mini_kg, cap)


def test_generate_matches_reference_on_toy(toy_kg, toy_data):
    for cap in CAPS:
        for example in toy_data:
            assert_matches_reference(tokenize(example.question), toy_kg, cap)


@st.composite
def graphs_and_queries(draw):
    """A graph read by ``load_graph`` and a query naming 2-3 of its entities.

    Each entity's id is one of its aliases, so a query can link it whatever
    text its other aliases hold.  Half the graphs gain a subject that points
    into the first two named entities, so that T3 forms exist.
    """
    entities, relations, triples = draw(catalogs())
    assume(len(entities) >= 2)
    named = draw(st.lists(st.sampled_from(sorted(entities)), min_size=2, max_size=3,
                          unique=True))
    if draw(st.booleans()):
        subject = draw(st.sampled_from(sorted(entities)))
        rel = st.sampled_from(sorted(relations))
        triples = triples + [(subject, draw(rel), named[0]),
                             (subject, draw(rel), named[1])]
    catalog = "".join(
        f"E\t{e.id}\t{e.name}\t{'|'.join(e.aliases + (e.id,))}\n" for e in entities.values()
    ) + "".join(
        f"R\t{r.id}\t{r.phrase}\tthing\tthing\n" for r in relations.values()
    )
    kg = kgraph.load_graph(io.StringIO("".join(f"{s}\t{r}\t{o}\n" for s, r, o in triples)),
                           io.StringIO(catalog))
    query = ["which"]
    for eid in named:
        query += tokenize(draw(st.sampled_from(kg.entities[eid].aliases)))
    return kg, query


@settings(max_examples=200, deadline=None)
@given(graphs_and_queries(), st.sampled_from(CAPS))
def test_generate_matches_reference_on_random_graphs(graph_and_query, cap):
    kg, query = graph_and_query
    assert_matches_reference(query, kg, cap)
