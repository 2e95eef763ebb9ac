import io
import itertools
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorparse import kgraph, logform
from tensorparse.features import assemble, normalize_phrase, tokenize
from tensorparse.kgraph import KnowledgeGraph
from tensorparse.learner import Model, predict, score
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


def test_generation_keys_forms_without_serializing_them(toy_kg, toy_data, mini_kg,
                                                        monkeypatch):
    """Each form's key is written from the ids generation holds, and its
    candidates still come sorted by serialized form."""
    calls = []
    monkeypatch.setattr(logform, "serialize", lambda lf: calls.append(lf) or serialize(lf))
    toy_cands = generate_candidates(tokenize(toy_data[0].question), toy_kg, GenConfig())
    t3_cands = generate_candidates(["who", "did", "brad", "pitt", "play", "in", "troy"],
                                   mini_kg, GenConfig())
    assert calls == []
    assert toy_cands and any(isinstance(c.logical_form.sub, Intersect) for c in t3_cands)
    for cands in toy_cands, t3_cands:
        forms = [serialize(c.logical_form) for c in cands]
        assert forms == sorted(set(forms))


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


def canonical_utterance(lf: LogicalForm, catalog) -> str:
    """Rule-based natural-language rendering of a template-shaped form, from
    the catalog's ``(names, aliases, phrases)`` maps."""
    names, _, phrases = catalog
    if isinstance(lf, Join):
        phrase = phrases[lf.relation_id]
        if isinstance(lf.sub, EntityLit):
            return f"the {phrase} of {names[lf.sub.entity_id]}"
        parts = _two_constraint_parts(lf)
        if parts is not None:
            _, r1, e1, r2, e2 = parts
            return (
                f"the {phrase} of the thing whose {phrases[r1]} is {names[e1]}"
                f" and whose {phrases[r2]} is {names[e2]}"
            )
    elif isinstance(lf, ReverseJoin) and isinstance(lf.sub, EntityLit):
        return f"the things whose {phrases[lf.relation_id]} is {names[lf.sub.entity_id]}"
    raise UnsupportedShapeError(f"no utterance template for {serialize(lf)}")


def brute_force_linked(query_tokens, catalog):
    """Ids of the entities that any span of the query names, every span
    length from 1 to n, ascending; read from the catalog's ``(names,
    aliases, phrases)`` maps, not the alias index."""
    names, aliases, _ = catalog
    n = len(query_tokens)
    spans = {normalize_phrase(" ".join(query_tokens[i:j]))
             for i in range(n) for j in range(i + 1, n + 1)}
    return [eid for eid, name in sorted(names.items())
            if not spans.isdisjoint(
                set(map(normalize_phrase, (name, *aliases.get(eid, ())))) - {""})]


def test_linking_reaches_the_longest_alias(mini_kg):
    # "the dominican republic" is an alias, so its proper prefixes grow spans
    assert mini_kg.alias_prefixes == {"the", "the dominican", "dominican", "brazilian", "brad",
                                      "performance"}
    kg = KnowledgeGraph({"a": "A", "gd": "Grand Duchy of Fenwick"}, {"a": ("a",)}, {"r": "r"},
                        [("gd", "r", "a")])
    # none of "grand", "grand duchy" and "grand duchy of" names an entity, yet
    # each grows the span to the next token
    assert kg.alias_prefixes == {"grand", "grand duchy", "grand duchy of"}
    looked_up = []
    lookup = kg.entities_by_alias
    kg.entities_by_alias = lambda key: looked_up.append(key) or lookup(key)
    tokens = tokenize("what does the grand duchy of fenwick use")
    assert logform._linked_entities(tokens, kg) == ["gd"]
    # every token, and a longer span only while the span before it is a prefix
    assert sorted(looked_up) == sorted(tokens + ["grand duchy", "grand duchy of",
                                                 "grand duchy of fenwick"])
    looked_up.clear()
    # a prefix run into a token that does not continue it stops growing there,
    # and the next start links what follows
    tokens = tokenize("grand duchy of a fenwick")
    assert logform._linked_entities(tokens, kg) == ["a"]
    assert sorted(looked_up) == sorted(tokens + ["grand duchy", "grand duchy of",
                                                 "grand duchy of a"])
    assert "join(r, ent(gd))" in {
        serialize(c.logical_form)
        for c in generate_candidates(tokenize("the grand duchy of fenwick"), kg, GenConfig())}
    assert logform._linked_entities(["fenwick"], kg) == []


WORDS = ["a", "b", "cc", "d"]
alias_texts = st.lists(st.sampled_from(WORDS + ["-", "B"]), min_size=1, max_size=5).map(" ".join)


@st.composite
def aliased_queries(draw):
    """``(named, query)``: ``named`` lists each entity's name and other
    aliases, and the query runs random words together with whole aliases and
    with proper prefixes of multi-token aliases, each cut off by a word that
    does not continue it."""
    named = draw(st.lists(st.tuples(alias_texts, st.lists(alias_texts, max_size=3)),
                          max_size=5))
    alias_tokens = [tokenize(a) for name, others in named for a in (name, *others)]
    long_aliases = [tokens for tokens in alias_tokens if len(tokens) > 1]
    query = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["words", "alias", "prefix"]))
        if kind == "alias" and alias_tokens:
            query += draw(st.sampled_from(alias_tokens))
        elif kind == "prefix" and long_aliases:
            tokens = draw(st.sampled_from(long_aliases))
            cut = draw(st.integers(1, len(tokens) - 1))
            query += tokens[:cut]
            query.append(draw(st.sampled_from([w for w in WORDS if w != tokens[cut]])))
        else:
            query += draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    return named, query


@settings(max_examples=300, deadline=None)
@given(aliased_queries())
def test_linked_entities_match_brute_force(named_and_query):
    named, query = named_and_query
    catalog = ({f"e{i}": name for i, (name, _) in enumerate(named)},
               {f"e{i}": tuple(others) for i, (_, others) in enumerate(named)}, {"r": "r"})
    kg = KnowledgeGraph(*catalog, [])
    assert logform._linked_entities(query, kg) == brute_force_linked(query, catalog)


def reference_generate_candidates(query_tokens, kg, catalog):
    """``generate_candidates`` as it was before it read the graph's indexes
    and before each template rendered its own utterance, linking through
    every span of the query, with no cap, over the graph ``kg`` built from
    ``catalog``, its ``(names, aliases, phrases)`` maps.

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
    linked = brute_force_linked(list(query_tokens), catalog)
    rel_ids = sorted(catalog[2])
    forms: dict = {}

    def add(lf):
        forms.setdefault(serialize(lf), lf)

    for eid in linked:
        for rid in rel_ids:
            add(Join(rid, EntityLit(eid)))
            add(ReverseJoin(rid, EntityLit(eid)))
    if len(linked) >= 2:
        for e1 in linked:
            for e2 in linked:
                if e1 == e2:
                    continue
                for r1 in rel_ids:
                    for r2 in rel_ids:
                        inner = Intersect(
                            ReverseJoin(r1, EntityLit(e1)),
                            ReverseJoin(r2, EntityLit(e2)),
                        )
                        if not kgraph.denotation(inner, kg):
                            continue
                        for r in rel_ids:
                            add(Join(r, inner))

    out = []
    for _, lf in sorted(forms.items()):
        utterance = canonical_utterance(lf, catalog)
        out.append(
            Candidate(
                logical_form=lf,
                utterance_tokens=tuple(tokenize(utterance)),
                denotation=kgraph.denotation(lf, kg),
            )
        )
    return out


def filtered_reference(query_tokens, kg, catalog, cap):
    """The reference's forms that denote something, cap lifted, then the
    first ``cap`` of them."""
    return [c for c in reference_generate_candidates(query_tokens, kg, catalog)
            if c.denotation][:cap]


def assert_matches_reference(query_tokens, kg, catalog, cap):
    """``generate_candidates`` is the filtered reference, and each denotation
    is non-empty and what ``kgraph.denotation`` gives its form."""
    got = generate_candidates(query_tokens, kg, GenConfig(max_candidates=cap))
    assert got == filtered_reference(query_tokens, kg, catalog, cap), query_tokens
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
def test_generate_matches_reference_on_mini(mini_kg, mini_catalog, query, cap):
    assert_matches_reference(tokenize(query), mini_kg, mini_catalog, cap)


def test_generate_matches_reference_on_toy(toy_kg, toy_catalog, toy_data):
    for cap in CAPS:
        for example in toy_data:
            assert_matches_reference(tokenize(example.question), toy_kg, toy_catalog, cap)


@st.composite
def graphs_and_queries(draw):
    """``(graph, catalog, query)``: a graph read by ``load_graph``, the
    ``(names, aliases, phrases)`` maps of its catalog, and a query naming 2-3
    of its entities.

    Each entity's id is one of its aliases, so a query can link it whatever
    text its other aliases hold.  Half the graphs gain a subject that points
    into the first two named entities, so that T3 forms exist.
    """
    names, aliases, phrases, triples = draw(catalogs())
    assume(len(names) >= 2)
    aliases = {eid: (*listed, eid) for eid, listed in aliases.items()}
    named = draw(st.lists(st.sampled_from(sorted(names)), min_size=2, max_size=3, unique=True))
    if draw(st.booleans()):
        subject = draw(st.sampled_from(sorted(names)))
        rel = st.sampled_from(sorted(phrases))
        triples = triples + [(subject, draw(rel), named[0]),
                             (subject, draw(rel), named[1])]
    catalog = "".join(
        f"E\t{eid}\t{name}\t{'|'.join(aliases[eid])}\n" for eid, name in names.items()
    ) + "".join(
        f"R\t{rid}\t{phrase}\tthing\tthing\n" for rid, phrase in phrases.items()
    )
    kg = kgraph.load_graph(io.StringIO("".join(f"{s}\t{r}\t{o}\n" for s, r, o in triples)),
                           io.StringIO(catalog))
    query = ["which"]
    for eid in named:
        query += tokenize(draw(st.sampled_from(aliases[eid])))
    return kg, (names, aliases, phrases), query


@settings(max_examples=200, deadline=None)
@given(graphs_and_queries(), st.sampled_from(CAPS))
def test_generate_matches_reference_on_random_graphs(graph_and_query, cap):
    kg, catalog, query = graph_and_query
    assert_matches_reference(query, kg, catalog, cap)


def previous_generate_candidates(query_tokens, kg, cfg):
    """``generate_candidates`` as it was when T3 read the outer relations
    anew for every (r1, r2) pair, kept to check that reading them once per
    set of shared subjects changes no output."""
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = [(eid, tuple(kg.names[eid].split()))
              for eid in logform._linked_entities(list(query_tokens), kg)]
    phrase = kg.phrase_tokens
    forms: dict = {}

    def add(lf, utterance, denotation):
        forms[serialize(lf)] = (lf, utterance, denotation)

    for eid, name in linked:
        lit = EntityLit(eid)
        for rid, objects in kg.outgoing(eid):
            add(Join(rid, lit), ("the", *phrase[rid], "of", *name), objects)
        for rid, subjects in kg.incoming(eid):
            add(ReverseJoin(rid, lit), ("the", "things", "whose", *phrase[rid], "is", *name),
                subjects)
    for (e1, name1), (e2, name2) in itertools.permutations(linked, 2):
        for r1, subjects1 in kg.incoming(e1):
            for r2, subjects2 in kg.incoming(e2):
                things = subjects1 & subjects2
                if things:
                    inner = Intersect(ReverseJoin(r1, EntityLit(e1)),
                                      ReverseJoin(r2, EntityLit(e2)))
                    thing = ("the", "thing", "whose", *phrase[r1], "is", *name1,
                             "and", "whose", *phrase[r2], "is", *name2)
                    outer: dict = {}
                    for s in things:
                        for rid, objects in kg.outgoing(s):
                            outer[rid] = outer[rid] | objects if rid in outer else objects
                    for rid, objects in outer.items():
                        add(Join(rid, inner), ("the", *phrase[rid], "of", *thing), objects)

    return [Candidate(lf, utterance, denotation)
            for _, (lf, utterance, denotation) in sorted(forms.items())[: cfg.max_candidates]]


HUB_QUERY = tokenize("alpha and beta")


def hub_graph(triples, relations):
    """Subjects ``s0``, ``s1``, ... with facts into ``alpha``, ``beta`` and
    ``gamma``, which only the question names."""
    names = {"alpha", "beta", "gamma", *(s for s, _, _ in triples)}
    return KnowledgeGraph({e: e for e in names}, {e: (e,) for e in names},
                          {r: r for r in relations}, triples)


@st.composite
def hubs(draw):
    """A hub graph: every subject takes each relation into ``alpha``,
    ``beta``, ``gamma`` or nothing, so many (r1, r2) pairs share one set of
    subjects."""
    relations = [f"r{j}" for j in range(draw(st.integers(1, 6)))]
    targets = st.sampled_from(("alpha", "beta", "gamma", None))
    triples = [(f"s{i}", r, o) for i in range(draw(st.integers(1, 12)))
               for r in relations for o in [draw(targets)] if o]
    return hub_graph(triples, relations)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs_and_queries(), hubs().map(lambda kg: (kg, None, HUB_QUERY))),
       st.sampled_from(CAPS))
def test_generate_matches_the_previous_generator(graph_and_query, cap):
    kg, _, query = graph_and_query
    cfg = GenConfig(max_candidates=cap)
    assert generate_candidates(query, kg, cfg) == previous_generate_candidates(query, kg, cfg)


def test_t3_reads_each_shared_subject_once_per_set_of_them(monkeypatch):
    # R = 10 relations from each of 200 subjects, r0-r4 into alpha and r5-r9
    # into beta: all 2 * 5 * 5 ordered (r1, r2) pairs share the one set of
    # all 200 subjects, whose outgoing relations are read once.
    relations = [f"r{j}" for j in range(10)]
    kg = hub_graph([(f"s{i}", r, "alpha" if j < 5 else "beta")
                    for i in range(200) for j, r in enumerate(relations)], relations)
    read = []
    outgoing = kg.outgoing

    def counted(entity_id):
        read.append(entity_id)
        return outgoing(entity_id)

    monkeypatch.setattr(kg, "outgoing", counted)
    got = generate_candidates(HUB_QUERY, kg, GenConfig())
    assert len(got) == 200  # of 510 forms: 2 * 25 * 10 T3 and 10 T2
    # T1 reads alpha and beta, T3 each subject once
    assert sorted(read) == sorted(["alpha", "beta", *(f"s{i}" for i in range(200))])


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs_and_queries(), hubs().map(lambda kg: (kg, None, HUB_QUERY))),
       st.sampled_from(CAPS), st.data())
def test_predict_on_generated_lists_takes_the_smallest_best_form(graph_and_query, cap, data):
    kg, _, query = graph_and_query
    candidates = generate_candidates(query, kg, GenConfig(max_candidates=cap))
    # weights on keys the candidates assemble, from a few values, so that
    # some scores tie
    keys = sorted({key for c in candidates for key in assemble(query, c)}) or ["p:a|a"]
    weights = data.draw(st.dictionaries(st.sampled_from(keys),
                                        st.sampled_from([-1.0, 0.5, 1.0, 2.0]), max_size=8))
    for model in (Model(weights={}), Model(weights=weights)):
        smallest_best = min(
            candidates, default=None,
            key=lambda c: (-score(model, assemble(query, c)), serialize(c.logical_form)))
        assert predict(model, query, candidates) is smallest_best
