import io
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorparse import kgraph, logform
from tensorparse.features import tokenize
from tensorparse.kgraph import KnowledgeGraph
from tensorparse.learner import Model, predict
from tensorparse.logform import EntityLit, GenConfig, Join, generate_candidates, serialize

import oracle
from conftest import logical_form
from test_kgraph import catalogs, forms_over

# every id a catalog accepts
ids = st.text(st.characters(exclude_characters=logform.ID_FORBIDDEN), min_size=1, max_size=6)


def test_serialize_join():
    lf = Join("currency", EntityLit("brazil"))
    assert serialize(lf) == "join(currency, ent(brazil))"


def test_parse_nested():
    text = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    assert oracle.parse(text) == ("join", "character", ("and", ("rev", "actor", ("ent", "brad_pitt")),
                                                      ("rev", "film", ("ent", "troy"))))
    assert serialize(logical_form(text)) == text


@given(forms_over(ids, ids, max_leaves=6))
def test_round_trip(text):
    # serialize writes back the text that each form is built from, so it is
    # injective over every id a catalog accepts
    assert serialize(logical_form(text)) == text


def test_id_forbidden_holds_every_space():
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert spaces <= logform.ID_FORBIDDEN


def generated(query_tokens, kg, cap=200):
    """``(form text, utterance tokens, denotation)`` of each candidate that
    generation gives, in its order."""
    return [(serialize(c.logical_form), c.utterance_tokens, c.denotation)
            for c in generate_candidates(query_tokens, kg, GenConfig(max_candidates=cap))]


def generated_utterance(query, form, kg):
    """The utterance tokens generation gives ``form`` for ``query``."""
    return {text: utterance for text, utterance, _ in generated(tokenize(query), kg)}[form]


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
    by_form = {text: rest for text, *rest in generated(tokenize("what currency does brazil use"),
                                                       mini_kg)}
    assert by_form["join(currency, ent(brazil))"] == [("the", "currency", "of", "brazil"),
                                                      {"brazilian_real"}]


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
    denotations = {text: denotation for text, _, denotation in generated(tokens, mini_kg)}
    key = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    assert denotations[key] == {"achilles"}


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
    toy_forms, t3_forms = ([serialize(c.logical_form) for c in cands]
                           for cands in (toy_cands, t3_cands))
    assert toy_forms and any(oracle.parse(form)[2][0] == "and" for form in t3_forms)
    for forms in toy_forms, t3_forms:
        assert forms == sorted(set(forms))


def test_forms_that_denote_nothing_are_not_generated(mini_kg):
    forms = {serialize(c.logical_form)
             for c in generate_candidates(tokenize("what currency does ethiopia use"),
                                          mini_kg, GenConfig())}
    # ethiopia adjoins two countries and is adjoined by them; it has no currency
    assert forms == {"join(adjoins, ent(ethiopia))", "rev(adjoins, ent(ethiopia))"}


def test_empty_inner_intersection_pruned(mini_kg, mini_graph):
    # brazil and troy never co-constrain any node, so no T3 form pairs them
    tokens = ["brazil", "troy"]
    for text, _, _ in generated(tokens, mini_kg):
        # the argument of join(r, ...): r holds no ", "
        inner = text.partition(", ")[2][:-1]
        if inner.startswith("and("):
            assert mini_graph.denotation(inner)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_candidates=0)


def test_empty_query_rejected(mini_kg):
    with pytest.raises(ValueError):
        generate_candidates([], mini_kg, GenConfig())


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
    assert logform._linked_entities(query, kg) == oracle.linked(query, catalog)


def assert_matches_reference(kg, catalog, graph, query_tokens, cap):
    """``generate_candidates`` gives the first ``cap`` of the oracle's
    reference forms, over the graph ``kg`` built from ``catalog``, its
    ``(names, aliases, phrases)`` maps, and the triples of the oracle's
    ``graph``: the same text, utterance tokens and denotation, in order."""
    expected = oracle.generate(query_tokens, catalog, graph)[:cap]
    assert generated(query_tokens, kg, cap) == expected, query_tokens


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
def test_generate_matches_reference_on_mini(mini_kg, mini_catalog, mini_graph, query, cap):
    assert_matches_reference(mini_kg, mini_catalog, mini_graph, tokenize(query), cap)


def test_generate_matches_reference_on_toy(toy_kg, toy_catalog, toy_graph, toy_data):
    # the dataset's questions, and each alias of the catalog as a question
    aliases = [alias for listed in toy_catalog[1].values() for alias in listed]
    for question in [example.question for example in toy_data] + aliases:
        tokens = tokenize(question)
        expected = oracle.generate(tokens, toy_catalog, toy_graph)
        for cap in CAPS:
            assert generated(tokens, toy_kg, cap) == expected[:cap], tokens


@st.composite
def graphs_and_queries(draw):
    """``(kg, catalog, graph, query)``: a graph read by ``load_graph``, the
    ``(names, aliases, phrases)`` maps of its catalog, the oracle's graph of
    its triples, and a query naming 2-3 of its entities.

    Each entity's id is one of its aliases, so a query can link it whatever
    text its other aliases hold.  Half the graphs gain a subject that points
    into the first two named entities, so that T3 forms exist.
    """
    names, aliases, phrases, triples = draw(catalogs())
    assume(len(names) >= 2)
    aliases = {eid: (*aliases.get(eid, ()), eid) for eid in names}
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
    return kg, (names, aliases, phrases), oracle.Graph(triples), query


HUB_QUERY = tokenize("alpha and beta")


def hub_catalog(triples, relations):
    """The ``(names, aliases, phrases)`` maps of a graph of subjects ``s0``,
    ``s1``, ... with facts into ``alpha``, ``beta`` and ``gamma``, which
    only the question names."""
    names = {"alpha", "beta", "gamma", *(s for s, _, _ in triples)}
    return {e: e for e in names}, {e: (e,) for e in names}, {r: r for r in relations}


@st.composite
def hubs(draw):
    """``(kg, catalog, graph, query)`` of a hub graph, as
    :func:`graphs_and_queries` gives them: every subject takes each relation
    into ``alpha``, ``beta``, ``gamma`` or nothing, so many (r1, r2) pairs
    share one set of subjects."""
    relations = [f"r{j}" for j in range(draw(st.integers(1, 6)))]
    targets = st.sampled_from(("alpha", "beta", "gamma", None))
    triples = [(f"s{i}", r, o) for i in range(draw(st.integers(1, 12)))
               for r in relations for o in [draw(targets)] if o]
    catalog = hub_catalog(triples, relations)
    return KnowledgeGraph(*catalog, triples), catalog, oracle.Graph(triples), HUB_QUERY


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs_and_queries(), hubs()), st.sampled_from(CAPS))
def test_generate_matches_reference_on_random_graphs(graph_and_query, cap):
    assert_matches_reference(*graph_and_query, cap)


def test_t3_reads_each_shared_subject_once_per_set_of_them(monkeypatch):
    # R = 10 relations from each of 200 subjects, r0-r4 into alpha and r5-r9
    # into beta: all 2 * 5 * 5 ordered (r1, r2) pairs share the one set of
    # all 200 subjects, whose outgoing relations are read once.
    relations = [f"r{j}" for j in range(10)]
    triples = [(f"s{i}", r, "alpha" if j < 5 else "beta")
               for i in range(200) for j, r in enumerate(relations)]
    kg = KnowledgeGraph(*hub_catalog(triples, relations), triples)
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
@given(st.one_of(graphs_and_queries(), hubs()), st.sampled_from(CAPS), st.data())
def test_predict_on_generated_lists_takes_the_smallest_best_form(graph_and_query, cap, data):
    kg, _, _, query = graph_and_query
    candidates = generate_candidates(query, kg, GenConfig(max_candidates=cap))
    # weights on the candidates' feature keys, from a few values, so that
    # some scores tie
    keys = sorted({key for c in candidates
                   for key in oracle.feature_keys(query, c.utterance_tokens, len(c.denotation))})
    weights = data.draw(st.dictionaries(st.sampled_from(keys or ["p:a|a"]),
                                        st.sampled_from([-1.0, 0.5, 1.0, 2.0]), max_size=8))
    for model in (Model(weights={}), Model(weights=weights)):
        smallest_best = min(
            candidates, default=None,
            key=lambda c: (-oracle.score(model.weights, query, c.utterance_tokens,
                                         len(c.denotation)),
                           serialize(c.logical_form)))
        assert predict(model, query, candidates) is smallest_best
