import gc
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorparse
from tensorparse import kgraph, toy
from tensorparse.features import normalize_phrase, tokenize
from tensorparse.kgraph import (
    GraphParseError,
    KnowledgeGraph,
    ReferentialError,
    denotation,
    load_graph,
)
from tensorparse.logform import EntityLit, Intersect, Join, ReverseJoin

from conftest import MINI_CATALOG, MINI_TRIPLES, graph_from_strings


def test_duplicate_triples_deduplicate():
    triples = "brazil\tcurrency\tbrazilian_real\nethiopia\tadjoins\tkenya\nbrazil\tcurrency\tbrazilian_real\n"
    kg = graph_from_strings(triples, MINI_CATALOG)
    assert len(kg.triples) == 2


def test_empty_triple_source():
    kg = graph_from_strings("", MINI_CATALOG)
    assert len(kg.triples) == 0
    assert "brazil" in kg.entities
    assert "currency" in kg.relations


def test_wrong_field_count_reports_line():
    with pytest.raises(GraphParseError) as exc:
        graph_from_strings("brazil\tcurrency\tbrazilian_real\nbrazil\tcurrency\n", MINI_CATALOG)
    assert exc.value.line_number == 2


def test_unknown_triple_id_named():
    # load_graph names the line; comments and blank lines count.
    first = MINI_TRIPLES.splitlines()[0]
    for triples, message in [
        ("atlantis\tcurrency\tbrazilian_real\n", "line 1: unknown subject entity id: atlantis"),
        (f"{first}\nbrazil\tcurrencyx\tbrazilian_real\n", "line 2: unknown relation id: currencyx"),
        (f"# header\n{first}\n\nbrazil\tcurrency\tatlantis\n",
         "line 4: unknown object entity id: atlantis"),
    ]:
        with pytest.raises(ReferentialError, match=f"^{message}$"):
            graph_from_strings(triples, MINI_CATALOG)
    # The constructor checks the ids itself, not only load_graph.
    ents = {e: kgraph.Entity(e, e, (e,)) for e in ("a", "b", "s")}
    rels = {"r": kgraph.Relation("r", "r")}
    for triples, message in [
        ([("s", "r", "a"), ("x", "r", "b")], "unknown subject entity id: x"),
        ([("s", "r", "a"), ("s", "q", "b")], "unknown relation id: q"),
        ([("s", "r", "a"), ("s", "r", "y")], "unknown object entity id: y"),
    ]:
        with pytest.raises(ReferentialError, match=f"^{message}$"):
            KnowledgeGraph(ents, rels, triples)


def test_comments_and_blank_lines_ignored(mini_kg):
    triples = "# header\n\nbrazil\tcurrency\tbrazilian_real\n"
    kg = graph_from_strings(triples, MINI_CATALOG)
    assert len(kg.triples) == 1


def test_catalog_errors():
    with pytest.raises(GraphParseError):
        graph_from_strings("", "E\tx\tname\n")  # 3 fields, needs 4
    with pytest.raises(GraphParseError):
        graph_from_strings("", "E\tx\t\t\n")  # empty name
    with pytest.raises(GraphParseError):
        graph_from_strings("", "E\tx\ta\t\nE\tx\tb\t\n")  # duplicate id
    with pytest.raises(GraphParseError):
        graph_from_strings("", "Z\tx\ta\t\n")  # unknown record kind


# Ids a serialized form cannot hold.  A relation "a, ent(b)), join(c" and an
# entity "b)), join(c, ent(d" would make join(<that relation>, ent(d))
# serialize like a different form, and generation deduplicates by text.  A
# triple line that starts with "#x" is a comment, so "#x" could own no triple.
BAD_IDS = ["a, ent(b)), join(c", "b)), join(c, ent(d", "a(b", "a)b", "a,b", "a b",
           "\u00a0a", "a\u3000", "a\x0bb", "", "#x"]


@pytest.mark.parametrize("bad_id", BAD_IDS)
@pytest.mark.parametrize("kind, template", [("entity", "E\t{}\tname\t"),
                                            ("relation", "R\t{}\tphrase\tT\tT")])
def test_catalog_rejects_ids_a_form_cannot_hold(kind, template, bad_id):
    catalog = "E\tbrazil\tBrazil\t\n" + template.format(bad_id) + "\n"
    with pytest.raises(GraphParseError) as exc:
        graph_from_strings("", catalog)
    assert exc.value.line_number == 2
    assert f"{kind} id {bad_id!r} must be" in str(exc.value)


def oracle_indexes(triples):
    """``(triples, forward, backward)`` as the graph built them before its
    per-entity indexes: tuple keys over a kept triple set."""
    triples = frozenset(triples)
    forward: dict = {}
    backward: dict = {}
    for s, r, o in triples:
        forward.setdefault((s, r), set()).add(o)
        backward.setdefault((o, r), set()).add(s)
    return (triples, {k: frozenset(v) for k, v in forward.items()},
            {k: frozenset(v) for k, v in backward.items()})


def oracle_alias_index(entities):
    alias_index: dict = {}
    for ent in entities.values():
        keys = {normalize_phrase(a) for a in ent.aliases}
        keys.add(normalize_phrase(ent.name))
        keys.discard("")
        for key in keys:
            alias_index.setdefault(key, set()).add(ent.id)
    return {k: tuple(sorted(v)) for k, v in alias_index.items()}


def assert_matches_oracle(kg, triples):
    """Every lookup of ``kg``, over every entity and relation, against the oracle.

    ``outgoing(e)`` must list each relation out of ``e`` once, with the same
    objects as the oracle's forward index, and ``incoming(e)`` each relation
    into ``e`` with the subjects of its backward index; both list nothing
    for an entity that no triple leads out of or into.  ``phrase_tokens``
    holds each relation's phrase tokenized, and ``names`` each entity's name
    normalized, as the very string that keys it in the alias index.  Every
    one-member entry of either index that holds the same member is one
    shared frozenset.
    """
    expected, forward, backward = oracle_indexes(triples)
    singletons: dict = {}
    for index in (kg._forward, kg._backward):
        for rels in index.values():
            for members in rels.values():
                if len(members) == 1:
                    (member,) = members
                    assert singletons.setdefault(member, members) is members
    for e in kg.entities:
        for listed, index in ((list(kg.outgoing(e)), forward), (list(kg.incoming(e)), backward)):
            assert dict(listed) == {r: members for (x, r), members in index.items() if x == e}
            assert len(listed) == len(dict(listed))
            assert all(type(members) is frozenset for _, members in listed)
        for r in kg.relations:
            assert kg.forward(e, r) == forward.get((e, r), frozenset())
            assert kg.backward(e, r) == backward.get((e, r), frozenset())
            assert type(kg.forward(e, r)) is type(kg.backward(e, r)) is frozenset
            for o in kg.entities:
                assert ((e, r, o) in kg.triples) == ((e, r, o) in expected)
    assert len(kg.triples) == len(expected)
    assert set(kg.triples) == expected
    assert kg.triples == expected and expected == kg.triples
    assert all(type(t) is tuple for t in kg.triples)
    assert ("x", "y") not in kg.triples and "abc" not in kg.triples
    assert kg._alias_index == oracle_alias_index(kg.entities)
    assert kg.names == {eid: normalize_phrase(e.name) for eid, e in kg.entities.items()}
    alias_keys = {key: key for key in kg._alias_index}
    assert all(alias_keys[name] is name for name in kg.names.values() if name)
    assert kg.max_alias_tokens == max(
        (len(key.split()) for key in oracle_alias_index(kg.entities)), default=0)
    assert kg.phrase_tokens == {rid: tuple(tokenize(r.phrase)) for rid, r in kg.relations.items()}


def test_index_inversion_exhaustive(mini_kg, toy_kg, toy_dir):
    mini = [tuple(line.split("\t")) for line in MINI_TRIPLES.splitlines()]
    assert_matches_oracle(mini_kg, mini)
    assert list(mini_kg.incoming("p1")) == []  # p1 is never an object
    assert list(mini_kg.outgoing("achilles")) == []  # nor achilles a subject
    assert dict(mini_kg.outgoing("p1")) == {
        "actor": {"brad_pitt"}, "film": {"troy"}, "character": {"achilles"}}
    lines = (toy_dir / toy.TRIPLES_FILE).read_text(encoding="utf-8").splitlines()
    toy_triples = [tuple(line.split("\t")) for line in lines if line and line[0] != "#"]
    assert len(toy_triples) == 96
    assert_matches_oracle(toy_kg, toy_triples)


def test_one_member_entries_share_a_frozenset_that_no_growth_changes():
    # b's entry shares x's frozenset with a's until y reaches a, which must
    # not reach b; the mirror triples do the same in the backward index.
    ents = {e: kgraph.Entity(e, e, (e,)) for e in ("a", "b", "x", "y")}
    rels = {r: kgraph.Relation(r, r) for r in ("r", "s")}
    triples = [tuple(t.split()) for t in (
        "a r x", "b r x", "b r x", "a r y",
        "x s a", "x s b", "x s b", "y s a",
    )]
    kg = KnowledgeGraph(ents, rels, triples)
    assert kg.forward("b", "r") == {"x"}
    assert kg.forward("a", "r") == {"x", "y"}
    assert kg.backward("x", "r") == {"a", "b"}
    assert kg.backward("b", "s") == {"x"}
    assert kg.backward("a", "s") == {"x", "y"}
    holding_x = [members for index in (kg._forward, kg._backward)
                 for rels in index.values() for members in rels.values() if members == {"x"}]
    assert len(holding_x) == 2
    assert all(members is kg.forward("b", "r") for members in holding_x)
    assert_matches_oracle(kg, triples)


def test_index_holds_the_catalogs_id_strings(toy_dir):
    # Split from the triple lines, every id would be a new string per line;
    # the indexes hold the catalog's one string per id instead.
    with open(toy_dir / toy.TRIPLES_FILE, encoding="utf-8") as t, open(
        toy_dir / toy.CATALOG_FILE, encoding="utf-8"
    ) as c:
        kg = load_graph(t, c)
    entity_ids = {e: e for e in kg.entities}
    relation_ids = {r: r for r in kg.relations}
    assert all(entity_ids[e] is e is kg.entities[e].id for e in kg.entities)
    for index in (kg._forward, kg._backward):
        assert index
        for e, rels in index.items():
            assert entity_ids[e] is e
            for r, members in rels.items():
                assert relation_ids[r] is r
                assert all(entity_ids[m] is m for m in members)


BAD_MID_TRIPLE = MINI_TRIPLES + "brazil\tcurrency\n" + MINI_TRIPLES
BAD_CATALOG = MINI_CATALOG + "E\tatlantis\tAtlantis\n" + "E\tlemuria\tLemuria\t\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("triples, catalog, error", [
    (MINI_TRIPLES, MINI_CATALOG, None),
    (BAD_MID_TRIPLE, MINI_CATALOG, GraphParseError),
    (MINI_TRIPLES + "atlantis\tcurrency\tbrazil\n", MINI_CATALOG, ReferentialError),
    (MINI_TRIPLES, BAD_CATALOG, GraphParseError),
], ids=["loads", "bad-triple-line", "unknown-id", "bad-catalog-line"])
def test_load_graph_restores_gc_state(enabled, triples, catalog, error):
    seen = []

    def lines(text):
        for line in io.StringIO(text):
            seen.append(gc.isenabled())
            yield line

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load_graph(lines(triples), lines(catalog))
        else:
            with pytest.raises(error):
                load_graph(lines(triples), lines(catalog))
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert after is enabled
    assert seen and not any(seen)  # paused while the sources are read


def test_entities_by_alias(mini_kg):
    assert [e.id for e in mini_kg.entities_by_alias(["brazil"])] == ["brazil"]
    assert [e.id for e in mini_kg.entities_by_alias(["dominican", "republic"])] == [
        "dominican_republic"
    ]
    assert mini_kg.entities_by_alias(["xyzzy"]) == ()


def test_alias_index_covers_a_name_missing_from_the_aliases():
    # _parse_catalog always puts the name among the aliases; a directly built
    # Entity need not.
    ents = {"nyc": kgraph.Entity("nyc", "New York City", ("the big apple", "NYC")),
            "ny": kgraph.Entity("ny", "New York", ("New York",))}
    kg = KnowledgeGraph(ents, {}, [])
    assert kg._alias_index == oracle_alias_index(ents)
    assert kg.entities_by_alias(["new", "york", "city"]) == (ents["nyc"],)
    assert kg.entities_by_alias(["Big", "Apple"]) == ()
    assert kg.entities_by_alias(["the", "big", "apple"]) == (ents["nyc"],)
    assert kg.entities_by_alias(["new", "york"]) == (ents["ny"],)


def test_names_are_the_alias_keys_they_give():
    # "kenya" is first an alias of k1, then the name of k2 and k3; "!!!" names
    # nothing
    ents = {"k1": kgraph.Entity("k1", "Republic of Kenya", ("Kenya!",)),
            "k2": kgraph.Entity("k2", "KENYA", ("KENYA",)),
            "k3": kgraph.Entity("k3", "kenya", ()),
            "x": kgraph.Entity("x", "!!!", ("!!!",))}
    kg = KnowledgeGraph(ents, {}, [])
    assert kg.names == {"k1": "republic of kenya", "k2": "kenya", "k3": "kenya", "x": ""}
    (key,) = [k for k in kg._alias_index if k == "kenya"]
    assert kg.names["k2"] is key and kg.names["k3"] is key
    assert kg.entities_by_alias(["kenya"]) == (ents["k1"], ents["k2"], ents["k3"])
    assert_matches_oracle(kg, [])


def test_unknown_id_that_is_not_printable_is_echoed_as_its_repr():
    ents = {e: kgraph.Entity(e, e, (e,)) for e in ("a", "s")}
    rels = {"r": kgraph.Relation("r", "r")}
    kg = KnowledgeGraph(ents, rels, [])
    for bad in ("x\u2028y", "x\x85y", "x\x0by", "x\x1cy", "x\x1b[31my", "x\ty"):
        for triple, message in [((bad, "r", "a"), "unknown subject entity id"),
                                (("s", bad, "a"), "unknown relation id"),
                                (("s", "r", bad), "unknown object entity id")]:
            with pytest.raises(ReferentialError) as exc:
                KnowledgeGraph(ents, rels, [triple])
            assert str(exc.value) == f"{message}: {bad!r}"
        for lookup, message in [(kg.entity, "unknown entity id"),
                                (kg.relation, "unknown relation id")]:
            with pytest.raises(ReferentialError) as exc:
                lookup(bad)
            assert str(exc.value) == f"{message}: {bad!r}"
    with pytest.raises(ReferentialError, match="^unknown entity id: caf\u00e9 x$"):
        kg.entity("caf\u00e9 x")  # printable, so echoed as it is


def test_directly_built_graph_holds_its_phrase_tokens():
    rels = {"cur": kgraph.Relation("cur", "Currency (ISO-4217)"),
            "pop": kgraph.Relation("pop", "  population  "),
            "sym": kgraph.Relation("sym", "--")}
    kg = KnowledgeGraph({}, rels, [])
    assert kg.phrase_tokens == {"cur": ("currency", "iso", "4217"), "pop": ("population",),
                                "sym": ()}
    assert_matches_oracle(kg, [])


def test_denotation_forward_join(mini_kg):
    lf = Join("currency", EntityLit("brazil"))
    assert denotation(lf, mini_kg) == {"brazilian_real"}


def test_denotation_two_constraint(mini_kg):
    # hand-executed on the seeded performance node: backward(actor) gives
    # {p1}, backward(film) gives {p1}, forward(character) gives {achilles}
    lf = Join(
        "character",
        Intersect(
            ReverseJoin("actor", EntityLit("brad_pitt")),
            ReverseJoin("film", EntityLit("troy")),
        ),
    )
    assert denotation(lf, mini_kg) == {"achilles"}


def test_denotation_empty_not_error(mini_kg):
    assert denotation(Join("currency", EntityLit("ethiopia")), mini_kg) == frozenset()


def test_denotation_unresolved_id(mini_kg):
    with pytest.raises(ReferentialError):
        denotation(EntityLit("atlantis"), mini_kg)
    with pytest.raises(ReferentialError):
        denotation(Join("owns", EntityLit("brazil")), mini_kg)


def test_denotation_repeatable(mini_kg):
    lf = ReverseJoin("adjoins", EntityLit("ethiopia"))
    assert denotation(lf, mini_kg) == denotation(lf, mini_kg)


def random_graph(rng):
    n_ents = rng.randint(3, 8)
    ents = {f"e{i}": kgraph.Entity(f"e{i}", f"e{i}", (f"e{i}",)) for i in range(n_ents)}
    rels = {r: kgraph.Relation(r, r) for r in ("r0", "r1")}
    triples = {
        (f"e{rng.randrange(n_ents)}", rng.choice(("r0", "r1")), f"e{rng.randrange(n_ents)}")
        for _ in range(rng.randint(0, 15))
    }
    return KnowledgeGraph(ents, rels, triples)


def random_form(rng, depth=0):
    choices = ["ent", "join", "rev", "and"] if depth < 3 else ["ent"]
    kind = rng.choice(choices)
    if kind == "ent":
        return EntityLit(f"e{rng.randrange(3)}")
    if kind == "join":
        return Join(rng.choice(("r0", "r1")), random_form(rng, depth + 1))
    if kind == "rev":
        return ReverseJoin(rng.choice(("r0", "r1")), random_form(rng, depth + 1))
    return Intersect(random_form(rng, depth + 1), random_form(rng, depth + 1))


def test_intersection_subset_property():
    rng = random.Random(7)
    for _ in range(200):
        kg = random_graph(rng)
        a = random_form(rng)
        b = random_form(rng)
        both = denotation(Intersect(a, b), kg)
        assert both <= denotation(a, kg)
        assert both <= denotation(b, kg)


def _run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(tensorparse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("first", ["logform", "kgraph"])
def test_denotation_after_either_import_order(first):
    # kgraph imports logform, which names KnowledgeGraph in annotations only;
    # either module may be imported first.
    code = (
        f"import tensorparse.{first}\n"
        "from tensorparse.kgraph import Entity, KnowledgeGraph, Relation, denotation\n"
        "from tensorparse.logform import EntityLit, Join\n"
        "kg = KnowledgeGraph({e: Entity(e, e, (e,)) for e in 'ab'}, {'r': Relation('r', 'r')},"
        " [('a', 'r', 'b')])\n"
        "print(sorted(denotation(Join('r', EntityLit('a')), kg)))\n"
    )
    assert _run_fresh(code) == "['b']\n"


def test_logform_does_not_import_kgraph():
    code = "import sys, tensorparse.logform\nprint('tensorparse.kgraph' in sys.modules)\n"
    assert _run_fresh(code) == "False\n"


# Catalog text: any printable characters but the field and alias separators.
field_text = st.text(st.characters(exclude_categories=("Cc", "Cs"), exclude_characters="|"),
                     max_size=8)
ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=6)


@st.composite
def catalogs(draw):
    """``(entities, relations, triples)`` in the shape ``load_graph`` returns."""
    entities = {}
    for eid in draw(st.lists(ids, min_size=1, max_size=6, unique=True)):
        name = draw(field_text.filter(bool))
        others = draw(st.lists(field_text.filter(bool), max_size=3))
        aliases = list(others)
        aliases.insert(draw(st.integers(0, len(others))), name)
        entities[eid] = kgraph.Entity(eid, name, tuple(aliases))
    relations = {
        rid: kgraph.Relation(rid, draw(field_text.filter(bool)))
        for rid in draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    }
    triples = draw(st.lists(st.tuples(st.sampled_from(sorted(entities)),
                                      st.sampled_from(sorted(relations)),
                                      st.sampled_from(sorted(entities))), max_size=12))
    return entities, relations, triples


@settings(max_examples=200, deadline=None)
@given(catalogs(), st.data())
def test_indexes_match_oracle_on_random_graphs(catalog, data):
    entities, relations, triples = catalog
    # Repeat some triples, and let some entities' aliases omit their name, as
    # a directly built Entity may.
    if triples:
        triples = triples + data.draw(st.lists(st.sampled_from(triples), max_size=6))
        triples = data.draw(st.permutations(triples))
    entities = {
        eid: kgraph.Entity(eid, e.name, tuple(a for a in e.aliases if a != e.name))
        if data.draw(st.booleans()) else e
        for eid, e in entities.items()
    }
    kg = KnowledgeGraph(entities, relations, iter(triples))
    assert_matches_oracle(kg, triples)


def oracle_denotation(lf, forward, backward):
    """``denotation`` executed over the tuple-keyed maps of :func:`oracle_indexes`."""
    if isinstance(lf, EntityLit):
        return {lf.entity_id}
    if isinstance(lf, Join):
        return {o for s in oracle_denotation(lf.sub, forward, backward)
                for o in forward.get((s, lf.relation_id), ())}
    if isinstance(lf, ReverseJoin):
        return {s for o in oracle_denotation(lf.sub, forward, backward)
                for s in backward.get((o, lf.relation_id), ())}
    return (oracle_denotation(lf.left, forward, backward)
            & oracle_denotation(lf.right, forward, backward))


def forms_over(entities, relations):
    """Logical forms of any shape over the given ids."""
    entity_ids = st.sampled_from(sorted(entities))
    relation_ids = st.sampled_from(sorted(relations))
    return st.recursive(
        st.builds(EntityLit, entity_ids),
        lambda sub: st.one_of(st.builds(Join, relation_ids, sub),
                              st.builds(ReverseJoin, relation_ids, sub),
                              st.builds(Intersect, sub, sub)),
        max_leaves=5,
    )


@settings(max_examples=200, deadline=None)
@given(catalogs(), st.data())
def test_denotation_matches_oracle_on_random_graphs(catalog, data):
    entities, relations, triples = catalog
    kg = KnowledgeGraph(entities, relations, triples)
    _, forward, backward = oracle_indexes(triples)
    for lf in data.draw(st.lists(forms_over(entities, relations), min_size=1, max_size=5)):
        got = denotation(lf, kg)
        assert type(got) is frozenset
        assert got == oracle_denotation(lf, forward, backward)


@settings(max_examples=100, deadline=None)
@given(catalogs(), st.data())
def test_load_graph_round_trip(tmp_path_factory, catalog, data):
    entities, relations, triples = catalog
    root = tmp_path_factory.mktemp("graph")
    with open(root / "catalog.tsv", "w", encoding="utf-8") as fh:
        for e in entities.values():
            fh.write(f"E\t{e.id}\t{e.name}\t{'|'.join(e.aliases)}\n")
        for r in relations.values():
            # the domain and range type fields are read past, whatever they hold
            fh.write(f"R\t{r.id}\t{r.phrase}\t{data.draw(field_text)}\t{data.draw(field_text)}\n")
    with open(root / "triples.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{r}\t{o}\n" for s, r, o in triples)
    with open(root / "triples.tsv", encoding="utf-8") as t, open(
        root / "catalog.tsv", encoding="utf-8"
    ) as c:
        kg = load_graph(t, c)
    assert kg.entities == entities
    assert kg.relations == relations
    assert kg.triples == frozenset(triples)
    assert_matches_oracle(kg, triples)
