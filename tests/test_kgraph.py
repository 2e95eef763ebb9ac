import gc
import io
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorparse
from tensorparse import kgraph, toy
from tensorparse.kgraph import (
    GraphParseError,
    KnowledgeGraph,
    ReferentialError,
    denotation,
    load_graph,
)

import oracle
from conftest import MINI_CATALOG, MINI_TRIPLES, graph_from_strings, logical_form


def test_duplicate_triples_deduplicate():
    triples = "brazil\tcurrency\tbrazilian_real\nethiopia\tadjoins\tkenya\nbrazil\tcurrency\tbrazilian_real\n"
    kg = graph_from_strings(triples, MINI_CATALOG)
    assert len(kg.triples) == 2


def test_empty_triple_source():
    kg = graph_from_strings("", MINI_CATALOG)
    assert len(kg.triples) == 0
    assert "brazil" in kg.display_names
    assert "currency" in kg.phrase_tokens


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
    names = {e: e for e in ("a", "b", "s")}
    for triples, message in [
        ([("s", "r", "a"), ("x", "r", "b")], "unknown subject entity id: x"),
        ([("s", "r", "a"), ("s", "q", "b")], "unknown relation id: q"),
        ([("s", "r", "a"), ("s", "r", "y")], "unknown object entity id: y"),
    ]:
        with pytest.raises(ReferentialError, match=f"^{message}$"):
            KnowledgeGraph(names, {}, {"r": "r"}, triples)


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


def read_entries(kg):
    """``(relation, members)`` for every entry the graph's reads return, once
    every entity has been read both ways."""
    return [entry for e in kg.names for read in (kg.outgoing, kg.incoming) for entry in read(e)]


def assert_matches_oracle(kg, triples, catalog):
    """Every lookup of ``kg``, over every entity and relation, against the
    oracle, for a graph built from ``catalog``, the ``(names, aliases,
    phrases)`` maps it was given.

    ``display_names`` holds each entity's name as the catalog gives it.
    ``outgoing(e)`` must list each relation out of ``e`` once, with the same
    objects as the oracle's forward index, and ``incoming(e)`` each relation
    into ``e`` with the subjects of its backward index; both list nothing
    for an entity that no triple leads out of or into.  ``phrase_tokens``
    holds each relation's phrase tokenized, and ``names`` each entity's name
    normalized, which splits into the name's tokens.  Each alias key, an
    entity's name or alias normalized, gives the ids of every entity it
    names, ascending, as the index's one tuple, and ``alias_prefixes``
    holds every proper token prefix of every key.
    ``outgoing`` flattened over every entity gives the oracle's triple set,
    and ``len(kg.triples)`` its size.
    """
    names, aliases, phrases = catalog
    assert kg.display_names == names
    graph = oracle.Graph(triples)
    for e in names:
        for listed, index in ((list(kg.outgoing(e)), graph.forward),
                              (list(kg.incoming(e)), graph.backward)):
            assert dict(listed) == {r: members for (x, r), members in index.items() if x == e}
            assert len(listed) == len(dict(listed))
            assert all(type(members) is frozenset for _, members in listed)
    assert {(e, r, o) for e in names for r, objs in kg.outgoing(e) for o in objs} == graph.triples
    assert len(kg.triples) == len(graph.triples)
    keys = oracle.alias_index(names, aliases)
    assert kg._alias_index.keys() == keys.keys()
    for key, ids in keys.items():
        found = kg.entities_by_alias(key)
        assert found is kg._alias_index[key] and type(found) is tuple
        assert found == ids
    assert kg.alias_prefixes == {" ".join(key.split()[:i])
                                 for key in keys for i in range(1, len(key.split()))}
    assert type(kg.alias_prefixes) is frozenset
    assert kg.names == {eid: oracle.normalize(name) for eid, name in names.items()}
    assert all(kg.names[eid].split() == oracle.tokens(name) for eid, name in names.items())
    assert kg.phrase_tokens == {rid: tuple(oracle.tokens(phrase)) for rid, phrase in phrases.items()}


def test_index_inversion_exhaustive(mini_kg, mini_catalog, toy_kg, toy_catalog, toy_dir):
    assert_matches_oracle(mini_kg, oracle.read_triples(MINI_TRIPLES.splitlines()), mini_catalog)
    assert list(mini_kg.incoming("p1")) == []  # p1 is never an object
    assert list(mini_kg.outgoing("achilles")) == []  # nor achilles a subject
    assert dict(mini_kg.outgoing("p1")) == {
        "actor": {"brad_pitt"}, "film": {"troy"}, "character": {"achilles"}}
    with open(toy_dir / toy.TRIPLES_FILE, encoding="utf-8") as lines:
        toy_triples = oracle.read_triples(lines)
    assert len(toy_triples) == 96
    assert_matches_oracle(toy_kg, toy_triples, toy_catalog)


def test_an_entry_grown_from_one_member_holds_every_member():
    # b's entry, reached twice, holds x once; a's holds x and then y; the
    # mirror triples do the same in the backward index.
    catalog = ({e: e for e in ("a", "b", "x", "y")}, {e: (e,) for e in ("a", "b", "x", "y")},
               {r: r for r in ("r", "s")})
    triples = [tuple(t.split()) for t in (
        "a r x", "b r x", "b r x", "a r y",
        "x s a", "x s b", "x s b", "y s a",
    )]
    kg = KnowledgeGraph(*catalog, triples)
    out = {e: dict(kg.outgoing(e)) for e in kg.names}
    into = {e: dict(kg.incoming(e)) for e in kg.names}
    assert out["b"]["r"] == {"x"}
    assert out["a"]["r"] == {"x", "y"}
    assert into["x"]["r"] == {"a", "b"}
    assert into["b"]["s"] == {"x"}
    assert into["a"]["s"] == {"x", "y"}
    holding_x = [members for _, members in read_entries(kg) if members == {"x"}]
    assert len(holding_x) == 2
    assert_matches_oracle(kg, triples, catalog)


def test_repeated_triples_read_once():
    # "a r x" and "b r y" arrive twice, so a's and b's lists and x's and y's
    # each hold a pair twice; each read gives the member once, as it does for
    # an entry that holds the member once.
    catalog = ({e: e for e in ("a", "b", "c", "x", "y")},
               {e: (e,) for e in ("a", "b", "c", "x", "y")}, {"r": "r"})
    triples = [tuple(t.split()) for t in (
        "a r x", "b r y", "a r x", "c r x", "b r y", "y r b",
    )]
    kg = KnowledgeGraph(*catalog, triples)
    # len counts distinct triples and readies no entity
    assert len(kg.triples) == 4
    assert kg._forward_done == {} and kg._backward_done == {}
    out = {e: dict(kg.outgoing(e)) for e in kg.names}
    into = {e: dict(kg.incoming(e)) for e in kg.names}
    assert out["a"]["r"] == out["c"]["r"] == {"x"}  # twice, once
    assert into["y"]["r"] == out["y"]["r"] == {"b"}  # twice, once
    assert out["b"]["r"] == into["b"]["r"] == {"y"}  # twice, once
    assert into["x"]["r"] == {"a", "c"}
    assert len(kg.triples) == 4
    assert_matches_oracle(kg, triples, catalog)


def test_index_holds_the_catalogs_id_strings(toy_dir):
    # Split from the triple lines, every id would be a new string per line;
    # the indexes hold the catalog's one string per id instead.
    with open(toy_dir / toy.TRIPLES_FILE, encoding="utf-8") as t, open(
        toy_dir / toy.CATALOG_FILE, encoding="utf-8"
    ) as c:
        kg = load_graph(t, c)
    entity_ids = {e: e for e in kg.display_names}
    relation_ids = {r: r for r in kg.phrase_tokens}
    assert all(entity_ids[e] is e for e in kg.names)
    for index in (kg._forward, kg._backward):
        assert index and all(entity_ids[e] is e for e in index)
    entries = read_entries(kg)
    assert entries
    for r, members in entries:
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
    # once with objects the caller froze, which must stay frozen, then as is
    for froze in (True, False):
        seen = []

        def lines(text):
            for line in io.StringIO(text):
                seen.append(gc.isenabled())
                yield line

        was_enabled = gc.isenabled()
        # Counts start from zero, so a young collection after the load would
        # move the graph one generation, not two, and the check below sees it.
        gc.collect()
        (gc.enable if enabled else gc.disable)()
        if froze:
            gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            if error is None:
                kg = load_graph(lines(triples), lines(catalog))
            else:
                with pytest.raises(error):
                    load_graph(lines(triples), lines(catalog))
            after = gc.isenabled()
            after_frozen = gc.get_freeze_count()
            young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
        finally:
            if froze:
                gc.unfreeze()
            (gc.enable if was_enabled else gc.disable)()
        assert after is enabled
        assert seen and not any(seen)  # paused while the sources are read
        assert after_frozen == frozen
        if error is None and not froze:
            # both indexes and every entity's list are tracked, and in the
            # oldest generation, where no young collection scans them
            indexes = (kg._forward, kg._backward)
            containers = [*indexes, *(pairs for index in indexes for pairs in index.values())]
            assert len(containers) == 2 + len(kg._forward) + len(kg._backward) > 2
            assert all(gc.is_tracked(obj) for obj in containers)
            assert not any(id(obj) in young for obj in containers)


def test_a_read_finalizes_only_the_entity_and_direction_it_asks_for(mini_kg):
    kg = mini_kg
    loaded = ({s: pairs[:] for s, pairs in kg._forward.items()},
              {o: pairs[:] for o, pairs in kg._backward.items()})

    def assert_as_loaded():
        # a first read groups the entity's list into its direction's done
        # dict, and leaves both indexes' lists as loaded
        assert (kg._forward, kg._backward) == loaded
        assert all(type(members) is frozenset for done in (kg._forward_done, kg._backward_done)
                   for rels in done.values() for members in rels.values())

    # load_graph readies nothing
    assert kg._forward_done == {} and kg._backward_done == {}
    assert dict(kg.outgoing("ethiopia")) == {"adjoins": {"kenya", "sudan"}}
    assert kg._forward_done.keys() == {"ethiopia"} and kg._backward_done == {}
    assert_as_loaded()
    assert dict(kg.incoming("ethiopia")) == {"adjoins": {"kenya", "sudan"}}
    assert kg._forward_done.keys() == {"ethiopia"} and kg._backward_done.keys() == {"ethiopia"}
    assert_as_loaded()
    kenya, sudan = dict(kg.outgoing("kenya")), dict(kg.outgoing("sudan"))
    assert kenya["adjoins"] == sudan["adjoins"] == {"ethiopia"}
    assert dict(kg.incoming("kenya")) == {"adjoins": {"ethiopia"}}
    assert kg._forward_done.keys() == {"ethiopia", "kenya", "sudan"}
    assert kg._backward_done.keys() == {"ethiopia", "kenya"}
    # a read of an entity with no entries, or of an unknown one, records nothing
    assert list(kg.incoming("p1")) == [] and list(kg.outgoing("atlantis")) == []
    assert kg._backward_done.keys() == {"ethiopia", "kenya"}
    assert kg._forward_done.keys() == {"ethiopia", "kenya", "sudan"}
    assert_as_loaded()


def test_concurrent_first_reads_agree_with_the_oracle(toy_dir):
    # More threads than cores, each making every first read of one fresh
    # graph in its own order; a finalize that another thread can catch
    # half done, or that hands a thread a dict other than the one recorded,
    # fails.
    with open(toy_dir / toy.TRIPLES_FILE, encoding="utf-8") as lines:
        graph = oracle.Graph(oracle.read_triples(lines))
    indexes = {"outgoing": graph.forward, "incoming": graph.backward}
    threads = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for graph in range(100):
            kg = load_files(toy_dir, toy.TRIPLES_FILE)
            reads = [(e, direction) for e in kg.names for direction in indexes]
            got = [None] * threads
            start = threading.Barrier(threads, timeout=60)

            def reader(i):
                order = reads[:]
                random.Random(graph * threads + i).shuffle(order)
                start.wait()
                got[i] = [(e, direction, list(getattr(kg, direction)(e)))
                          for e, direction in order]

            workers = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
            done = {"outgoing": kg._forward_done, "incoming": kg._backward_done}
            for listed in got:
                assert len(listed) == len(reads)
                for e, direction, entries in listed:
                    index = indexes[direction]
                    assert dict(entries) == {r: m for (x, r), m in index.items() if x == e}
                    for r, members in entries:
                        assert type(members) is frozenset
                        assert members is done[direction][e][r]
    finally:
        sys.setswitchinterval(interval)


def test_entities_by_alias(mini_kg):
    assert mini_kg.entities_by_alias("brazil") == ("brazil",)
    assert mini_kg.entities_by_alias("dominican republic") == ("dominican_republic",)
    assert mini_kg.entities_by_alias("the dominican republic") == ("dominican_republic",)
    assert mini_kg.entities_by_alias("xyzzy") == ()
    assert mini_kg.entities_by_alias("the dominican") == ()  # a prefix, not an alias


def test_alias_index_covers_a_name_missing_from_the_aliases():
    # Neither a catalog line nor a directly built graph's aliases need list
    # the name; the constructor keys it all the same.
    catalog = ({"nyc": "New York City", "ny": "New York"},
               {"nyc": ("the big apple", "NYC"), "ny": ("New York",)}, {})
    kg = KnowledgeGraph(*catalog, [])
    assert_matches_oracle(kg, [], catalog)
    assert kg.entities_by_alias("new york city") == ("nyc",)
    assert kg.entities_by_alias("Big Apple") == ()
    assert kg.entities_by_alias("the big apple") == ("nyc",)
    assert kg.entities_by_alias("new york") == ("ny",)
    assert kg.alias_prefixes == {"new", "new york", "the", "the big"}
    # the catalog parse keeps a line's aliases as listed, without the name,
    # and only for a line that lists one; an alias with no letter or digit
    # keys nothing
    catalog = "E\tx\tNew York\tBig Apple\nE\ty\tWhy\t!!|?\nE\tz\tZed\t|\nE\tw\tWho\t\n"
    assert kgraph._parse_catalog(io.StringIO(catalog)) == (
        {"x": "New York", "y": "Why", "z": "Zed", "w": "Who"},
        {"x": ("Big Apple",), "y": ("!!", "?")}, {})
    kg = graph_from_strings("", catalog)
    assert kg.entities_by_alias("new york") == kg.entities_by_alias("big apple") == ("x",)
    assert kg._alias_index.keys() == {"new york", "big apple", "why", "zed", "who"}


def test_names_are_the_alias_keys_they_give():
    # "kenya" is first an alias of k1, then the name of k2 and k3; "!!!" names
    # nothing
    catalog = ({"k1": "Republic of Kenya", "k2": "KENYA", "k3": "kenya", "x": "!!!"},
               {"k1": ("Kenya!",), "k2": ("KENYA",), "k3": (), "x": ("!!!",)}, {})
    kg = KnowledgeGraph(*catalog, [])
    assert kg.names == {"k1": "republic of kenya", "k2": "kenya", "k3": "kenya", "x": ""}
    assert all(eid in kg.entities_by_alias(name) for eid, name in kg.names.items() if name)
    assert kg.entities_by_alias("kenya") == ("k1", "k2", "k3")
    assert_matches_oracle(kg, [], catalog)


def test_a_key_that_several_entities_name_gives_their_ids_ascending():
    # three entities named "Kenya", listed in descending id order but for the
    # last, and a fourth with "kenya" as an alias
    catalog = ("E\tk3\tKenya\t\nE\tk1\tKenya\t\nE\tk2\tKenya\t\n"
               "E\tk4\tRepublic of Kenya\tkenya\nE\tn\tNairobi\tthe capital\n")
    kg = graph_from_strings("", catalog)
    assert kg.entities_by_alias("kenya") == ("k1", "k2", "k3", "k4")
    # a key that one entity names gives that entity's one-id tuple
    assert kg.entities_by_alias("republic of kenya") == ("k4",)
    assert kg.entities_by_alias("nairobi") == kg.entities_by_alias("the capital") == ("n",)
    assert all(type(ids) is tuple and list(ids) == sorted(set(ids))
               for ids in kg._alias_index.values())
    assert_matches_oracle(kg, [], kgraph._parse_catalog(io.StringIO(catalog)))


def test_the_graph_keeps_the_display_names_it_is_given():
    # the display-name map itself, not a copy, and neither of the other maps
    names, aliases, phrases = {"k1": "Kenya", "n": "Nairobi"}, {"k1": ("KE",)}, {"cur": "Currency"}
    kg = KnowledgeGraph(names, aliases, phrases, [("n", "cur", "k1")])
    assert kg.display_names is names
    assert not any(kept is aliases or kept is phrases for kept in vars(kg).values())
    assert kg.names == {"k1": "kenya", "n": "nairobi"}
    assert kg.phrase_tokens == {"cur": ("currency",)}
    assert kg.entities_by_alias("ke") == ("k1",)


def test_load_peaks_near_what_the_graph_keeps():
    # The graph keeps the display-name map the catalog parse built, and the
    # alias index and the alias prefixes are built in the form the graph
    # keeps, so nothing the size of the catalog is alive beside them:
    # three-token names give one prefix set as large as the catalog.
    n = 5000
    triples = [f"e{i}\tr\te{(i + 1) % n}\n" for i in range(n)]
    for name in ("entity {i}", "Place {i} north"):
        catalog = [f"E\te{i}\t{name.format(i=i)}\t\n" for i in range(n)]
        catalog.append("R\tr\tnext to\tx\tx\n")
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            kg = load_graph(triples, catalog)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kg.triples) == n
        assert peak <= 1.06 * kept, (name, peak, kept)
        del kg


def test_unknown_id_that_is_not_printable_is_echoed_as_its_repr():
    catalog = ({e: e for e in ("a", "s")}, {}, {"r": "r"})
    kg = KnowledgeGraph(*catalog, [])
    for bad in ("x\u2028y", "x\x85y", "x\x0by", "x\x1cy", "x\x1b[31my", "x\ty"):
        for triple, message in [((bad, "r", "a"), "unknown subject entity id"),
                                (("s", bad, "a"), "unknown relation id"),
                                (("s", "r", bad), "unknown object entity id")]:
            with pytest.raises(ReferentialError) as exc:
                KnowledgeGraph(*catalog, [triple])
            assert str(exc.value) == f"{message}: {bad!r}"
        for form, message in [(f"ent({bad})", "unknown entity id"),
                              (f"join({bad}, ent(s))", "unknown relation id")]:
            with pytest.raises(ReferentialError) as exc:
                denotation(logical_form(form), kg)
            assert str(exc.value) == f"{message}: {bad!r}"
    with pytest.raises(ReferentialError, match="^unknown entity id: caf\u00e9 x$"):
        denotation(logical_form("ent(caf\u00e9 x)"), kg)  # printable, so echoed as it is
    with pytest.raises(ReferentialError, match="^unknown relation id: caf\u00e9 x$"):
        denotation(logical_form("join(caf\u00e9 x, ent(s))"), kg)


def test_directly_built_graph_holds_its_phrase_tokens():
    catalog = ({}, {}, {"cur": "Currency (ISO-4217)", "pop": "  population  ", "sym": "--"})
    kg = KnowledgeGraph(*catalog, [])
    assert kg.phrase_tokens == {"cur": ("currency", "iso", "4217"), "pop": ("population",),
                                "sym": ()}
    assert_matches_oracle(kg, [], catalog)


def test_denotation_forward_join(mini_kg):
    lf = logical_form("join(currency, ent(brazil))")
    assert denotation(lf, mini_kg) == {"brazilian_real"}


def test_denotation_two_constraint(mini_kg):
    # hand-executed on the seeded performance node: backward(actor) gives
    # {p1}, backward(film) gives {p1}, forward(character) gives {achilles}
    lf = logical_form("join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))")
    assert denotation(lf, mini_kg) == {"achilles"}


def test_denotation_empty_not_error(mini_kg):
    assert denotation(logical_form("join(currency, ent(ethiopia))"), mini_kg) == frozenset()


def test_denotation_unresolved_id(mini_kg):
    with pytest.raises(ReferentialError):
        denotation(logical_form("ent(atlantis)"), mini_kg)
    with pytest.raises(ReferentialError):
        denotation(logical_form("join(owns, ent(brazil))"), mini_kg)


def test_denotation_repeatable(mini_kg):
    lf = logical_form("rev(adjoins, ent(ethiopia))")
    assert denotation(lf, mini_kg) == denotation(lf, mini_kg)


def random_graph(rng):
    n_ents = rng.randint(3, 8)
    names = {f"e{i}": f"e{i}" for i in range(n_ents)}
    triples = {
        (f"e{rng.randrange(n_ents)}", rng.choice(("r0", "r1")), f"e{rng.randrange(n_ents)}")
        for _ in range(rng.randint(0, 15))
    }
    return KnowledgeGraph(names, {e: (e,) for e in names}, {"r0": "r0", "r1": "r1"}, triples)


def random_form(rng, depth=0):
    """Form text of any shape over ``e0``-``e2`` and ``r0``, ``r1``."""
    choices = ["ent", "join", "rev", "and"] if depth < 3 else ["ent"]
    kind = rng.choice(choices)
    if kind == "ent":
        return f"ent(e{rng.randrange(3)})"
    if kind in ("join", "rev"):
        return f"{kind}({rng.choice(('r0', 'r1'))}, {random_form(rng, depth + 1)})"
    return f"and({random_form(rng, depth + 1)}, {random_form(rng, depth + 1)})"


def test_intersection_subset_property():
    rng = random.Random(7)
    for _ in range(200):
        kg = random_graph(rng)
        a = random_form(rng)
        b = random_form(rng)
        both = denotation(logical_form(f"and({a}, {b})"), kg)
        assert both <= denotation(logical_form(a), kg)
        assert both <= denotation(logical_form(b), kg)


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
        "from tensorparse.kgraph import KnowledgeGraph, denotation\n"
        "from tensorparse.logform import EntityLit, Join\n"
        "kg = KnowledgeGraph({'a': 'a', 'b': 'b'}, {}, {'r': 'r'}, [('a', 'r', 'b')])\n"
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
    """``(names, aliases, phrases, triples)``: the catalog maps in the shape
    the catalog parse returns, and triples over their ids.  Some entities
    list no alias, so have no aliases entry, and the others list their name
    among their aliases; some names, such as ``"!!"``, normalize to ``""``."""
    names = {}
    aliases = {}
    for eid in draw(st.lists(ids, min_size=1, max_size=6, unique=True)):
        name = names[eid] = draw(st.one_of(field_text.filter(bool), st.sampled_from(["!!", " - "])))
        if draw(st.booleans()):
            listed = draw(st.lists(field_text.filter(bool), max_size=3))
            listed.insert(draw(st.integers(0, len(listed))), name)
            aliases[eid] = tuple(listed)
    phrases = {rid: draw(field_text.filter(bool))
               for rid in draw(st.lists(ids, min_size=1, max_size=4, unique=True))}
    triples = draw(st.lists(st.tuples(st.sampled_from(sorted(names)),
                                      st.sampled_from(sorted(phrases)),
                                      st.sampled_from(sorted(names))), max_size=12))
    return names, aliases, phrases, triples


@settings(max_examples=200, deadline=None)
@given(catalogs(), st.data())
def test_indexes_match_oracle_on_random_graphs(catalog, data):
    names, aliases, phrases, triples = catalog
    # Repeat some triples, and let some entities' aliases omit their name, as
    # a directly built graph's may.
    if triples:
        triples = triples + data.draw(st.lists(st.sampled_from(triples), max_size=6))
        triples = data.draw(st.permutations(triples))
    aliases = {
        eid: tuple(a for a in listed if a != names[eid]) if data.draw(st.booleans()) else listed
        for eid, listed in aliases.items()
    }
    kg = KnowledgeGraph(names, aliases, phrases, iter(triples))
    # len counts the distinct triples and readies no entity
    assert len(kg.triples) == len(oracle.Graph(triples).triples)
    assert kg._forward_done == {} and kg._backward_done == {}
    assert_matches_oracle(kg, triples, (names, aliases, phrases))
    # each subject's flat list holds the (r, o) pair of every triple out of
    # it, and each object's the (r, s) pair of every triple into it, in the
    # order the triples arrived, repeats included, and reads leave them so;
    # outgoing and incoming list the relations in first-seen order
    pairs_from: dict = {}
    pairs_into: dict = {}
    for s, r, o in triples:
        pairs_from.setdefault(s, []).extend((r, o))
        pairs_into.setdefault(o, []).extend((r, s))
    assert kg._forward == pairs_from and kg._backward == pairs_into
    assert all(type(pairs) is list for index in (kg._forward, kg._backward)
               for pairs in index.values())
    for pairs_of, read in ((pairs_from, kg.outgoing), (pairs_into, kg.incoming)):
        for e, pairs in pairs_of.items():
            assert [r for r, _ in read(e)] == list(dict.fromkeys(pairs[::2]))


def forms_over(entity_ids, relation_ids, max_leaves=5):
    """Form text of any shape over the ids the two strategies draw."""
    return st.recursive(
        st.builds("ent({})".format, entity_ids),
        lambda sub: st.one_of(st.builds("join({}, {})".format, relation_ids, sub),
                              st.builds("rev({}, {})".format, relation_ids, sub),
                              st.builds("and({}, {})".format, sub, sub)),
        max_leaves=max_leaves,
    )


@settings(max_examples=200, deadline=None)
@given(catalogs(), st.data())
def test_denotation_matches_oracle_on_random_graphs(catalog, data):
    names, aliases, phrases, triples = catalog
    kg = KnowledgeGraph(names, aliases, phrases, triples)
    graph = oracle.Graph(triples)
    forms = forms_over(st.sampled_from(sorted(names)), st.sampled_from(sorted(phrases)))
    for form in data.draw(st.lists(forms, min_size=1, max_size=5)):
        got = denotation(logical_form(form), kg)
        assert type(got) is frozenset
        assert got == graph.denotation(form)


# Lines that load_graph skips but counts: comments, some holding tabs and some
# with '#' after leading whitespace, blank lines and whitespace-only lines.
comment_text = st.text(st.one_of(st.characters(exclude_categories=("Cc", "Cs")), st.just("\t")),
                       max_size=8)
skipped_lines = st.one_of(
    st.builds("{}#{}".format, st.sampled_from(["", " ", "\t", " \t ", "\u3000"]), comment_text),
    st.just(""),
    st.text(" \t\x0b\x0c\u00a0\u2003\u3000", min_size=1, max_size=4),
)


def scattered(draw, lines):
    """``lines`` with skipped lines drawn in among them, each ended by LF or CRLF."""
    out = list(lines)
    for junk in draw(st.lists(skipped_lines, min_size=1, max_size=8)):
        out.insert(draw(st.integers(0, len(out))), junk)
    return [line + draw(st.sampled_from(["\n", "\r\n"])) for line in out]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def load_files(root, triples_file, newline=None):
    with open(root / triples_file, encoding="utf-8", newline=newline) as t, open(
        root / "catalog.tsv", encoding="utf-8", newline=newline
    ) as c:
        return load_graph(t, c)


@settings(max_examples=100, deadline=None)
@given(catalogs(), st.data())
def test_load_graph_round_trip(tmp_path_factory, catalog, data):
    names, aliases, phrases, triples = catalog
    maps = (names, aliases, phrases)
    root = tmp_path_factory.mktemp("graph")
    catalog_lines = [f"E\t{eid}\t{name}\t{'|'.join(aliases.get(eid, ()))}"
                     for eid, name in names.items()]
    # the domain and range type fields are read past, whatever they hold
    catalog_lines += [f"R\t{rid}\t{phrase}\t{data.draw(field_text)}\t{data.draw(field_text)}"
                      for rid, phrase in phrases.items()]
    triple_lines = [f"{s}\t{r}\t{o}" for s, r, o in triples]
    write_lines(root / "catalog.tsv", [line + "\n" for line in catalog_lines])
    write_lines(root / "triples.tsv", [line + "\n" for line in triple_lines])
    with open(root / "catalog.tsv", encoding="utf-8") as fh:
        assert kgraph._parse_catalog(fh) == maps
    kg = load_files(root, "triples.tsv")
    assert_matches_oracle(kg, triples, maps)

    # The same graph from files with skipped lines and CRLF endings scattered
    # through both, whether the reader keeps a line's CR (newline="") or not.
    newline = data.draw(st.sampled_from([None, ""]))
    dirty_catalog = scattered(data.draw, catalog_lines)
    write_lines(root / "catalog.tsv", dirty_catalog)
    dirty = scattered(data.draw, triple_lines)
    write_lines(root / "dirty.tsv", dirty)
    with open(root / "catalog.tsv", encoding="utf-8", newline=newline) as fh:
        assert kgraph._parse_catalog(fh) == maps
    dirty_kg = load_files(root, "dirty.tsv", newline)
    assert ({e: (dict(dirty_kg.outgoing(e)), dict(dirty_kg.incoming(e))) for e in names}
            == {e: (dict(kg.outgoing(e)), dict(kg.incoming(e))) for e in names})
    assert dirty_kg.names == kg.names and dirty_kg._alias_index == kg._alias_index
    assert_matches_oracle(dirty_kg, triples, maps)

    # One bad line among them: its error names its own line of the file.
    s, r, o = next(iter(triples), (next(iter(names)), next(iter(phrases)), next(iter(names))))
    line, error = data.draw(st.sampled_from([
        (f"{s}\t{r}", GraphParseError),
        (f"{s}\t{r}\t{o}\t{o}", GraphParseError),
        (f"nope-{s}\t{r}\t{o}", ReferentialError),
        (f"{s}\tnope-{r}\t{o}", ReferentialError),
        (f"{s}\t{r}\tnope-{o}", ReferentialError),
    ]))
    dirty.insert(data.draw(st.integers(0, len(dirty))), line + data.draw(st.sampled_from(["\n", "\r\n"])))
    write_lines(root / "bad.tsv", dirty)
    with open(root / "bad.tsv", encoding="utf-8", newline="") as fh:
        (number,) = [n for n, text in enumerate(fh, start=1) if text.rstrip("\r\n") == line]
    with pytest.raises(error) as exc:
        load_files(root, "bad.tsv", newline)
    assert str(exc.value).startswith(f"line {number}: ")
    if error is GraphParseError:
        assert exc.value.line_number == number

    # And one bad catalog line: a record led by whitespace, an unknown kind or
    # a wrong field count.
    record = data.draw(st.sampled_from(catalog_lines))
    kind = record[0]
    line = data.draw(st.sampled_from([
        data.draw(st.sampled_from([" ", "\t", "\u3000"])) + record,
        "X" + record[1:], kind.lower() + record[1:],
        record.rsplit("\t", 1)[0], record + "\t",
    ]))
    fields = line.split("\t")
    message = (f"unknown record kind {fields[0]!r}" if fields[0] != kind else
               f"line needs {4 if kind == 'E' else 5} tab-separated fields, got {len(fields)}")
    dirty_catalog.insert(data.draw(st.integers(0, len(dirty_catalog))),
                         line + data.draw(st.sampled_from(["\n", "\r\n"])))
    write_lines(root / "catalog.tsv", dirty_catalog)
    with open(root / "catalog.tsv", encoding="utf-8", newline="") as fh:
        (number,) = [n for n, text in enumerate(fh, start=1) if text.rstrip("\r\n") == line]
    with pytest.raises(GraphParseError) as exc:
        load_files(root, "dirty.tsv", newline)
    assert exc.value.line_number == number
    assert str(exc.value).startswith(f"line {number}: ") and str(exc.value).endswith(message)
