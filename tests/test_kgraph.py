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
from tensorparse import kgraph
from tensorparse.kgraph import (
    GraphParseError,
    KnowledgeGraph,
    ReferentialError,
    Triple,
    denotation,
    load_graph,
)
from tensorparse.logform import EntityLit, Intersect, Join, ReverseJoin

from conftest import MINI_CATALOG, graph_from_strings


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
    with pytest.raises(ReferentialError, match="atlantis"):
        graph_from_strings("atlantis\tcurrency\tbrazilian_real\n", MINI_CATALOG)


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
# serialize like a different form, and generation deduplicates by text.
BAD_IDS = ["a, ent(b)), join(c", "b)), join(c, ent(d", "a(b", "a)b", "a,b", "a b",
           "\u00a0a", "a\u3000", "a\x0bb", ""]


@pytest.mark.parametrize("bad_id", BAD_IDS)
@pytest.mark.parametrize("kind, template", [("entity", "E\t{}\tname\t"),
                                            ("relation", "R\t{}\tphrase\tT\tT")])
def test_catalog_rejects_ids_a_form_cannot_hold(kind, template, bad_id):
    catalog = "E\tbrazil\tBrazil\t\n" + template.format(bad_id) + "\n"
    with pytest.raises(GraphParseError) as exc:
        graph_from_strings("", catalog)
    assert exc.value.line_number == 2
    assert f"{kind} id {bad_id!r} must be" in str(exc.value)


def test_index_inversion_exhaustive(mini_kg):
    for s, r, o in mini_kg.triples:
        assert o in mini_kg.forward(s, r)
        assert s in mini_kg.backward(o, r)
    # nothing else is in either index
    forward_facts = {
        (s, r, o)
        for (s, r), objs in mini_kg._forward.items()
        for o in objs
    }
    backward_facts = {
        (s, r, o)
        for (o, r), subjs in mini_kg._backward.items()
        for s in subjs
    }
    assert forward_facts == set(mini_kg.triples) == backward_facts


def test_entities_by_alias(mini_kg):
    assert [e.id for e in mini_kg.entities_by_alias(["brazil"])] == ["brazil"]
    assert [e.id for e in mini_kg.entities_by_alias(["Brazil"])] == ["brazil"]
    assert [e.id for e in mini_kg.entities_by_alias(["dominican", "republic"])] == [
        "dominican_republic"
    ]
    assert mini_kg.entities_by_alias(["xyzzy"]) == ()


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
        Triple(
            f"e{rng.randrange(n_ents)}",
            rng.choice(("r0", "r1")),
            f"e{rng.randrange(n_ents)}",
        )
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


@pytest.mark.parametrize("first", ["logform", "kgraph"])
def test_denotation_after_either_import_order(first):
    # kgraph and logform import each other; either may be imported first.
    code = (
        f"import tensorparse.{first}\n"
        "from tensorparse.kgraph import Entity, KnowledgeGraph, Relation, Triple, denotation\n"
        "from tensorparse.logform import EntityLit, Join\n"
        "kg = KnowledgeGraph({e: Entity(e, e, (e,)) for e in 'ab'}, {'r': Relation('r', 'r')},"
        " [Triple('a', 'r', 'b')])\n"
        "print(sorted(denotation(Join('r', EntityLit('a')), kg)))\n"
    )
    src = str(Path(tensorparse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['b']\n"


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
        rid: kgraph.Relation(rid, draw(field_text.filter(bool)), draw(field_text),
                             draw(field_text))
        for rid in draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    }
    triples = draw(st.lists(st.builds(Triple, st.sampled_from(sorted(entities)),
                                      st.sampled_from(sorted(relations)),
                                      st.sampled_from(sorted(entities))), max_size=12))
    return entities, relations, triples


@settings(max_examples=100, deadline=None)
@given(catalogs())
def test_load_graph_round_trip(tmp_path_factory, catalog):
    entities, relations, triples = catalog
    root = tmp_path_factory.mktemp("graph")
    with open(root / "catalog.tsv", "w", encoding="utf-8") as fh:
        for e in entities.values():
            fh.write(f"E\t{e.id}\t{e.name}\t{'|'.join(e.aliases)}\n")
        for r in relations.values():
            fh.write(f"R\t{r.id}\t{r.phrase}\t{r.domain_type}\t{r.range_type}\n")
    with open(root / "triples.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{r}\t{o}\n" for s, r, o in triples)
    with open(root / "triples.tsv", encoding="utf-8") as t, open(
        root / "catalog.tsv", encoding="utf-8"
    ) as c:
        kg = load_graph(t, c)
    assert kg.entities == entities
    assert kg.relations == relations
    assert kg.triples == frozenset(triples)
