import json

from tensorparse import evaluator, kgraph, learner, toy
from tensorparse.dataset import load_dataset
from tensorparse.logform import GenConfig


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    toy.gen_toy(a, seed=5)
    toy.gen_toy(b, seed=5)
    for name in (toy.TRIPLES_FILE, toy.CATALOG_FILE, toy.DATASET_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_changes_dataset(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    toy.gen_toy(a, seed=1)
    toy.gen_toy(b, seed=2)
    assert (a / toy.DATASET_FILE).read_text() != (b / toy.DATASET_FILE).read_text()


def test_dataset_parses_and_is_big_enough(toy_dir, toy_data, toy_kg):
    assert len(toy_data) >= 200
    countries = [
        e for e in toy_kg.display_names
        if dict(toy_kg.outgoing(e)).get("currency")
    ]
    assert len(countries) >= 20
    for rel in ("currency", "capital", "adjoins"):
        assert rel in toy_kg.phrase_tokens


def test_dataset_lines_are_valid_json(toy_dir):
    for line in (toy_dir / toy.DATASET_FILE).read_text().splitlines():
        obj = json.loads(line)
        assert obj["question"]
        assert obj["answers"]


def test_corpus_oracle_is_perfect(toy_kg, toy_data):
    zero = learner.Model(weights={})
    report = evaluator.evaluate(zero, toy_data, toy_kg, GenConfig())
    assert report.oracle_f1 == 1.0
    for row in report.per_query:
        assert row.oracle_f1 == 1.0
        assert row.candidate_count > 0


def test_graph_loads_cleanly(tmp_path):
    paths = toy.gen_toy(tmp_path, seed=3)
    with open(paths["triples"]) as t, open(paths["catalog"]) as c:
        kg = kgraph.load_graph(t, c)
    assert kg.triples
    with open(paths["dataset"]) as fh:
        assert load_dataset(fh)
