"""Golden gate: the toy seed-0 model file and eval report are pinned.

A refactor that is meant to leave the model unchanged must keep both
hashes.  A change that alters them on purpose states the behaviour change
and updates the hashes with it.
"""

import hashlib

from tensorparse import cli

MODEL_SHA256 = "0fa05e04248a893ba8eebb9794e02557e9560ff55bb803e7458d2ac6cf1ccdde"
REPORT_SHA256 = "cd68e5557e5f1476bc265e27c5f63b0b7f7a220995aebcb628e3af670d8dc97e"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_toy_model_and_report_are_byte_identical(tmp_path):
    corpus = ["--kg", str(tmp_path / "triples.tsv"),
              "--catalog", str(tmp_path / "catalog.tsv"),
              "--data", str(tmp_path / "dataset.jsonl")]
    model, report = tmp_path / "toy.model", tmp_path / "report.txt"
    assert cli.main(["gen-toy", "--out", str(tmp_path), "--seed", "0"]) == 0
    assert cli.main(["train", *corpus, "--out", str(model), "--seed", "42"]) == 0
    assert cli.main(["eval", *corpus, "--model", str(model), "--report", str(report)]) == 0
    assert sha256(model) == MODEL_SHA256
    assert sha256(report) == REPORT_SHA256
