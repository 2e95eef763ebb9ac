"""Golden gate: the toy seed-0 model file, eval report, final training loss
and cross-validation output are pinned.

A refactor that is meant to leave the model unchanged must keep every pin.
A change that alters them on purpose states the behaviour change and
updates the pins with it.  The model's header line and its body (the
weight lines) are also pinned apart, so a header change shows that the
weights did not move.
"""

import hashlib

import pytest

from tensorparse import cli

MODEL_SHA256 = "e4f66fb912c65b1136d904eb74b34f174f5bf0c0a69d38e68cb3e25f6758c230"
MODEL_HEADER = b"tensorparse-model v2 max_candidates=200\n"
# the weight lines, unchanged since the v1 format
MODEL_BODY_SHA256 = "9ca5630c7a3ed0d1c8adbcbb3b53db111ccc90c4b08998adb786ef060e7a4541"
REPORT_SHA256 = "cd68e5557e5f1476bc265e27c5f63b0b7f7a220995aebcb628e3af670d8dc97e"
TRAIN_STDOUT = "final training loss = 0.023935\n"
CV_STDOUT_SHA256 = {
    "random": "fbf02c9800ccfe808e825b3ef4e6fa43161be7434ba77af7030c78fd4c79619f",
    "alphabetical": "2c88d236228189c973783ced54d8366b12dcdad15ddee63f38245fcac7de72f0",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert cli.main(["gen-toy", "--out", str(root), "--seed", "0"]) == 0
    return root, ["--kg", str(root / "triples.tsv"), "--catalog", str(root / "catalog.tsv"),
                  "--data", str(root / "dataset.jsonl")]


def test_toy_model_and_report_are_byte_identical(corpus, capsys):
    root, args = corpus
    model, report = root / "toy.model", root / "report.txt"
    assert cli.main(["train", *args, "--out", str(model), "--seed", "42"]) == 0
    assert capsys.readouterr().out == TRAIN_STDOUT
    assert cli.main(["eval", *args, "--model", str(model), "--report", str(report)]) == 0
    header, body = model.read_bytes().split(b"\n", 1)
    assert header + b"\n" == MODEL_HEADER
    assert sha256(body) == MODEL_BODY_SHA256
    assert sha256(model.read_bytes()) == MODEL_SHA256
    assert sha256(report.read_bytes()) == REPORT_SHA256


@pytest.mark.parametrize("order", sorted(CV_STDOUT_SHA256))
def test_toy_cv_output_is_byte_identical(corpus, capsys, order):
    _, args = corpus
    assert cli.main(["cv", *args, "--order", order]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == CV_STDOUT_SHA256[order]
