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

MODEL_SHA256 = "2acecf90c48e8cf04f417616e28fcfb152a70e9747836ed7797b64b1a3172bc3"
MODEL_HEADER = b"tensorparse-model v2 max_candidates=200\n"
# the weight lines: no lf:denot.empty line, as every generated form denotes
# something
MODEL_BODY_SHA256 = "db600ac2793077e1b9e28721722ff3070f5981961e3d11be7666623c81813848"
REPORT_SHA256 = "28335353d2c637f7f8bb1ab2d0828d7c037ba9ae049f040aad3e6d9ca9aab43c"
TRAIN_STDOUT = "final training loss = 0.028452\n"
CV_STDOUT_SHA256 = {
    "random": "fbf02c9800ccfe808e825b3ef4e6fa43161be7434ba77af7030c78fd4c79619f",
    "alphabetical": "e7e7aeaef1b381f6b9783ba2a6022aba6b9cd834f07adbeb756a8d8fe6994c04",
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
