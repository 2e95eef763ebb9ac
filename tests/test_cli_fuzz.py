"""CLI fuzz gate: bad flags and bad files end in exit status 1 with one
``error:`` line on stderr, or in argparse's usage exit 2.  Nothing else
escapes ``cli.main``, and a run that exits 0 prints no ``nan``/``inf``.

The cases run in-process on the toy corpus with ``--epochs 1`` and
``--folds 2``.  The last occurrence of a repeated flag wins, so each case
appends its flag to a valid command line.
"""

import re

import pytest

from tensorparse import cli

NUMERIC_FLAGS = {
    "train": ["--max-candidates", "--max-span", "--epochs", "--lr", "--l2", "--seed",
              "--neg-cap"],
    "eval": ["--max-candidates", "--max-span"],
    "predict": ["--max-candidates", "--max-span"],
    "inspect": ["--top-k"],
    "cv": ["--folds", "--max-candidates", "--max-span", "--epochs", "--lr", "--l2",
           "--seed", "--neg-cap"],
    "gen-toy": ["--seed"],
}

FILE_FLAGS = {
    "train": ["--kg", "--catalog", "--data"],
    "eval": ["--kg", "--catalog", "--data", "--model"],
    "predict": ["--kg", "--catalog", "--model"],
    "inspect": ["--model"],
    "cv": ["--kg", "--catalog", "--data"],
}

BAD_FILES = ["non-utf8", "truncated-header", "directory"]

HUGE = "9" * 20


def _cases():
    cases = []
    for command, flags in NUMERIC_FLAGS.items():
        for flag in flags:
            values = ["0", "-1"]
            if flag in ("--lr", "--l2"):
                values += ["nan", "inf", "1e308"]
            if flag != "--epochs":  # training cost grows with the epoch count
                values.append(HUGE)
            cases += [(command, flag, value) for value in values]
    for command, flags in FILE_FLAGS.items():
        for flag in flags:
            kinds = BAD_FILES + (["nan-weight"] if flag == "--model" else [])
            cases += [(command, flag, kind) for kind in kinds]
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def corpus(toy_dir, tmp_path_factory):
    """A valid model plus one file (or directory) for each kind of bad file."""
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "toy.model"
    assert cli.main(["train", "--kg", str(toy_dir / "triples.tsv"),
                     "--catalog", str(toy_dir / "catalog.tsv"),
                     "--data", str(toy_dir / "dataset.jsonl"),
                     "--out", str(model), "--epochs", "1"]) == 0
    bad = {"non-utf8": root / "non-utf8", "truncated-header": root / "truncated",
           "directory": root / "directory", "nan-weight": root / "nan.model"}
    bad["non-utf8"].write_bytes(b"\xff\xfe\x00 not utf-8\n")
    bad["truncated-header"].write_text("tensorparse-model v")
    bad["directory"].mkdir()
    bad["nan-weight"].write_text("tensorparse-model v1 0123456789abcdef\np:a|b\tnan\n")
    return model, bad


def _argv(command, toy_dir, model, tmp_path):
    kg = ["--kg", str(toy_dir / "triples.tsv"), "--catalog", str(toy_dir / "catalog.tsv")]
    data = ["--data", str(toy_dir / "dataset.jsonl")]
    return [command] + {
        "train": kg + data + ["--out", str(tmp_path / "m.model"), "--epochs", "1"],
        "eval": kg + data + ["--model", str(model)],
        "predict": kg + ["--model", str(model), "--question", "what currency does brazil use?"],
        "inspect": ["--model", str(model)],
        "cv": kg + data + ["--folds", "2", "--epochs", "1"],
        "gen-toy": ["--out", str(tmp_path / "toy")],
    }[command]


NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@pytest.mark.parametrize("command, flag, value", CASES,
                         ids=[" ".join(case) for case in CASES])
def test_cli_bad_input_is_one_line_error(toy_dir, corpus, tmp_path, capsys,
                                         command, flag, value):
    model, bad = corpus
    argv = _argv(command, toy_dir, model, tmp_path)
    argv += [flag, str(bad[value]) if value in bad else value]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    out, err = capsys.readouterr()
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 0
        assert not NON_FINITE.search(out + err)
