"""CLI fuzz gate: bad flags and bad files end in exit status 1 with one
``error:`` line on stderr, or in argparse's usage exit 2.  Nothing else
escapes ``cli.main``, a run that exits 0 prints no ``nan``/``inf``, and a
file that is not UTF-8 is named in the error.  A catalog id that a logical
form cannot hold, a model key given twice, a model weight that is not an
ASCII decimal literal, and a dataset with no questions must end in exit
status 1, and so must ``train --out`` naming a directory,
with an error that names that path and not a temporary file.  A triple
naming an id missing from the catalog is an error that names its line,
and so is a dataset line nested 100,000 deep or holding an integer past
Python's digit limit, which ``json`` rejects with no ``JSONDecodeError``.
The error echoes an unknown id, or the path of a file that is not UTF-8, that
is not printable as its ``repr``, so it stays one line of printable text.
A v1 model file (it does not say the candidate cap it was trained with)
and a model key that no score reads end in exit status 1, and so does a
``predict`` whose linked entities have no facts, so no candidate.  A flag
that was removed (``--max-span``, ``--neg-cap``, and ``--max-candidates``
on the commands that take the cap from the model) is a usage error, exit
status 2.

The cases run in-process on the toy corpus with ``--epochs 1`` and
``--folds 2``.  The last occurrence of a repeated flag wins, so each case
appends its flag to a valid command line.
"""

import os
import re

import pytest

from tensorparse import cli

NUMERIC_FLAGS = {
    "train": ["--max-candidates", "--epochs", "--lr", "--l2", "--seed"],
    "inspect": ["--top-k"],
    "cv": ["--folds", "--max-candidates", "--epochs", "--lr", "--l2", "--seed"],
    "gen-toy": ["--seed"],
}

# linking reaches the catalog's longest alias, eval and predict generate
# under the cap that the model records, and training keeps every candidate
REMOVED_FLAGS = {
    "train": ["--max-span", "--neg-cap"],
    "eval": ["--max-candidates", "--max-span"],
    "predict": ["--max-candidates", "--max-span"],
    "cv": ["--max-span", "--neg-cap"],
}

FILE_FLAGS = {
    "train": ["--kg", "--catalog", "--data"],
    "eval": ["--kg", "--catalog", "--data", "--model"],
    "predict": ["--kg", "--catalog", "--model"],
    "inspect": ["--model"],
    "cv": ["--kg", "--catalog", "--data"],
}

BAD_FILES = ["non-utf8", "truncated-header", "directory"]

# files that would otherwise load: each must end in exit status 1 with this in
# its error line
MUST_FAIL = {"duplicate-key": "duplicate key", "forbidden-id": "must be non-empty",
             "underscore-weight": "error: line 2: bad weight '1_0'\n",
             "v1-model": "error: unsupported model version 1,",
             "foreign-key": "unknown feature key 'lf:other'\n",
             "blank-lines": "error: ",
             "unknown-id": "error: line 2: unknown relation id: currencyx\n",
             "deep-json": "error: line 1: invalid JSON (",
             "long-int": "error: line 1: invalid JSON ("}

HUGE = "9" * 20


def _cases():
    cases = []
    for command, flags in (*NUMERIC_FLAGS.items(), *REMOVED_FLAGS.items()):
        for flag in flags:
            values = ["0", "-1"]
            if flag in ("--lr", "--l2"):
                values += ["nan", "inf", "1e308"]
            if flag != "--epochs":  # training cost grows with the epoch count
                values.append(HUGE)
            cases += [(command, flag, value) for value in values]
    for command, flags in FILE_FLAGS.items():
        for flag in flags:
            kinds = BAD_FILES + {"--model": ["nan-weight", "duplicate-key",
                                             "underscore-weight", "v1-model", "foreign-key"],
                                 "--kg": ["unknown-id"],
                                 "--catalog": ["forbidden-id"],
                                 "--data": ["blank-lines", "deep-json", "long-int"]}.get(flag, [])
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
           "directory": root / "directory", "nan-weight": root / "nan.model",
           "duplicate-key": root / "duplicate.model",
           "underscore-weight": root / "underscore.model", "v1-model": root / "v1.model",
           "foreign-key": root / "foreign.model", "forbidden-id": root / "catalog.tsv",
           "blank-lines": root / "blank.jsonl", "unknown-id": root / "triples.tsv",
           "deep-json": root / "deep.jsonl", "long-int": root / "long-int.jsonl"}
    bad["non-utf8"].write_bytes(b"\xff\xfe\x00 not utf-8\n")
    bad["truncated-header"].write_text("tensorparse-model v")
    bad["directory"].mkdir()
    bad["nan-weight"].write_text("tensorparse-model v2 max_candidates=200\np:a|b\tnan\n")
    bad["underscore-weight"].write_text("tensorparse-model v2 max_candidates=200\np:a|b\t1_0\n")
    lines = model.read_text().splitlines(keepends=True)
    bad["duplicate-key"].write_text("".join(lines + lines[1:2]))
    bad["v1-model"].write_text("".join(["tensorparse-model v1 e7c395ea56a2f041\n"] + lines[1:]))
    bad["foreign-key"].write_text("".join(lines + ["lf:other\t0.5\n"]))
    catalog = (toy_dir / "catalog.tsv").read_text()
    bad["forbidden-id"].write_text(catalog + "E\tpeso, ent(x)\tPeso\t\n")
    bad["blank-lines"].write_text("\n  \n\t\n")
    bad["unknown-id"].write_text("brazil\tcurrency\tbrazilian_real\n"
                                 "brazil\tcurrencyx\tbrazilian_real\n")
    bad["deep-json"].write_text("[" * 100_000 + "]" * 100_000 + "\n")
    bad["long-int"].write_text('{"question": "q?", "answers": ["a"], "n": ' + "9" * 5001 + "}\n")
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
        assert exc.code == 2 and value not in MUST_FAIL
        return
    assert flag not in REMOVED_FLAGS.get(command, ())
    out, err = capsys.readouterr()
    if value in MUST_FAIL:
        assert code == 1 and MUST_FAIL[value] in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        if value == "non-utf8":
            assert f"error: {bad[value]}: not UTF-8 (" in err
    else:
        assert code == 0
        assert not NON_FINITE.search(out + err)


# Line breaks that str.splitlines() splits on but a file's lines do not, and
# ESC, which starts a terminal control sequence.
UNPRINTABLE = {"U+2028": "\u2028", "U+0085": "\x85", "VT": "\x0b", "FS": "\x1c",
               "ESC": "\x1b"}


@pytest.mark.parametrize("field", [0, 1], ids=["subject", "relation"])
@pytest.mark.parametrize("char", UNPRINTABLE.values(), ids=UNPRINTABLE.keys())
def test_unknown_unprintable_triple_id_is_one_error_line(toy_dir, tmp_path, capsys,
                                                         field, char):
    fields = ["brazil", "currency", "brazilian_real"]
    fields[field] = fields[field][:3] + char + fields[field][3:]
    triples = tmp_path / "triples.tsv"
    triples.write_text("brazil\tcurrency\tbrazilian_real\n" + "\t".join(fields) + "\n",
                       encoding="utf-8")
    argv = _argv("train", toy_dir, None, tmp_path) + ["--kg", str(triples)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: line 2: unknown ")
    assert err.endswith("\n") and err[:-1].isprintable()
    assert repr(fields[field]) in err


PATH_FLAGS = [("inspect", "--model"), ("eval", "--model"), ("predict", "--model"),
              ("train", "--kg"), ("train", "--catalog"), ("train", "--data")]


@pytest.mark.parametrize("command, flag", PATH_FLAGS, ids=[" ".join(f) for f in PATH_FLAGS])
@pytest.mark.parametrize("char", ["\u2028", "\x1b"], ids=["U+2028", "ESC"])
def test_unprintable_path_of_a_non_utf8_file_is_one_error_line(toy_dir, corpus, tmp_path,
                                                               capsys, command, flag, char):
    model, _ = corpus
    path = tmp_path / f"bad{char}name"
    path.write_bytes(b"\xff\xfe")
    argv = _argv(command, toy_dir, model, tmp_path) + [flag, str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err == f"error: {str(path)!r}: not UTF-8 (invalid start byte)\n"


def test_train_into_a_directory_names_the_path(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy"
    out.mkdir()
    argv = _argv("train", toy_dir, None, tmp_path) + ["--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip("\n").endswith(f"'{out}'") and ".tmp" not in err
    assert os.listdir(tmp_path) == ["toy"] and os.listdir(out) == []


def test_predict_with_no_candidate_is_an_error(toy_dir, corpus, tmp_path, capsys):
    # Atlantis links but is in no triple, so no form denotes anything
    model, _ = corpus
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text((toy_dir / "catalog.tsv").read_text() + "E\tatlantis\tAtlantis\t\n")
    argv = ["predict", "--kg", str(toy_dir / "triples.tsv"), "--catalog", str(catalog),
            "--model", str(model), "--question", "what currency does atlantis use?"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no candidate logical forms for this question\n"
