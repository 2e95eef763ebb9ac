import io
import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorparse import cli, evaluator, features, kgraph, learner, logform, toy
from tensorparse.dataset import DatasetError, DatasetExample, load_dataset

import oracle
from conftest import run_cli
from test_cli_fuzz import mutations


def load(text):
    return load_dataset(io.StringIO(text))


def test_load_dataset_basic():
    examples = load('{"question":"what currency does brazil use?","answers":["Brazilian real"]}\n')
    assert len(examples) == 1
    assert examples[0].question == "what currency does brazil use?"
    assert examples[0].answers == ("Brazilian real",)


def test_load_dataset_skips_blank_lines():
    examples = load('\n{"question":"q?","answers":["a"]}\n\n')
    assert len(examples) == 1


@pytest.mark.parametrize(
    "line",
    [
        '{"question":"x"}',
        '{"question":"x","answers":[]}',
        '{"question":"","answers":["a"]}',
        '{"question":"x","answers":[1]}',
        '{"answers":["a"]}',
        "not json",
        "[1,2]",
    ],
)
def test_load_dataset_errors(line):
    with pytest.raises(DatasetError) as exc:
        load('{"question":"ok?","answers":["a"]}\n' + line + "\n")
    assert exc.value.line_number == 2


def test_load_dataset_preserves_order():
    examples = load(
        '{"question":"b?","answers":["1"]}\n{"question":"a?","answers":["2"]}\n'
    )
    assert [ex.question for ex in examples] == ["b?", "a?"]


# The toy dataset's lines, as gen_toy writes them.
TOY_LINES = [json.dumps(ex, sort_keys=True) for ex in toy.build_examples(0)]

# Lines around the document lines: blank, whitespace (and U+200B, which
# str.strip keeps), a BOM before a line, and text after its object.
WHITESPACE = " \t\x0b\x0c\x1c\x85\u00a0\u2028\u3000"
space = st.text(WHITESPACE, max_size=3)
dataset_lines = st.one_of(
    st.sampled_from(TOY_LINES),
    st.builds("{}{}{}".format, space, st.sampled_from(TOY_LINES), space),
    st.text(WHITESPACE + "\u200b", max_size=3),
    st.builds("{}\ufeff{}".format, space, st.sampled_from(["", *TOY_LINES[:3]])),
    st.builds("{}{}{}".format, st.sampled_from(TOY_LINES), space,
              st.sampled_from(["x", "}", "]", "{}", "0", '"a"', ",", "\ufeff", "\u200b"])),
)
dataset_files = st.one_of(
    mutations("".join(line + "\n" for line in TOY_LINES)),
    st.builds(str.join, st.sampled_from(["\n", "\r\n"]),
              st.lists(dataset_lines, min_size=1, max_size=8)),
)


@settings(max_examples=200, deadline=None)
@given(dataset_files)
@example("[" * 100_000 + "]" * 100_000 + "\n")  # nested past the recursion limit
@example('{"question": "q?", "answers": ["a", ' + "9" * 5_000 + "]}\n")  # past the digit limit
@example(TOY_LINES[0] + "\n\ufeff" + TOY_LINES[1] + "\n")
@example(TOY_LINES[0] + "\n" + TOY_LINES[1] + " {}\n")
# a non-string answer first, last or alone
@example(TOY_LINES[0] + '\n{"question": "q?", "answers": [1, "a"]}\n')
@example(TOY_LINES[0] + '\n{"question": "q?", "answers": ["a", null]}\n')
@example(TOY_LINES[0] + '\n{"question": "q?", "answers": [["a"]]}\n')
def test_load_dataset_matches_the_oracle(text):
    """The examples of the oracle's ``json.loads`` loop, equal and
    hash-equal to records built by keyword, or its first error with the
    same message and line number."""
    lines = list(io.StringIO(text, newline=None))  # split as open() splits a text file
    pairs, error = oracle.read_dataset(lines)
    if error is None:
        examples = load_dataset(lines)
        expected = [DatasetExample(question=q, answers=a) for q, a in pairs]
        assert examples == expected
        assert list(map(hash, examples)) == list(map(hash, expected))
        return
    message, number = error
    with pytest.raises(DatasetError) as exc:
        load_dataset(lines)
    assert (str(exc.value), exc.value.line_number) == (f"line {number}: {message}", number)


def test_cli_eval(toy_cli, tmp_path, capsys):
    report = tmp_path / "report.txt"
    rc = cli.main(["eval", *toy_cli.kg, *toy_cli.data, "--model", str(toy_cli.model),
                   "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("averageF1=")
    lines = report.read_text().splitlines()
    assert lines[0].startswith("averageF1=")
    assert len(lines) == 1 + 210


def test_cli_eval_report_keeps_one_row_per_question(toy_cli, tmp_path):
    data = tmp_path / "odd.jsonl"
    data.write_text(
        '{"question": "what currency\\tdoes brazil\\nuse?", "answers": ["Brazilian real"]}\n'
        '{"question": "back\\\\slash\\r\\nwhat borders kenya?", "answers": ["Ethiopia"]}\n'
        # a lone surrogate, written as the text \ud800
        '{"question": "what currency does brazil use? \\ud800", "answers": ["Brazilian real"]}\n',
        encoding="utf-8",
    )
    report = tmp_path / "report.txt"
    rc = cli.main(["eval", *toy_cli.kg, "--data", str(data), "--model", str(toy_cli.model),
                   "--report", str(report)])
    assert rc == 0
    lines = report.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == ""
    rows = [line.split("\t") for line in lines[1:-1]]
    assert [len(fields) for fields in rows] == [6, 6, 6]
    assert [fields[1] for fields in rows] == [
        r"what currency\tdoes brazil\nuse?", r"back\\slash\r\nwhat borders kenya?",
        r"what currency does brazil use? \ud800",
    ]


# the tokenizer lowercases, then drops every character outside [a-z0-9]
@pytest.mark.parametrize("question", ["what currency does brazil use?",
                                      "WHAT currency does Brazil use?!",
                                      "what currency does brazil use¿"],
                         ids=["plain", "capitals", "inverted-mark"])
def test_cli_predict(toy_cli, capsys, question):
    rc = cli.main(["predict", *toy_cli.kg, "--model", str(toy_cli.model),
                   "--question", question])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "join(currency, ent(brazil))", "the currency of brazil", "Brazilian real"]


def test_cli_predict_links_a_four_token_alias(toy_cli, tmp_path, capsys):
    # "fenwick" alone names nothing: only the whole four-token name links
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text((toy_cli.dir / "catalog.tsv").read_text()
                       + "E\tfenwick\tGrand Duchy of Fenwick\t\n"
                       + "E\tfenwick_pound\tFenwick pound\t\n")
    triples = tmp_path / "triples.tsv"
    triples.write_text((toy_cli.dir / "triples.tsv").read_text()
                       + "fenwick\tcurrency\tfenwick_pound\n")
    rc = cli.main([
        "predict",
        "--kg", str(triples),
        "--catalog", str(catalog),
        "--model", str(toy_cli.model),
        "--question", "what currency does the grand duchy of fenwick use?",
    ])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "join(currency, ent(fenwick))", "the currency of grand duchy of fenwick", "Fenwick pound"]


def test_cli_predict_prints_display_names_in_display_text_order(toy_cli, tmp_path, capsys):
    # by id m1, m2 would print alpha first, and so would the normalized names
    # alpha, zeta; by display text "Zeta" sorts before "alpha"
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("E\tm1\talpha\t\nE\tm2\tZeta\t\nE\thub\tHub\t\nR\tpart\tpart\tx\tx\n")
    triples = tmp_path / "triples.tsv"
    triples.write_text("m1\tpart\thub\nm2\tpart\thub\n")
    rc = cli.main([
        "predict",
        "--kg", str(triples),
        "--catalog", str(catalog),
        "--model", str(toy_cli.model),
        "--question", "what is part of the hub?",
    ])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "rev(part, ent(hub))", "the things whose part is hub", "Zeta", "alpha"]


def test_cli_train_with_no_positive_writes_the_zero_model(toy_cli, tmp_path, capsys):
    # no candidate answers Atlantis; with the zero model the four Brazil
    # candidates all score 0.0, and predict prints the earliest, the smallest form
    data = tmp_path / "none.jsonl"
    data.write_text('{"question": "what currency does brazil use?", "answers": ["Atlantis"]}\n')
    model = tmp_path / "zero.model"
    assert cli.main(["train", *toy_cli.kg, "--data", str(data), "--out", str(model)]) == 0
    assert capsys.readouterr() == (
        "final training loss = n/a\n",
        "warning: no query produced a positive candidate; wrote zero model\n")
    assert cli.main(["predict", *toy_cli.kg, "--model", str(model),
                     "--question", "what currency does brazil use?"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "join(adjoins, ent(brazil))", "the adjoins of brazil", "Austria", "Canada"]


def test_cli_eval_generates_under_the_models_cap(toy_cli, tmp_path):
    model, report = tmp_path / "m.model", tmp_path / "report.txt"
    assert cli.main(["train", *toy_cli.kg, *toy_cli.data, "--out", str(model), "--epochs", "1",
                     "--max-candidates", "3"]) == 0
    assert cli.main(["eval", *toy_cli.kg, *toy_cli.data, "--model", str(model),
                     "--report", str(report)]) == 0
    rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
    assert len(rows) == 210 and max(int(fields[5]) for fields in rows) <= 3
    with open(toy_cli.dir / "triples.tsv") as t, open(toy_cli.dir / "catalog.tsv") as c:
        graph = kgraph.load_graph(t, c)
    with open(toy_cli.dir / "dataset.jsonl") as fh:
        examples = load_dataset(fh)
    expected = evaluator.evaluate(learner.load_model(model), examples, graph,
                                  logform.GenConfig(max_candidates=3))
    assert report.read_text() == evaluator.format_report(expected)


def test_cli_predict_no_candidates(toy_cli, capsys):
    rc = cli.main(["predict", *toy_cli.kg, "--model", str(toy_cli.model),
                   "--question", "hello hello hello"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_inspect(toy_cli, capsys):
    rc = cli.main(["inspect", "--model", str(toy_cli.model), "--top-k", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    for line in lines:
        key, weight = line.split("\t")
        assert features.PAIR_KEY.fullmatch(key) or key in features.SIZE_KEYS, line
        assert re.fullmatch(r"-?[0-9]+\.[0-9]{6}", weight), line


def test_cli_cv(toy_cli, capsys):
    rc = cli.main(["cv", *toy_cli.kg, *toy_cli.data, "--folds", "2", "--order", "random",
                   "--epochs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fold 0:" in out
    assert "mean averageF1=" in out


def test_cli_missing_file_is_domain_error(toy_cli, capsys):
    rc = cli.main(["eval", *toy_cli.kg, *toy_cli.data, "--model", str(toy_cli.model),
                   "--kg", str(toy_cli.dir / "no-such-file.tsv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_cli_reads_the_model_before_the_graph(toy_cli, tmp_path, capsys, command):
    # The model file is read before the graph loads, so a bad one is the error
    # shown even when the graph is missing too, and shown without the wait.
    model = tmp_path / "bad.model"
    model.write_text("not a model\n", encoding="utf-8")
    argv = [command, *toy_cli.kg, "--kg", str(tmp_path / "no-such-triples.tsv"),
            "--model", str(model)]
    argv += (toy_cli.data if command == "eval"
             else ["--question", "what currency does brazil use?"])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: bad model header: 'not a model'\n"


def test_cli_predict_rejects_an_empty_question_before_the_graph(toy_cli, capsys):
    rc = cli.main(["predict", *toy_cli.kg, "--kg", str(toy_cli.dir / "no-such-triples.tsv"),
                   "--model", str(toy_cli.model), "--question", "?!"])
    assert rc == 1
    assert capsys.readouterr().err == "error: question has no tokens\n"


def test_cli_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect", "--model", "m", "--bogus"])
    assert exc.value.code == 2


def test_cli_train_deterministic(toy_cli, tmp_path):
    out_a = tmp_path / "a.model"
    out_b = tmp_path / "b.model"
    argv = ["train", *toy_cli.kg, *toy_cli.data, "--epochs", "3", "--seed", "7"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("flag", [["--max-span", "0"], ["--max-candidates", "0"]],
                         ids=["max-span", "max-candidates"])
@pytest.mark.parametrize("command", ["train", "eval", "predict", "cv"])
def test_cli_bad_gen_config_is_one_line_error(toy_cli, tmp_path, capsys, command, flag):
    """A cap below 1 is a one-line error.  ``--max-span`` is gone (linking
    reaches the catalog's longest alias), and ``eval`` and ``predict`` take
    the cap from the model, so those flags are usage errors."""
    argv = [command, *toy_cli.kg]
    if command != "predict":
        argv += toy_cli.data
    argv += {
        "train": ["--out", str(tmp_path / "m.model")],
        "eval": ["--model", str(toy_cli.model)],
        "predict": ["--model", str(toy_cli.model),
                    "--question", "what currency does brazil use?"],
        "cv": [],
    }[command]
    if flag[0] == "--max-span" or command in ("eval", "predict"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + flag)
        assert exc.value.code == 2
        return
    assert cli.main(argv + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_python_m_tensorparse_runs_as_a_process(tmp_path):
    toy = tmp_path / "toy"
    made = run_cli("gen-toy", "--out", str(toy), "--seed", "0")
    assert made.returncode == 0, made.stderr
    assert (toy / "dataset.jsonl").is_file()
    bad = run_cli("train", "--kg", str(toy / "triples.tsv"), "--catalog", str(toy / "catalog.tsv"),
                  "--data", str(toy / "dataset.jsonl"), "--out", str(tmp_path / "m.model"),
                  "--epochs", "0")
    assert bad.returncode == 1
    assert bad.stderr.startswith(b"error: ") and bad.stderr.count(b"\n") == 1
    assert not (tmp_path / "m.model").exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_eval_report_to_dev_stdout_streams_into_a_pipe(toy_cli, tmp_path):
    # the real path of a pipe's /dev/stdout does not exist, so the report is
    # written into the pipe itself, followed by the summary line
    args = ["eval", *toy_cli.kg, *toy_cli.data, "--model", str(toy_cli.model)]
    done = run_cli(*args, "--report", "/dev/stdout")
    assert (done.returncode, done.stderr) == (0, b"")
    report = tmp_path / "report.txt"
    summary = run_cli(*args, "--report", str(report))
    assert summary.returncode == 0, summary.stderr
    assert done.stdout == report.read_bytes() + summary.stdout
    assert summary.stdout.startswith(b"averageF1=") and summary.stdout.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_report_and_model_to_dev_stdout_keep_the_line_printed_after_them(toy_cli, tmp_path):
    # with stdout a regular file, /dev/stdout names that file: replacing it
    # would send the line printed next to the old, unlinked file
    def run(args, out_path):
        with open(out_path, "wb") as out:
            done = run_cli(*args, stdout=out)
        assert (done.returncode, done.stderr) == (0, b"")
        return out_path.read_bytes()

    eval_args = ["eval", *toy_cli.kg, *toy_cli.data, "--model", str(toy_cli.model)]
    report = tmp_path / "report.txt"
    summary = run([*eval_args, "--report", str(report)], tmp_path / "summary.txt")
    assert summary.startswith(b"averageF1=") and summary.count(b"\n") == 1
    assert run([*eval_args, "--report", "/dev/stdout"], tmp_path / "out.txt") == (
        report.read_bytes() + summary)
    train_args = ["train", *toy_cli.kg, *toy_cli.data, "--seed", "42", "--out", "/dev/stdout"]
    assert run(train_args, tmp_path / "m.txt") == (
        toy_cli.model.read_bytes() + toy_cli.train_stdout.encode("utf-8"))


@pytest.mark.parametrize("weights", [1, 2000])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, weights):
    # One line stays in stdout's buffer until the final flush; 2,000 lines
    # overflow it, so the first failed write comes from print itself.
    model = tmp_path / "m.model"
    model.write_text("tensorparse-model v2 max_candidates=200\n"
                     + "".join(f"p:a|t{i}\t1.5\n" for i in range(weights)))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its every write fails
    try:
        done = run_cli("inspect", "--model", str(model), "--top-k", "100000", stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
