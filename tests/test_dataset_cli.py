import io

import pytest

from tensorparse import cli
from tensorparse.dataset import DatasetError, load_dataset


def load(text):
    return load_dataset(io.StringIO(text))


def test_load_dataset_basic():
    examples = load('{"question":"what currency does brazil use?","answers":["Brazilian real"]}\n')
    assert len(examples) == 1
    assert examples[0].question == "what currency does brazil use?"
    assert examples[0].answers == ("Brazilian real",)
    assert examples[0].line_number == 1


def test_load_dataset_skips_blank_lines():
    examples = load('\n{"question":"q?","answers":["a"]}\n\n')
    assert len(examples) == 1
    assert examples[0].line_number == 2


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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-toy then train once; later commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-toy", "--out", str(root), "--seed", "0"]) == 0
    model = root / "toy.model"
    rc = cli.main([
        "train",
        "--kg", str(root / "triples.tsv"),
        "--catalog", str(root / "catalog.tsv"),
        "--data", str(root / "dataset.jsonl"),
        "--out", str(model),
        "--epochs", "5",
        "--seed", "42",
    ])
    assert rc == 0
    assert model.exists()
    return root


def test_cli_eval(workspace, capsys):
    report = workspace / "report.txt"
    rc = cli.main([
        "eval",
        "--kg", str(workspace / "triples.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--data", str(workspace / "dataset.jsonl"),
        "--model", str(workspace / "toy.model"),
        "--report", str(report),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("averageF1=")
    lines = report.read_text().splitlines()
    assert lines[0].startswith("averageF1=")
    assert len(lines) == 1 + 210


def test_cli_predict(workspace, capsys):
    rc = cli.main([
        "predict",
        "--kg", str(workspace / "triples.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--model", str(workspace / "toy.model"),
        "--question", "what currency does brazil use?",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "join(currency, ent(brazil))"
    assert lines[1] == "the currency of brazil"
    assert lines[2] == "Brazilian real"


def test_cli_predict_no_candidates(workspace, capsys):
    rc = cli.main([
        "predict",
        "--kg", str(workspace / "triples.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--model", str(workspace / "toy.model"),
        "--question", "hello hello hello",
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_inspect(workspace, capsys):
    rc = cli.main(["inspect", "--model", str(workspace / "toy.model"), "--top-k", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        key, weight = line.split("\t")
        float(weight)
        assert key.startswith(("p:", "lf:"))


def test_cli_cv(workspace, capsys):
    rc = cli.main([
        "cv",
        "--kg", str(workspace / "triples.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--data", str(workspace / "dataset.jsonl"),
        "--folds", "2",
        "--order", "random",
        "--epochs", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fold 0:" in out
    assert "mean averageF1=" in out


def test_cli_missing_file_is_domain_error(workspace, capsys):
    rc = cli.main([
        "eval",
        "--kg", str(workspace / "no-such-file.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--data", str(workspace / "dataset.jsonl"),
        "--model", str(workspace / "toy.model"),
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect", "--model", "m", "--bogus"])
    assert exc.value.code == 2


def test_cli_train_deterministic(workspace, tmp_path):
    out_a = tmp_path / "a.model"
    out_b = tmp_path / "b.model"
    argv = [
        "train",
        "--kg", str(workspace / "triples.tsv"),
        "--catalog", str(workspace / "catalog.tsv"),
        "--data", str(workspace / "dataset.jsonl"),
        "--epochs", "3",
        "--seed", "7",
    ]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("flag", [["--max-span", "0"], ["--max-candidates", "0"]],
                         ids=["max-span", "max-candidates"])
@pytest.mark.parametrize("command", ["train", "eval", "predict", "cv"])
def test_cli_bad_gen_config_is_one_line_error(workspace, tmp_path, capsys, command, flag):
    argv = [command,
            "--kg", str(workspace / "triples.tsv"),
            "--catalog", str(workspace / "catalog.tsv")]
    if command != "predict":
        argv += ["--data", str(workspace / "dataset.jsonl")]
    argv += {
        "train": ["--out", str(tmp_path / "m.model")],
        "eval": ["--model", str(workspace / "toy.model")],
        "predict": ["--model", str(workspace / "toy.model"),
                    "--question", "what currency does brazil use?"],
        "cv": [],
    }[command]
    assert cli.main(argv + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
