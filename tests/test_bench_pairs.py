"""``tools/bench_pairs.py``: the summary of fixed result lists, and runs of
checkouts whose ``pipebench/run.py`` is a stand-in that prints a fixed
result, fails, or prints no result."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "average_f1", "unit": "f1", "better": "higher", "bound": 0.25},
]


def run(**values):
    return {"exit": 0, "result": {"correct": True, "attempted": 5, "failed": 0, "metrics": {
        name: {"value": v, "unit": "x"} for name, v in values.items()}}}


def test_summary_of_fixed_results():
    parent = [run(setup_s=s, average_f1=f) for s, f in
              [(1.0, 0.5), (1.2, 0.5), (1.1, 0.5), (1.3, 0.5), (1.4, 0.5)]]
    change = [run(setup_s=s, average_f1=f) for s, f in
              [(0.8, 0.6), (1.2, 0.5), (0.7, 0.4), (0.75, 0.5), (0.85, 0.7)]]
    summary = bench_pairs.summarize(parent, change, METRICS)

    setup = summary["setup_s"]
    assert setup["parent"] == bench_pairs.aa.spread([1.0, 1.2, 1.1, 1.3, 1.4])
    assert setup["change"] == bench_pairs.aa.spread([0.8, 1.2, 0.7, 0.75, 0.85])
    assert setup["change_better_pairs"] == 4  # the tie in pair 1 counts for neither
    assert setup["pairs"] == 5
    assert setup["change_pct"] == pytest.approx(
        100 * (setup["change"]["median"] - setup["parent"]["median"]) / setup["parent"]["median"])
    assert setup["beyond_parent_iqr"] is True

    f1 = summary["average_f1"]  # higher is better
    assert f1["change_better_pairs"] == 2
    assert f1["change_pct"] == 0.0 and f1["beyond_parent_iqr"] is False
    assert "setup_s" in bench_pairs.format_summary(summary)


def test_a_failed_run_is_kept_and_its_pair_is_not_better():
    failed = {"exit": 1, "result": None, "error": "exit status 1"}
    parent = [run(setup_s=1.0), run(setup_s=1.1), run(setup_s=1.2)]
    change = [run(setup_s=0.5), failed, run(setup_s=0.6)]
    setup = bench_pairs.summarize(parent, change, METRICS[:1])["setup_s"]
    assert setup["change_better_pairs"] == 2 and setup["pairs"] == 3
    assert setup["change"] == bench_pairs.aa.spread([0.5, 0.6])

    setup = bench_pairs.summarize(parent[:2], [failed, failed], METRICS[:1])["setup_s"]
    assert setup["change"] is None and setup["change_pct"] is None
    assert setup["change_better_pairs"] == 0 and setup["pairs"] == 2
    assert "too few values" in bench_pairs.format_summary({"setup_s": setup})
    assert not bench_pairs.run_ok(failed)


def checkout(root: Path, body: str) -> Path:
    (root / "pipebench").mkdir(parents=True)
    (root / "pipebench" / "run.py").write_text(body)
    return root


def fixed(setup_s):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}
    return f"import sys\nprint('# a diagnostic line')\nprint({json.dumps(json.dumps(result))})\n"


def test_pairs_alternate_and_every_run_is_written(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", fixed(2.0))
    change = checkout(tmp_path / "change", fixed(1.0))
    out = tmp_path / "pairs.json"
    rc = bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "toy",
                           "--seeds", "1,3", "--pairs", "2", "--seconds", "1", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    runs = record["runs"]
    assert [(r["seed"], r["pair"], r["side"]) for r in runs] == [
        (seed, pair, side) for seed in (1, 3)
        for pair, sides in enumerate([("parent", "change"), ("change", "parent")])
        for side in sides]
    assert all(r["args"] == ["--workload", "toy", "--seed", str(r["seed"]), "--seconds", "1",
                             "--trace", "0"] for r in runs)
    assert all(r["result"]["metrics"]["setup_s"]["value"] == {"parent": 2.0, "change": 1.0}[
        r["side"]] for r in runs)
    assert all("commit" in r and "dirty" in r for r in runs)
    setup = record["summary"]["1"]["setup_s"]
    assert setup["change_pct"] == -50.0 and setup["change_better_pairs"] == 2
    assert "setup_s" in capsys.readouterr().out


@pytest.mark.parametrize("body, error", [
    ("import sys\nprint('started')\nsys.exit(3)\n", "exit status 3"),
    ("print('no result here')\n", "the last line is not a result"),
    ("print('[1, 2]')\n", "the last line is not a result"),
])
def test_a_run_without_a_result_is_reported_and_kept(tmp_path, capsys, body, error):
    parent = checkout(tmp_path / "parent", fixed(2.0))
    change = checkout(tmp_path / "change", body)
    out = tmp_path / "pairs.json"
    rc = bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "toy",
                           "--pairs", "2", "--seconds", "1", "--out", str(out)])
    assert rc == 1
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 4
    assert [r.get("error") for r in runs if r["side"] == "change"] == [error, error]
    assert all("error" not in r for r in runs if r["side"] == "parent")
    assert error in capsys.readouterr().err


def test_fewer_than_two_pairs_is_a_usage_error(tmp_path):
    parent = checkout(tmp_path / "parent", fixed(2.0))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(parent), "--workload", "toy",
                          "--pairs", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, error", [
    (["--seeds", "x"], "--seeds 'x': expected a range such as 1-10 or a list such as 1,7"),
    (["--seeds", "3-1"], "--seeds '3-1': expected a range such as 1-10 or a list such as 1,7"),
    (["--seeds", "1-2-3"], "--seeds '1-2-3': expected a range such as 1-10 or a list such as 1,7"),
    (["--seeds", "1,"], "--seeds '1,': expected a range such as 1-10 or a list such as 1,7"),
    (["--seconds", "0"], "--seconds '0': expected a positive number"),
    (["--seconds", "-1"], "--seconds '-1': expected a positive number"),
    (["--seconds", "abc"], "--seconds 'abc': expected a positive number"),
    (["--seconds", "nan"], "--seconds 'nan': expected a positive number"),
    (["--seconds", "inf"], "--seconds 'inf': expected a positive number"),
])
def test_bad_seeds_or_seconds_are_a_usage_error_before_any_run(tmp_path, capsys, flags, error):
    ran = tmp_path / "ran"
    parent = checkout(tmp_path / "parent", f"open({str(ran)!r}, 'a').close()\n" + fixed(2.0))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(parent), "--workload", "toy",
                          "--pairs", "2", *flags])
    assert exc.value.code == 2
    assert not ran.exists()
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f": error: {error}\n")
