"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload toy \\
        --seeds 1,7 --pairs 10 --seconds 40 [--out BENCH_toy.json]

For each seed, each of ``--pairs`` pairs runs ``pipebench/run.py --trace 0``
once in each checkout, one run at a time, from the root of that checkout;
the parent runs first in even pairs and the change in odd ones.  For every
end-to-end metric of this checkout's ``BENCHMARK.json`` it then prints each
side's median and quartiles (``pipebench/aa.py``'s ``spread``), the change
in the median in per cent, whether that change is larger than the parent's
quartile distance, and in how many pairs the change read better (a tie
counts for neither side).

A run that exits non-zero, or whose last line is not a result object, is
reported on stderr and kept: it has no metric values, so its pair counts
as not better, and ``--out`` records it with its exit status and output.
``--out`` writes every run's result object with its side, seed, the commit
of its checkout (and whether that checkout had uncommitted changes) and
the arguments it ran with.  The exit status is 1 if any run failed or any
result is not ``correct`` with 0 failed operations.  ``--seeds`` that name
no seed and a ``--seconds`` that is not a positive number are usage
errors (exit status 2), reported before any run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

_spec = importlib.util.spec_from_file_location("pipebench_aa", ROOT / "pipebench" / "aa.py")
aa = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(aa)


def end_to_end_metrics() -> list[dict]:
    """The ``end_to_end`` entries of this checkout's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def git_state(checkout: Path) -> dict:
    """The checkout's HEAD commit and whether its tracked files differ from
    it; ``None`` for each where ``git`` cannot tell."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else status != ""}


def run_once(checkout: Path, args: list[str]) -> dict:
    """One ``run.py`` run in ``checkout``: its exit status, and its result
    object or the reason there is none."""
    done = subprocess.run([sys.executable, "pipebench/run.py", *args],
                          capture_output=True, text=True, cwd=checkout)
    lines = done.stdout.strip().splitlines()
    run = {"exit": done.returncode, "result": None}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
            run["result"] = result
    if done.returncode != 0 or run["result"] is None:
        run["error"] = ("exit status %d" % done.returncode if done.returncode != 0
                        else "the last line is not a result")
        run["stdout_tail"] = lines[-5:]
        run["stderr_tail"] = done.stderr.strip().splitlines()[-20:]
    return run


def value(run: dict, metric: str):
    """``metric``'s value in ``run``, or ``None`` if it has none."""
    result = run.get("result") or {}
    return (result.get("metrics", {}).get(metric) or {}).get("value")


def run_ok(run: dict) -> bool:
    result = run.get("result")
    return (run["exit"] == 0 and result is not None and result.get("correct") is True
            and result.get("failed") == 0)


def summarize(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread over the runs that have a value, the
    change in the median in per cent, whether it exceeds the parent's
    quartile distance, and how many of the pairs the change read better in.

    ``parent_runs[i]`` and ``change_runs[i]`` are pair ``i``.  A side with
    fewer than two values has no spread.
    """
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(parent_runs, change_runs, strict=True)]
        sides = {}
        for i, side in enumerate(SIDES):
            values = [pair[i] for pair in pairs if pair[i] is not None]
            sides[side] = aa.spread(values) if len(values) >= 2 else None
        sign = 1 if m["better"] == "lower" else -1
        better = sum(p is not None and c is not None and sign * (p - c) > 0 for p, c in pairs)
        entry = {"unit": m["unit"], "better": m["better"], **sides,
                 "change_pct": None, "beyond_parent_iqr": None,
                 "change_better_pairs": better, "pairs": len(pairs)}
        parent, change = sides["parent"], sides["change"]
        if parent and change:
            diff = change["median"] - parent["median"]
            if parent["median"]:
                entry["change_pct"] = 100 * diff / parent["median"]
            entry["beyond_parent_iqr"] = abs(diff) > parent["q3"] - parent["q1"]
        out[name] = entry
    return out


def format_summary(summary: dict) -> str:
    def side(s):
        if s is None:
            return f"{'too few values':>33}"
        return f"{s['median']:11.5g} [{s['q1']:9.5g}, {s['q3']:9.5g}]"

    lines = [f"  {'metric':14} {'unit':5} {'parent median [q1, q3]':>33}"
             f" {'change median [q1, q3]':>33} {'change':>8} {'> IQR':>5} better"]
    for name, e in summary.items():
        pct = "-" if e["change_pct"] is None else f"{e['change_pct']:+.1f}%"
        beyond = {None: "-", True: "yes", False: "no"}[e["beyond_parent_iqr"]]
        lines.append(f"  {name:14} {e['unit']:5} {side(e['parent'])} {side(e['change'])}"
                     f" {pct:>8} {beyond:>5} {e['change_better_pairs']}/{e['pairs']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    p.add_argument("--change", required=True, type=Path, help="root of the change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1", help="as aa.py takes them: 1-10 or 1,7")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", default="40")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    try:
        seeds = aa.seeds(args.seeds)
    except ValueError:
        seeds = []
    if not seeds:
        p.error(f"--seeds {args.seeds!r}: expected a range such as 1-10 or a list such as 1,7")
    try:
        seconds = float(args.seconds)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        p.error(f"--seconds {args.seconds!r}: expected a positive number")
    for checkout in (args.parent, args.change):
        if not (checkout / "pipebench" / "run.py").is_file():
            p.error(f"no pipebench/run.py under {checkout}")

    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    states = {side: git_state(path) for side, path in checkouts.items()}
    metrics = end_to_end_metrics()
    runs = []
    summaries = {}
    for seed in seeds:
        run_args = ["--workload", args.workload, "--seed", str(seed),
                    "--seconds", args.seconds, "--trace", "0"]
        by_side = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = {"seed": seed, "pair": pair, "side": side, **states[side],
                       "args": run_args, **run_once(checkouts[side], run_args)}
                if "error" in run:
                    print(f"seed {seed} pair {pair} {side}: {run['error']}\n"
                          + "\n".join(run["stderr_tail"]), file=sys.stderr, flush=True)
                runs.append(run)
                by_side[side].append(run)
            print(f"seed {seed} pair {pair}: " + ", ".join(
                f"{side} {'ok' if run_ok(by_side[side][-1]) else 'failed or not correct'}"
                for side in SIDES), flush=True)
        summaries[seed] = summarize(by_side["parent"], by_side["change"], metrics)
        failed = sum(not run_ok(r) for side in SIDES for r in by_side[side])
        print(f"{args.workload} seed {seed}: {args.pairs} pairs, {2 * args.pairs} runs,"
              f" {failed} failed or not correct")
        print(format_summary(summaries[seed]), flush=True)

    if args.out:
        record = {"workload": args.workload, "seeds": args.seeds, "pairs": args.pairs,
                  "seconds": args.seconds, "sides": states, "runs": runs,
                  "summary": {str(seed): s for seed, s in summaries.items()}}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(map(run_ok, runs)) else 1


if __name__ == "__main__":
    sys.exit(main())
