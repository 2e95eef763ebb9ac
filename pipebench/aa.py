"""Steadiness check: one set of runs of the same code over several seeds.

    python3 pipebench/aa.py --workload toy --seeds 1-10 --seconds 40 [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  For the timed sections it also prints the spreads of the
other statistics a run prints as diagnostics (the minimum of its scaled
repeats, and the minimum and median of its unscaled ones) and of the
calibration pass.  Two such sets of the same code are an A/A comparison.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
_SECTION = re.compile(r"^# (\w+): n=\d+ min=([\d.]+) median=([\d.]+)$")
_UNSCALED = re.compile(r"^# (\w+) unscaled: min=([\d.]+) median=([\d.]+)$")
_CALIBRATION = re.compile(r"^# calibration_ms: passes=\d+ min=([\d.]+) median=([\d.]+)")
_ANSWER = re.compile(
    r"^# answer: .* p50/p90 of min=([\d.]+)/([\d.]+) of median=([\d.]+)/([\d.]+)$"
)


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="40")
    p.add_argument("--out")
    args = p.parse_args(argv)

    metrics: dict = {}
    alternatives: dict = {}
    share_failed = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        share_failed.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        for line in lines[:-1]:
            if m := _SECTION.match(line):
                alternatives.setdefault(f"{m[1]}/min", []).append(float(m[2]))
                alternatives.setdefault(f"{m[1]}/median", []).append(float(m[3]))
            elif m := _ANSWER.match(line):
                for key, value in zip(("p50/min", "p90/min", "p50/median", "p90/median"),
                                      m.groups()):
                    alternatives.setdefault(f"answer_ms_{key}", []).append(float(value))
            elif m := _UNSCALED.match(line):
                alternatives.setdefault(f"{m[1]}/unscaled min", []).append(float(m[2]))
                alternatives.setdefault(f"{m[1]}/unscaled median", []).append(float(m[3]))
            elif m := _CALIBRATION.match(line):
                alternatives.setdefault("calibration_ms/min", []).append(float(m[1]))
                alternatives.setdefault("calibration_ms/median", []).append(float(m[2]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    report = {
        "workload": args.workload,
        "seeds": args.seeds,
        "failed_share": sorted(share_failed),
        "metrics": {name: spread(values) for name, values in metrics.items()},
        "values": {**metrics, **alternatives},
        "alternatives": {name: spread(values) for name, values in alternatives.items()},
    }
    for group in ("metrics", "alternatives"):
        print(f"{group}:")
        for name, s in report[group].items():
            print(f"  {name:28} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  iqr/median {s['iqr_share']:.3f}")
    print(f"failed/attempted: {report['failed_share']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
