"""Pipeline benchmark for tensorparse: one workload per run.

    python3 pipebench/run.py --workload toy --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The inputs are made by ``gen.py`` in a
separate process; this process then loads them, trains, evaluates,
cross-validates and answers questions one at a time through the public
functions of ``dataset``, ``kgraph``, ``logform``, ``features``,
``learner`` and ``evaluator``, checks every output with ``checks.py``, and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, timed with no hooks
installed; every timed block is scaled by the calibration passes run just
before and after it (``Pacer``).  With ``--trace 1`` each section runs once
untraced and once under ``spans.Tracer``, and the metrics are the per-layer
ones; the spans go to ``pipebench/.work/trace-<workload>-<seed>.json``.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

perf_counter = time.perf_counter

ANSWER_QUESTIONS = 100  # distinct questions in the closed loop
CAPLESS_SAMPLE = 20  # questions regenerated with the cap lifted, per untraced run
CAPLESS = 10**9
MIN_ROUNDS = 2
WARMUP_QUESTIONS = 10
ANSWER_BLOCK_S = 0.05  # closed-loop questions timed between two calibration passes


@dataclass(frozen=True)
class Workload:
    round_s: float  # rough length of one timed round; sets the round count
    setup_reps: int  # per round
    train_reps: int  # per round
    eval_reps: int  # per round
    cv_reps: int  # per round
    answer_reps: int  # per round, for every question
    min_average: float | None = None  # toy generator's stated properties
    oracle: float | None = None


WORKLOADS = {
    "toy": Workload(round_s=4.0, setup_reps=20, train_reps=3, eval_reps=5, cv_reps=1,
                    answer_reps=3, min_average=0.90, oracle=1.0),
    "wide": Workload(round_s=14.0, setup_reps=5, train_reps=1, eval_reps=1, cv_reps=1,
                     answer_reps=1),
    "large": Workload(round_s=9.5, setup_reps=1, train_reps=3, eval_reps=3, cv_reps=2,
                      answer_reps=2),
}


def fail_setup(message: str) -> None:
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


# The reference speed.  Every timed block is scaled by REFERENCE_CAL_S over
# the time one calibration pass took around it, so a time reads as it would
# on a machine where one pass takes REFERENCE_CAL_S (README.md, "How each
# number is taken").
REFERENCE_CAL_S = 0.005

# Fixed input of the calibration pass; it does not depend on the seed.
_CAL_KEYS = [f"q:{word}|u:{i}" for word in ("what", "of", "whose", "is", "the", "and",
                                            "river", "gate") for i in range(50)]
_CAL_WEIGHTS = {key: (i % 7) * 0.25 for i, key in enumerate(_CAL_KEYS[::3])}


def calibrate() -> float:
    """Seconds for one pass of a fixed pure-Python loop, garbage collector off.

    It does what the program's hot paths do (string-keyed dict updates, a
    sparse dot product, integer arithmetic) and calls nothing in the
    program, so a change to the program cannot move it.
    """
    gc.disable()
    try:
        start = perf_counter()
        total = 0.0
        for _ in range(30):
            vector: dict = {}
            for key in _CAL_KEYS:
                vector[key] = vector.get(key, 0.0) + 1.0
            total += sum(_CAL_WEIGHTS.get(key, 0.0) * v for key, v in vector.items())
            x = 0
            for i in range(1000):
                x += i * i % 7
        return perf_counter() - start
    finally:
        gc.enable()


class Pacer:
    """Calibration passes between timed blocks, and each block's scale factor.

    A pass runs after every block, so the passes just before and just after
    a block bracket it; the block's factor is REFERENCE_CAL_S over their mean.
    """

    def __init__(self):
        self.passes = [calibrate()]
        self.last = perf_counter()

    def factor(self) -> float:
        now = calibrate()
        before = self.passes[-1]
        self.passes.append(now)
        self.last = perf_counter()
        return REFERENCE_CAL_S * 2 / (before + now)

    def due(self, seconds: float) -> bool:
        """Whether ``seconds`` have passed since the last calibration pass."""
        return perf_counter() - self.last >= seconds


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    """One workload's inputs, the program's calls on them, and the checks."""

    def __init__(self, name: str, inputs: Path):
        from tensorparse import dataset, evaluator, features, kgraph, learner, logform

        import checks

        self.tp = dict(dataset=dataset, evaluator=evaluator, features=features,
                       kgraph=kgraph, learner=learner, logform=logform)
        self.checks = checks
        self.name = name
        self.spec = WORKLOADS[name]
        self.inputs = inputs
        self.graph = checks.Graph.from_files(inputs / "triples.tsv", inputs / "catalog.tsv")
        self.gen_cfg = logform.GenConfig()
        self.capless_cfg = logform.GenConfig(max_candidates=CAPLESS)
        self.train_cfg = learner.TrainConfig()
        self.split = evaluator.SplitSpec(mode="random", folds=5, seed=0)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.raised = 0
        self.state = None
        self.model = None
        self.model_bytes = None
        self.report = None
        self.tracer = None  # when set, every operation is a root span named self.section
        self.section = None
        self.op_seconds = 0.0
        self.pacer = None  # the run's calibration passes

    # -- operations -------------------------------------------------------------

    def op(self, fn, check=None):
        """Run one operation; returns (seconds, result).  Failures are counted."""
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.section(self.section):
                    result = fn()
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.raised += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None, None
        elapsed = perf_counter() - start
        self.op_seconds += elapsed
        problems = check(result) if check else []
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed, result

    def setup(self):
        kgraph, dataset = self.tp["kgraph"], self.tp["dataset"]
        d = self.inputs
        with open(d / "triples.tsv", encoding="utf-8") as t, open(
            d / "catalog.tsv", encoding="utf-8"
        ) as c:
            kg = kgraph.load_graph(t, c)
        with open(d / "train.jsonl", encoding="utf-8") as fh:
            train = dataset.load_dataset(fh)
        with open(d / "test.jsonl", encoding="utf-8") as fh:
            test = dataset.load_dataset(fh)
        return kg, train, test

    def ask_list(self):
        """Distinct questions for the closed loop: held-out first, then training."""
        _, train, test = self.state
        seen = {}
        for ex in test + train:
            seen.setdefault(ex.question, ex)
        return list(seen.values())[:ANSWER_QUESTIONS]

    def answer(self, question):
        features, logform, learner = self.tp["features"], self.tp["logform"], self.tp["learner"]
        tokens = features.tokenize(question)
        candidates = logform.generate_candidates(tokens, self.state[0], self.gen_cfg)
        return candidates, learner.predict(self.model, tokens, candidates)

    # -- checks -----------------------------------------------------------------

    def check_setup(self, state):
        kg, train, test = state
        if len(kg.triples) == 0 or not train or not test:
            return ["setup loaded an empty graph or dataset"]
        return []

    def check_train(self, result):
        path = WORK / f"model-{self.name}.txt"
        self.tp["learner"].save_model(result.model, path)
        data = path.read_bytes()
        if self.model_bytes is None:
            self.model_bytes = data
            return []
        return self.checks.same_bytes_problems(self.model_bytes, data)

    def check_report(self, report):
        return self.checks.report_problems(report, self.spec.min_average, self.spec.oracle)

    def check_cv(self, result):
        reports, _ = result
        problems = []
        for report in reports:
            problems += self.checks.report_problems(report)
        return problems

    def check_answer(self, question, result, deep=False):
        candidates, predicted = result
        problems = self.checks.argmax_problems(self.model.weights, question, candidates, predicted)
        if deep:
            problems += self.checks.denotation_problems(self.graph, candidates)
        return problems

    # -- sections ---------------------------------------------------------------

    def run_setup(self):
        self.state = None
        gc.collect()
        seconds, self.state = self.op(self.setup, self.check_setup)
        if self.state is None:
            fail_setup("setup failed: " + "; ".join(self.problems))
        return seconds

    def run_train(self):
        learner = self.tp["learner"]
        kg, train, _ = self.state
        gc.collect()
        seconds, result = self.op(
            lambda: learner.train(train, kg, self.gen_cfg, self.train_cfg), self.check_train
        )
        if result is not None:
            self.model = result.model
        return seconds

    def run_eval(self):
        evaluator = self.tp["evaluator"]
        kg, _, test = self.state
        gc.collect()
        seconds, report = self.op(
            lambda: evaluator.evaluate(self.model, test, kg, self.gen_cfg), self.check_report
        )
        if report is not None and self.report is None:
            self.report = report
        return seconds

    def run_cv(self):
        evaluator = self.tp["evaluator"]
        kg, train, _ = self.state
        gc.collect()
        seconds, _ = self.op(
            lambda: evaluator.cross_validate(
                train, kg, self.gen_cfg, self.train_cfg, self.split
            ),
            self.check_cv,
        )
        return seconds

    def run_answers(self, deep=False, limit=None, pacer=None):
        """One closed-loop pass: each question asked once.

        Returns {question: (seconds, scale factor)}.  With a ``pacer`` the
        questions are timed in blocks of about ANSWER_BLOCK_S, each
        followed by a calibration pass, and every question gets its block's
        factor; without one the factor is 1.  ``deep`` also checks every
        kept candidate's denotation.
        """
        gc.collect()
        out, block = {}, []

        def close_block():
            factor = pacer.factor()
            for question in block:
                out[question] = (out[question], factor)
            block.clear()

        for ex in self.ask_list()[:limit]:
            seconds, _ = self.op(
                lambda q=ex.question: self.answer(q),
                lambda result, q=ex.question: self.check_answer(q, result, deep),
            )
            if pacer is None:
                out[ex.question] = (seconds, 1.0)
                continue
            out[ex.question] = seconds
            block.append(ex.question)
            if pacer.due(ANSWER_BLOCK_S):
                close_block()
        if block:
            close_block()
        return out

    def candidate_survey(self, examples):
        """Kept and cap-lifted candidates per question, checked; returns layer counts."""
        features, logform = self.tp["features"], self.tp["logform"]
        kg = self.state[0]
        checks = self.checks
        survey = dict(questions=0, raw=0, kept=0, truncated=0, answerable_dropped=0,
                      nonempty=0, mirrors=0)
        for ex in examples:
            tokens = features.tokenize(ex.question)

            def generate():
                kept = logform.generate_candidates(tokens, kg, self.gen_cfg)
                raw = logform.generate_candidates(tokens, kg, self.capless_cfg)
                return kept, raw

            def check(result, ex=ex):
                kept, raw = result
                return (checks.denotation_problems(self.graph, kept)
                        + checks.reachable_problems(self.graph, ex.question, raw, ex.answers))

            _, result = self.op(generate, check)
            if result is None:
                continue
            kept, raw = result
            survey["questions"] += 1
            survey["raw"] += len(raw)
            survey["kept"] += len(kept)
            survey["truncated"] += len(raw) - len(kept)
            if checks.best_f1(self.graph, kept, ex.answers) < checks.best_f1(
                self.graph, raw, ex.answers
            ):
                survey["answerable_dropped"] += 1
            survey["nonempty"] += sum(1 for c in kept if c.denotation)
            survey["mirrors"] += checks.mirror_forms(kept)
        return survey


def run_untraced(bench: Bench, seconds: float) -> dict:
    spec = bench.spec
    bench.run_setup()
    bench.run_train()
    bench.run_eval()
    bench.run_answers(limit=WARMUP_QUESTIONS)
    bench.candidate_survey(bench.ask_list()[:CAPLESS_SAMPLE])

    # Per timed metric, one (raw seconds, scale factor) pair per repeat.
    samples: dict = {"setup_s": [], "train_s": [], "eval_s": [], "cv_s": []}
    latency: dict = {}
    pacer = bench.pacer = Pacer()

    def timed(name, run_section):
        seconds = run_section()
        samples[name].append((seconds, pacer.factor()))

    rounds = max(MIN_ROUNDS, round(seconds / spec.round_s))
    started = perf_counter()
    for round_index in range(rounds):
        for _ in range(spec.setup_reps):
            timed("setup_s", bench.run_setup)
        for _ in range(spec.train_reps):
            timed("train_s", bench.run_train)
        for _ in range(spec.eval_reps):
            timed("eval_s", bench.run_eval)
        for _ in range(spec.cv_reps):
            timed("cv_s", bench.run_cv)
        for rep in range(spec.answer_reps):
            took = bench.run_answers(deep=round_index == rep == 0, pacer=pacer)
            for question, pair in took.items():
                latency.setdefault(question, []).append(pair)

    print(f"# rounds: {rounds} in {perf_counter() - started:.1f} s")

    def scaled(pairs):
        return [raw * factor for raw, factor in pairs if raw is not None]

    def value(name):
        values = scaled(samples[name])
        return statistics.median(values) if values else None

    answered = [scaled(v) for v in latency.values() if all(raw is not None for raw, _ in v)]
    per_question = [statistics.median(v) * 1e3 for v in answered]
    metrics = {
        "setup_s": (value("setup_s"), "s"),
        "train_s": (value("train_s"), "s"),
        "eval_s": (value("eval_s"), "s"),
        "cv_s": (value("cv_s"), "s"),
        "answer_ms_p50": (percentile(per_question, 50) if per_question else None, "ms"),
        "answer_ms_p90": (percentile(per_question, 90) if per_question else None, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "average_f1": (bench.report.average_f1 if bench.report else None, "f1"),
        "oracle_f1": (bench.report.oracle_f1 if bench.report else None, "f1"),
    }
    for name, pairs in samples.items():
        values = scaled(pairs)
        raw = [r for r, _ in pairs if r is not None]
        if values:
            print(f"# {name}: n={len(values)} min={min(values):.6f}"
                  f" median={statistics.median(values):.6f}")
            print(f"# {name} unscaled: min={min(raw):.6f} median={statistics.median(raw):.6f}")
    if per_question:
        minima = [min(v) * 1e3 for v in answered]
        print(f"# answer: questions={len(per_question)} repeats={len(answered[0])}"
              f" p50/p90 of min={percentile(minima, 50):.4f}/{percentile(minima, 90):.4f}"
              f" of median={percentile(per_question, 50):.4f}/{percentile(per_question, 90):.4f}")
    return metrics


def install_hooks(tracer):
    from tensorparse import dataset, evaluator, features, kgraph, learner, logform

    tracer.span(dataset, "load_dataset", "dataset.load")
    tracer.span(kgraph, "load_graph", "kgraph.load")
    tracer.leaf(kgraph.KnowledgeGraph, "entities_by_alias", "kgraph.alias_lookup", timed=False)
    tracer.leaf(kgraph, "denotation", "kgraph.denotation")
    tracer.span(logform, "generate_candidates", "logform.generate")
    for caller in (features, logform, evaluator):  # the latter two import it by name
        tracer.leaf(caller, "tokenize", "features.tokenize")
    tracer.leaf(features, "assemble", "features.assemble",
                measure=lambda vector: sum(1 for k in vector if k.startswith("p:")))
    tracer.leaf(learner, "dot", "kernel.dot", timed=False)
    tracer.span(learner, "train", "learner.train")
    tracer.span(learner, "label_candidates", "learner.label")
    tracer.span(learner, "predict", "learner.predict")
    tracer.leaf(evaluator, "f1", "evaluator.f1", timed=False)
    tracer.span(evaluator, "evaluate", "evaluator.evaluate")
    tracer.span(evaluator, "cross_validate", "evaluator.cross_validate")


SECTIONS = ("setup", "train", "eval", "cv", "answers")


def run_sections(bench: Bench):
    """Each section once untraced, then once traced.

    Returns the tracer and, per section, the seconds spent inside the
    program's calls on each pass.
    """
    from spans import Tracer

    tracer = Tracer()
    untraced, traced = {}, {}
    for name in SECTIONS:
        fn = getattr(bench, f"run_{name}")
        bench.section, bench.op_seconds = name, 0.0
        fn()
        untraced[name] = bench.op_seconds
        install_hooks(tracer)
        bench.tracer, bench.op_seconds = tracer, 0.0
        try:
            fn()
        finally:
            bench.tracer = None
            tracer.close()
        traced[name] = bench.op_seconds
    return tracer, untraced, traced


def run_traced(bench: Bench, trace_path: Path) -> dict:
    bench.run_setup()
    _, train, test = bench.state
    distinct = {}
    for ex in train + test:
        distinct.setdefault(ex.question, ex)
    survey = bench.candidate_survey(list(distinct.values()))
    bench.run_train()
    bench.run_eval()
    bench.run_answers(deep=True)

    tracer, untraced, traced = run_sections(bench)

    n = max(survey["questions"], 1)
    span_calls = tracer.span_calls
    trains = span_calls("learner.train")
    fit_s = tracer.self_seconds("learner.train")
    missing = set(tracer.missing)
    metrics = {
        "dataset.load_s": (tracer.span_seconds("dataset.load"), "s", "dataset.load_dataset"),
        "kgraph.load_s": (tracer.span_seconds("kgraph.load"), "s", "kgraph.load_graph"),
        "kgraph.alias_lookups": (tracer.leaf_calls("kgraph.alias_lookup"), "count",
                                 "KnowledgeGraph.entities_by_alias"),
        "kgraph.denotation_calls": (tracer.leaf_calls("kgraph.denotation"), "count",
                                    "kgraph.denotation"),
        "kgraph.denotation_s": (tracer.leaf_seconds("kgraph.denotation"), "s", "kgraph.denotation"),
        "logform.generate_calls": (span_calls("logform.generate"), "count",
                                   "logform.generate_candidates"),
        "logform.generate_s": (tracer.span_seconds("logform.generate"), "s",
                               "logform.generate_candidates"),
        "logform.candidates_raw": (survey["raw"] / n, "count", None),
        "logform.candidates_kept": (survey["kept"] / n, "count", None),
        "logform.candidates_truncated": (survey["truncated"], "count", None),
        "logform.answerable_dropped": (survey["answerable_dropped"], "count", None),
        "logform.kept_nonempty_ratio": (survey["nonempty"] / max(survey["kept"], 1), "ratio", None),
        "logform.t3_mirror_forms": (survey["mirrors"], "count", None),
        "features.assemble_calls": (tracer.leaf_calls("features.assemble"), "count",
                                    "features.assemble"),
        "features.assemble_s": (tracer.leaf_seconds("features.assemble"), "s", "features.assemble"),
        "features.pair_features": (tracer.measured["features.assemble"], "count",
                                   "features.assemble"),
        "kernel.dot_calls": (tracer.leaf_calls("kernel.dot"), "count", "learner.dot"),
        "learner.instances": (tracer.leaf_calls("features.assemble", "learner.train"), "count",
                              "learner.train features.assemble"),
        "learner.fit_s": (fit_s, "s", "learner.train"),
        "learner.epoch_s": (fit_s / max(trains * bench.train_cfg.epochs, 1), "s",
                            "learner.train"),
        "learner.label_s": (tracer.span_seconds("learner.label"), "s", "learner.label_candidates"),
        "learner.predict_s": (tracer.span_seconds("learner.predict"), "s", "learner.predict"),
        "learner.model_weights": (len(bench.model.weights), "count", None),
        "evaluator.f1_calls": (tracer.leaf_calls("evaluator.f1"), "count", "evaluator.f1"),
        "evaluator.evaluate_self_s": (tracer.self_seconds("evaluator.evaluate"), "s",
                                      "evaluator.evaluate"),
        "trace.overhead_s": (sum(traced.values()) - sum(untraced.values()), "s", None),
        "trace.overhead_ratio": (sum(traced.values()) / sum(untraced.values()), "ratio", None),
    }
    out = {name: (value, unit) for name, (value, unit, hooks) in metrics.items()
           if not missing.intersection((hooks or "").split())}

    shares, inclusive = tracer.shares(), tracer.inclusive_shares()
    for section in SECTIONS:
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares[section].items())[:6])
        calls = ", ".join(f"{k} {v:.1%}" for k, v in list(inclusive[section].items())[:6])
        print(f"# {section}: untraced {untraced[section]:.4f} s, traced {traced[section]:.4f} s")
        print(f"#   self time: {top}")
        print(f"#   with callees: {calls}")
    if tracer.missing:
        print(f"# hooks without a target: {', '.join(tracer.missing)}")
    tracer.write(trace_path, {"untraced_s": untraced, "traced_s": traced, "shares": shares,
                              "inclusive_shares": inclusive, "survey": survey})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tensorparse pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tensorparse" / "__init__.py").is_file():
        fail_setup(f"no tensorparse sources under {SRC}; run from a checkout of the repository")
    inputs = WORK / f"{args.workload}-{args.seed}"
    made = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(inputs)],
        cwd=ROOT,
    )
    if made.returncode != 0:
        fail_setup(f"input generation failed with exit code {made.returncode}")

    sys.path[:0] = [str(SRC), str(HERE)]
    bench = Bench(args.workload, inputs)
    if args.trace:
        bench.pacer = Pacer()  # calibration before and after, printed only
        metrics = run_traced(bench, WORK / f"trace-{args.workload}-{args.seed}.json")
        bench.pacer.factor()
    else:
        metrics = run_untraced(bench, args.seconds)
    if bench.pacer is not None:
        passes = [p * 1e3 for p in bench.pacer.passes]
        print(f"# calibration_ms: passes={len(passes)} min={min(passes):.3f}"
              f" median={statistics.median(passes):.3f} max={max(passes):.3f}")
    for problem in bench.problems[:20]:
        print(f"# problem: {problem}")

    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        print(f"# no value for: {', '.join(missing)}")
    result = {
        "correct": bench.failed == bench.raised,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
