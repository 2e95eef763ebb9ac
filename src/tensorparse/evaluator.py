"""Entity-set F1 scoring, evaluation reports, splits, cross-validation.

Answer sets are compared by normalized entity name (lowercased,
punctuation-stripped, single-spaced), decoupling gold files from graph
internals.  A name with no letter or digit matches no name.  The F1 of
answer lists ``p`` and ``g`` is ``f1(normalize_answer_set(p),
normalize_answer_set(g))``; :func:`candidate_f1s` normalizes a question's
gold answers once and reads each entity's normalized name from
``KnowledgeGraph.names``, so no name is normalized again per candidate.

One pass per question: :func:`prepare` tokenizes it, generates its
candidates and scores each one's F1, and training rows
(:func:`learner.question_rows`), evaluation and cross-validation folds
all read that result.  No other function generates candidates for a
dataset question or scores them.  Cross-validation also lays out the
run's training rows once (:class:`learner.Layout`), before its fold
processes fork, so each inherits the layout and trains a fold from its
list of question positions.

:class:`PerQueryResult`, one per evaluated question, is a slotted frozen
dataclass written through its slots' member descriptors, laid out as
:class:`dataset.DatasetExample` is and for the same reason.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import statistics
import threading
from dataclasses import dataclass
from typing import AbstractSet, Iterable, NoReturn, Optional

from . import ConfigError, TensorparseError, learner, logform
from .dataset import DatasetExample
from .features import normalize_phrase, tokenize
from .kgraph import KnowledgeGraph


def normalize_answer_set(answers: Iterable[str]) -> frozenset:
    """Normalized names; a name with no letter or digit normalizes to
    nothing and is left out, so it matches no other name."""
    return frozenset(filter(None, map(normalize_phrase, answers)))


def f1(predicted: AbstractSet[str], gold: AbstractSet[str]) -> float:
    """Harmonic mean of set precision and recall, with partial credit.

    Both arguments are sets of normalized names, as
    :func:`normalize_answer_set` gives them.  Defined as 0 when either set
    is empty or the intersection is empty; 1 requires equality of nonempty
    sets.
    """
    if not predicted or not gold:
        return 0.0
    hits = len(predicted & gold)
    if hits == 0:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(gold)
    return 2.0 * precision * recall / (precision + recall)


def candidate_f1s(
    candidates: list[logform.Candidate], gold: Iterable[str], kg: KnowledgeGraph
) -> list[float]:
    """F1 of each candidate's denotation against the gold answers, in order.

    The gold answers are normalized once; each denotation member's
    normalized name comes from ``kg.names``, and a name that normalizes to
    nothing is left out, as :func:`normalize_answer_set` leaves it.
    """
    g = normalize_answer_set(gold)
    names = kg.names
    scores = []
    for c in candidates:
        p = {names[eid] for eid in c.denotation}
        p.discard("")
        scores.append(f1(p, g))
    return scores


@dataclass(frozen=True)
class PerQueryResult:
    __slots__ = ("index", "question", "predicted_form", "predicted_f1", "oracle_f1",
                 "candidate_count")
    index: int
    question: str
    predicted_form: Optional[str]
    predicted_f1: float
    oracle_f1: float
    candidate_count: int

    def __init__(self, index, question, predicted_form, predicted_f1, oracle_f1,
                 candidate_count):
        _set_index(self, index)
        _set_question(self, question)
        _set_predicted_form(self, predicted_form)
        _set_predicted_f1(self, predicted_f1)
        _set_oracle_f1(self, oracle_f1)
        _set_candidate_count(self, candidate_count)

    def __reduce__(self):
        return type(self), (self.index, self.question, self.predicted_form,
                            self.predicted_f1, self.oracle_f1, self.candidate_count)


_set_index = PerQueryResult.index.__set__
_set_question = PerQueryResult.question.__set__
_set_predicted_form = PerQueryResult.predicted_form.__set__
_set_predicted_f1 = PerQueryResult.predicted_f1.__set__
_set_oracle_f1 = PerQueryResult.oracle_f1.__set__
_set_candidate_count = PerQueryResult.candidate_count.__set__


@dataclass(frozen=True)
class EvalReport:
    average_f1: float
    oracle_f1: float
    per_query: tuple[PerQueryResult, ...]


def prepare(example: DatasetExample, kg: KnowledgeGraph, gen_cfg: logform.GenConfig):
    """One question's ``(tokens, candidates, candidate F1s)``."""
    tokens = tokenize(example.question)
    candidates = logform.generate_candidates(tokens, kg, gen_cfg) if tokens else []
    return tokens, candidates, candidate_f1s(candidates, example.answers, kg)


def evaluate(
    model: learner.Model,
    data: list[DatasetExample],
    kg: KnowledgeGraph,
    gen_cfg: logform.GenConfig,
) -> EvalReport:
    """Predict per query and score against gold answers.

    A query with no candidates scores 0 for both predicted and oracle F1.
    Empty ``data`` is a :class:`ConfigError`.
    """
    if not data:
        raise ConfigError("evaluation data must be non-empty")
    return _report(model, data, (prepare(example, kg, gen_cfg) for example in data))


def _report(model: learner.Model, data: list[DatasetExample], questions) -> EvalReport:
    """:func:`evaluate` on ``data`` already passed through :func:`prepare`."""
    rows = []
    for index, (example, (tokens, candidates, scores)) in enumerate(zip(data, questions)):
        predicted = learner.predict(model, tokens, candidates)
        if predicted is None:
            pred_form = None
            pred_f1 = 0.0
        else:
            pred_form = logform.serialize(predicted.logical_form)
            # by identity: == would compare forms down every earlier candidate
            pred_f1 = next(s for c, s in zip(candidates, scores) if c is predicted)
        rows.append(PerQueryResult(index, example.question, pred_form, pred_f1,
                                   max(scores, default=0.0), len(candidates)))
    n = len(rows)
    avg = sum(r.predicted_f1 for r in rows) / n
    oracle_avg = sum(r.oracle_f1 for r in rows) / n
    return EvalReport(average_f1=avg, oracle_f1=oracle_avg, per_query=tuple(rows))


# A report row is one line of tab-separated fields, so the question's own
# backslashes, tabs and line breaks are written as escapes.
_QUESTION_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def format_report(report: EvalReport) -> str:
    lines = [
        f"averageF1={report.average_f1:.4f}"
        f" oracleF1={report.oracle_f1:.4f} n={len(report.per_query)}"
    ]
    for r in report.per_query:
        form = r.predicted_form if r.predicted_form is not None else "-"
        lines.append(
            f"{r.index}\t{r.question.translate(_QUESTION_ESCAPES)}\t{form}"
            f"\t{r.predicted_f1:.4f}\t{r.oracle_f1:.4f}\t{r.candidate_count}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path) -> None:
    # A lone surrogate (a JSON "\\ud800" escape) is written as the text \ud800,
    # which no literal backslash reads as: the question column doubles those.
    learner.write_replacing(path, format_report(report), errors="backslashreplace")


@dataclass(frozen=True, kw_only=True)
class SplitSpec:
    """How :func:`cross_validate` cuts data into ``folds`` folds: in question
    order (``"alphabetical"``) or shuffled with ``seed`` (``"random"``)."""

    mode: str = "random"  # "random" | "alphabetical"
    folds: int
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "alphabetical"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")


def _ordered(data: list, spec: SplitSpec) -> list:
    """Positions of ``data`` in split order."""
    if spec.mode == "alphabetical":
        return sorted(range(len(data)), key=lambda i: data[i].question)
    order = list(range(len(data)))
    random.Random(spec.seed).shuffle(order)
    return order


def _split_positions(data: list, spec: SplitSpec):
    """Deterministic ``(train, test)`` position lists in ``data``, one per fold.

    Alphabetical mode sorts by raw question text then slices contiguous
    folds; random mode shuffles with the seed first.  Fold ``i`` is the
    ``i``-th slice, fold sizes differ by at most one, and each test fold's
    train side is the rest of the data.
    """
    n = len(data)
    ordered = _ordered(data, spec)
    folds = spec.folds
    if n < folds:
        raise ConfigError(f"need at least {folds} examples for {folds} folds")
    bounds = [i * n // folds for i in range(folds + 1)]
    splits = []
    for i in range(folds):
        test = ordered[bounds[i] : bounds[i + 1]]
        train = ordered[: bounds[i]] + ordered[bounds[i + 1] :]
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class CvSummary:
    mean_average_f1: float
    stdev_average_f1: float
    mean_oracle_f1: float


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pin(cpus: list, process: int) -> None:
    """Keep this process on ``cpus[process mod len(cpus)]``, if ``cpus`` has
    any; where that CPU cannot be chosen, the scheduler places it."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[process % len(cpus)]})
        except OSError:  # such as a CPU taken offline since
            pass


def _fit_share(layout: learner.Layout, folds: list, first: int, step: int,
               cfg: learner.TrainConfig) -> list:
    """:func:`learner.fit_questions` of folds ``first``, ``first + step``,
    ...: a ``(weights, epoch losses)`` pair per fold, up to the first fold
    that raises, whose exception ends the list."""
    fits = []
    for questions in folds[first::step]:
        try:
            fits.append(learner.fit_questions(layout, questions, cfg))
        except Exception as exc:  # raised by _fit_folds, in fold order
            fits.append(exc)
            break
    return fits


def _fit_share_and_exit(write: int, layout: learner.Layout, folds: list, first: int, step: int,
                        cfg: learner.TrainConfig, cpus: list) -> NoReturn:
    """In a forked process: keep to ``cpus[first]`` (:func:`_pin`), pickle
    :func:`_fit_share` into the pipe end ``write``, then end the process, so
    it never returns into its caller."""
    status = 1
    try:
        _pin(cpus, first)
        with open(write, "wb") as out:
            pickle.dump(_fit_share(layout, folds, first, step, cfg), out,
                        pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fit_folds(layout: learner.Layout, folds: list, cfg: learner.TrainConfig) -> list:
    """:func:`learner.fit_questions` of each fold's question positions in
    ``layout``, in fold order.

    Fold ``i`` trains in process ``i mod C``, C = min(folds, usable CPUs).
    Process 0 is this one; the other C - 1 are forked, so they inherit the
    layout, and each sends back its folds' pairs, or the exception it
    raised, pickled over a pipe.  Where CPUs can be chosen, process ``j``
    keeps to usable CPU ``j`` (mod their count) while it trains: a kernel
    that balances no load between CPUs (a cpuset whose
    ``sched_load_balance`` is 0) leaves a forked process on its parent's
    CPU, where the processes would take turns.  Where there is no
    ``os.fork``, or while another thread runs (a lock it holds would stay
    held in the child), every fold trains here, and so do the folds of a
    process that cannot be forked.  A failing fold raises what a serial
    run raises: the lowest failing fold's exception.  No forked process
    outlives the call.
    """
    count = len(folds)
    procs = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        procs = min(count, _usable_cpus())
    cpus = []
    if procs > 1 and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    shares = {}  # first fold -> the fits of folds first, first + procs, ...
    children = []  # (pid, pipe reader, first fold) of each process not yet reaped
    try:
        for first in range(1, procs):
            read, write = os.pipe()
            reader = open(read, "rb")
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest train here
                reader.close()
                os.close(write)
                break
            if pid == 0:
                _fit_share_and_exit(write, layout, folds, first, procs, cfg, cpus)
            os.close(write)
            children.append((pid, reader, first))
        try:
            _pin(cpus, 0)
            for first in [0, *range(len(children) + 1, procs)]:
                shares[first] = _fit_share(layout, folds, first, procs, cfg)
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        while children:
            pid, reader, first = children[0]
            with reader:
                sent = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code == 0:
                shares[first] = pickle.loads(sent)
            else:
                ended = (f"was killed by signal {-code}" if code < 0
                         else f"exited with status {code}")
                shares[first] = [TensorparseError(
                    f"cross-validation: the process training fold {first} {ended}")]
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    fits = []
    for i in range(count):
        # a share stops at its first failure, which comes before any later fold of it
        fit = shares[i % procs][i // procs]
        if isinstance(fit, BaseException):
            raise fit
        fits.append(fit)
    return fits


def cross_validate(
    data: list[DatasetExample],
    kg: KnowledgeGraph,
    gen_cfg: logform.GenConfig,
    train_cfg: learner.TrainConfig,
    spec: SplitSpec,
):
    """Train and evaluate per fold; returns (reports, summary).

    Each question goes through :func:`prepare` once.  Its training rows
    are built from that, with one key index for the whole run, and laid
    out once for the whole run (:class:`learner.Layout`); each fold trains
    on its questions' positions in that layout: the same model as
    :func:`learner.train` on that fold's data.  The folds train at once,
    in up to one process per usable CPU (:func:`_fit_folds`); each
    fold's model is built and its test fold reported here, in fold order,
    from the same prepared questions, so nothing is generated or
    F1-scored twice.
    """
    splits = _split_positions(data, spec)
    questions = [prepare(example, kg, gen_cfg) for example in data]
    index: dict = {}
    # no name holds the rows or their layout, so both are freed once the
    # folds are fitted
    fits = _fit_folds(
        learner.Layout([learner.question_rows(question, index) for question in questions],
                       list(index)),
        [train_pos for train_pos, _ in splits], train_cfg)
    reports = []
    for (_, test_pos), (weights, _) in zip(splits, fits):
        model = learner.Model(weights=weights, gen_cfg=gen_cfg)
        reports.append(_report(model, [data[i] for i in test_pos],
                               [questions[i] for i in test_pos]))
    scores = [r.average_f1 for r in reports]
    summary = CvSummary(
        mean_average_f1=statistics.fmean(scores),
        stdev_average_f1=statistics.stdev(scores),
        mean_oracle_f1=statistics.fmean(r.oracle_f1 for r in reports),
    )
    return reports, summary
