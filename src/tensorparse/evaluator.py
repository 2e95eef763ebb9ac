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
dataset question or scores them.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional

from . import ConfigError, learner, logform
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
    index: int
    question: str
    predicted_form: Optional[str]
    predicted_f1: float
    oracle_f1: float
    candidate_count: int


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
            pred_f1 = scores[candidates.index(predicted)]
        rows.append(
            PerQueryResult(
                index=index,
                question=example.question,
                predicted_form=pred_form,
                predicted_f1=pred_f1,
                oracle_f1=max(scores, default=0.0),
                candidate_count=len(candidates),
            )
        )
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
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(format_report(report))


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


def cross_validate(
    data: list[DatasetExample],
    kg: KnowledgeGraph,
    gen_cfg: logform.GenConfig,
    train_cfg: learner.TrainConfig,
    spec: SplitSpec,
):
    """Train and evaluate per fold; returns (reports, summary).

    Each question goes through :func:`prepare` once.  Its training rows
    are built from that, with one key index for the whole run, and each
    fold trains on its questions' rows with the run's ids: the same model
    as :func:`learner.train` on that fold's data.  Each test fold is
    reported from the same prepared questions, so nothing is generated or
    F1-scored twice.
    """
    splits = _split_positions(data, spec)
    questions = [prepare(example, kg, gen_cfg) for example in data]
    index: dict = {}
    rows = [learner.question_rows(question, index) for question in questions]
    names = list(index)
    reports = []
    for train_pos, test_pos in splits:
        result = learner.train_rows([rows[i] for i in train_pos], names, gen_cfg, train_cfg)
        reports.append(_report(result.model, [data[i] for i in test_pos],
                               [questions[i] for i in test_pos]))
    scores = [r.average_f1 for r in reports]
    summary = CvSummary(
        mean_average_f1=statistics.fmean(scores),
        stdev_average_f1=statistics.stdev(scores),
        mean_oracle_f1=statistics.fmean(r.oracle_f1 for r in reports),
    )
    return reports, summary
