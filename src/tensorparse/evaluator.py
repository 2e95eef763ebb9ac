"""Entity-set F1 scoring, evaluation reports, splits, cross-validation.

Answer sets are compared by normalized entity name (lowercased,
punctuation-stripped, single-spaced), decoupling gold files from graph
internals.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

from . import ConfigError, learner, logform
from .dataset import DatasetExample
from .features import normalize_phrase, tokenize
from .kgraph import KnowledgeGraph


def normalize_answer_set(answers: Iterable[str]) -> frozenset:
    return frozenset(normalize_phrase(a) for a in answers)


def f1(predicted: Iterable[str], gold: Iterable[str]) -> float:
    """Harmonic mean of set precision and recall, with partial credit.

    Defined as 0 when either set is empty or the intersection is empty;
    1 requires equality of nonempty sets.
    """
    p = normalize_answer_set(predicted)
    g = normalize_answer_set(gold)
    if not p or not g:
        return 0.0
    hits = len(p & g)
    if hits == 0:
        return 0.0
    precision = hits / len(p)
    recall = hits / len(g)
    return 2.0 * precision * recall / (precision + recall)


def candidate_f1s(
    candidates: list[logform.Candidate], gold: Iterable[str], kg: KnowledgeGraph
) -> list[float]:
    """F1 of each candidate's denotation against the gold answers, in order."""
    return [f1((kg.entity(eid).name for eid in c.denotation), gold) for c in candidates]


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


def evaluate(
    model: learner.Model,
    data: list[DatasetExample],
    kg: KnowledgeGraph,
    gen_cfg: logform.GenConfig,
) -> EvalReport:
    """Predict per query and score against gold answers.

    A query with no candidates scores 0 for both predicted and oracle F1.
    """
    rows = []
    for index, example in enumerate(data):
        tokens = tokenize(example.question)
        candidates = logform.generate_candidates(tokens, kg, gen_cfg) if tokens else []
        predicted = learner.predict(model, tokens, candidates)
        scores = candidate_f1s(candidates, example.answers, kg)
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
    avg = sum(r.predicted_f1 for r in rows) / n if n else 0.0
    oracle_avg = sum(r.oracle_f1 for r in rows) / n if n else 0.0
    return EvalReport(average_f1=avg, oracle_f1=oracle_avg, per_query=tuple(rows))


def format_report(report: EvalReport) -> str:
    lines = [
        f"averageF1={report.average_f1:.4f}"
        f" oracleF1={report.oracle_f1:.4f} n={len(report.per_query)}"
    ]
    for r in report.per_query:
        form = r.predicted_form if r.predicted_form is not None else "-"
        lines.append(
            f"{r.index}\t{r.question}\t{form}"
            f"\t{r.predicted_f1:.4f}\t{r.oracle_f1:.4f}\t{r.candidate_count}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "random"  # "random" | "alphabetical"
    folds: Optional[int] = None
    holdout: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "alphabetical"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if (self.folds is None) == (self.holdout is None):
            raise ConfigError("exactly one of folds/holdout must be given")
        if self.folds is not None and self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.holdout is not None and not 0.0 < self.holdout < 1.0:
            raise ConfigError("holdout fraction must be in (0, 1)")


def _ordered(data: list, spec: SplitSpec) -> list:
    """Positions of ``data`` in split order."""
    if spec.mode == "alphabetical":
        return sorted(range(len(data)), key=lambda i: data[i].question)
    order = list(range(len(data)))
    random.Random(spec.seed).shuffle(order)
    return order


def _split_positions(data: list, spec: SplitSpec):
    """:func:`make_splits` as positions in ``data``."""
    n = len(data)
    ordered = _ordered(data, spec)
    if spec.holdout is not None:
        if n < 2:
            raise ConfigError("need at least 2 examples for a holdout split")
        n_test = min(n - 1, max(1, round(n * spec.holdout)))
        return [(ordered[n_test:], ordered[:n_test])]
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


def make_splits(data: list, spec: SplitSpec):
    """Deterministic (train, test) partitions.

    Alphabetical mode sorts by raw question text then slices contiguous
    folds; random mode shuffles with the seed first.  Fold sizes differ
    by at most one.
    """
    return [([data[i] for i in train], [data[i] for i in test])
            for train, test in _split_positions(data, spec)]


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

    Each question is turned into training rows once, and each fold trains
    on its questions' rows: the same model as :func:`learner.train` on
    that fold's data.
    """
    splits = _split_positions(data, spec)
    index: dict = {}
    rows = [learner.question_rows(example, kg, gen_cfg, train_cfg, index) for example in data]
    names = list(index)
    reports = []
    for train_pos, test_pos in splits:
        result = learner.train_rows([rows[i] for i in train_pos], names, gen_cfg, train_cfg)
        reports.append(evaluate(result.model, [data[i] for i in test_pos], kg, gen_cfg))
    scores = [r.average_f1 for r in reports]
    summary = CvSummary(
        mean_average_f1=statistics.fmean(scores),
        stdev_average_f1=statistics.stdev(scores) if len(scores) > 1 else 0.0,
        mean_oracle_f1=statistics.fmean(r.oracle_f1 for r in reports),
    )
    return reports, summary
