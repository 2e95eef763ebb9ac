"""Binary logistic ranker over (query, candidate) pairs.

Training is answer-supervised: per query, candidates whose denotation
reaches the maximum nonzero F1 against the gold answers are positives,
everything else is negative.  Optimization is AdaGrad with proximal L2
shrinkage, single-threaded and bit-reproducible for a fixed seed.

Training interns feature keys.  Rows: :func:`question_rows` turns one
question into its rows, ``(feature ids, label)`` for the positives and
the first ``negative_cap`` negatives, ids taken from a key index shared
by the whole run (every assembled feature has value 1.0, so the ids are
the vector).  Training on a set of questions renumbers their rows by
first appearance, which gives the ids, names and feature count of an
index built on those questions alone; so cross-validation builds each
question's rows once and every fold trains the model :func:`train`
gives on that fold.

Columns: ids that occur in exactly the same instances get the same
gradient at the same steps from the same zero start, so their weights
and squared-gradient sums stay bit-identical and one column, a slot of
the flat weight and squared-gradient lists, holds them all.  A score
still adds every id's column weight in the instance's id order; the
AdaGrad step runs once per distinct column.  The returned :class:`Model`
maps key text to weight, so scoring, prediction and the model file see
plain dicts.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional

from . import ConfigError, TensorparseError, features, logform
from .dataset import DatasetExample
from .kernel import dot
from .kgraph import KnowledgeGraph
from .logform import Candidate, GenConfig

MODEL_MAGIC = "tensorparse-model"
MODEL_VERSION = 1

_ADA_EPS = 1e-8


class ModelFormatError(TensorparseError):
    pass


@dataclass(frozen=True)
class Model:
    weights: dict
    config_fingerprint: str
    version: int = MODEL_VERSION


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 42
    negative_cap: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be > 0 and finite")
        if not 0 <= self.l2 < math.inf:
            raise ConfigError("l2 must be >= 0 and finite")
        if self.negative_cap < 1:
            raise ConfigError("negative_cap must be >= 1")


@dataclass(frozen=True)
class TrainResult:
    model: Model
    epoch_losses: tuple[float, ...]
    all_negative: bool  # warning: no query had a positive candidate


def fingerprint(gen_cfg: GenConfig, cfg: TrainConfig) -> str:
    text = (
        f"epochs={cfg.epochs};lr={cfg.learning_rate!r};l2={cfg.l2!r}"
        f";seed={cfg.seed};negcap={cfg.negative_cap}"
        f";maxcand={gen_cfg.max_candidates};maxspan={gen_cfg.max_span_length}"
        f";t3={gen_cfg.enable_two_constraint}"
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def score(model: Model, vector: dict) -> float:
    """Linear score; the classifier probability is sigmoid(score)."""
    return dot(model.weights, vector)


def predict(
    model: Model, query_tokens, candidates: list[Candidate]
) -> Optional[Candidate]:
    """Highest-scoring candidate; ties broken by ascending serialized form.

    Only the candidates tied at the best score are serialized.
    """
    if not candidates:
        return None
    scores = [score(model, features.assemble(query_tokens, c)) for c in candidates]
    best = max(scores)
    tied = [c for c, s in zip(candidates, scores) if s == best]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda c: logform.serialize(c.logical_form))


def label_candidates(
    candidates: list[Candidate], gold_answers: Iterable[str], kg: KnowledgeGraph
) -> list[tuple[Candidate, bool]]:
    """Max-F1 candidates with F1 > 0 are positive; all others negative."""
    from .evaluator import candidate_f1s  # evaluator imports this module

    scores = candidate_f1s(candidates, gold_answers, kg)
    best = max(scores, default=0.0)
    if best <= 0.0:
        return [(c, False) for c in candidates]
    return [(c, s == best) for c, s in zip(candidates, scores)]


def question_rows(
    example: DatasetExample, kg: KnowledgeGraph, gen_cfg: GenConfig, cfg: TrainConfig,
    index: dict,
) -> list:
    """One question's training rows: ``[(feature ids, label)]``.

    The rows are the positives and the first ``cfg.negative_cap``
    negatives, in candidate order; ids are in assemble order, and a key
    new to ``index`` gets the next id there.  A question with no tokens
    has no rows.
    """
    tokens = features.tokenize(example.question)
    if not tokens:
        return []
    candidates = logform.generate_candidates(tokens, kg, gen_cfg)
    labeled = label_candidates(candidates, example.answers, kg)
    rows = []
    negatives_kept = 0
    for candidate, positive in labeled:  # candidates arrive sorted by form
        if not positive:
            if negatives_kept >= cfg.negative_cap:
                continue
            negatives_kept += 1
        vector = features.assemble(tokens, candidate)
        for key in vector:
            if key not in index:
                index[key] = len(index)
        rows.append((tuple(map(index.__getitem__, vector)), 1.0 if positive else 0.0))
    return rows


def _renumber(rows_per_question, names):
    """``(instances, names, any_positive)`` for the given questions' rows.

    Ids are renumbered by first appearance, so the result is what
    :func:`_build_instances` gives on those questions alone, whatever
    index the rows were built with.
    """
    local: dict = {}
    instances = []
    any_positive = False
    for rows in rows_per_question:
        for ids, label in rows:
            for i in ids:
                if i not in local:
                    local[i] = len(local)
            instances.append((tuple(map(local.__getitem__, ids)), label))
            if label:
                any_positive = True
    return instances, [names[i] for i in local], any_positive


def _build_instances(data, kg, gen_cfg, cfg):
    """Interned training instances: ``(instances, names, any_positive)``.

    Each instance is ``(feature ids in assemble order, label)``, and
    ``names[i]`` is the feature key of id ``i``.  Every assembled feature
    has value 1.0, so the ids alone are the vector.
    """
    index: dict = {}
    rows = [question_rows(example, kg, gen_cfg, cfg, index) for example in data]
    return _renumber(rows, list(index))


def _columns(instances, n):
    """Each id's column: ids that occur in exactly the same instances share one.

    Partition refinement: every instance moves the ids it holds out of
    their class into a fresh class, one per class it touches.
    """
    klass = [0] * n
    classes = 1
    for ids, _ in instances:
        fresh: dict = {}
        for i in ids:
            old = klass[i]
            new = fresh.get(old)
            if new is None:
                new = fresh[old] = classes
                classes += 1
            klass[i] = new
    column: dict = {}
    return [column.setdefault(c, len(column)) for c in klass]


def _fit(instances, names, cfg: TrainConfig) -> tuple[dict, tuple[float, ...]]:
    """Per-coordinate AdaGrad with proximal L2 over interned instances.

    Returns the ``{name: weight}`` dict, zero weights dropped, and the
    per-epoch losses.  Every float, and the dict's key order, is what the
    same loop over string-keyed dicts, scored with ``kernel.dot``, gives.
    """
    n = len(names)
    col = _columns(instances, n)
    m = max(col, default=-1) + 1
    weights = [0.0] * m
    grad_sq = [0.0] * m
    rng = random.Random(cfg.seed)
    order = list(range(len(instances)))
    rng.shuffle(order)
    # An instance is scored over the column of each of its ids, in id order,
    # and updated once per distinct column.
    shared = []
    for ids, label in instances:
        cols = tuple(map(col.__getitem__, ids))
        shared.append((cols, tuple(dict.fromkeys(cols)), label))
    # rank: each id's place among the first epoch's first updates, which is
    # the dict loop's key order.  kernel.dot walks the smaller operand: the
    # weight dict, in that order, when it holds no more keys than the
    # instance.  Such an instance is summed in rank order, untouched ids
    # (weight 0.0, which leaves a sum unchanged) last.  That is the first few
    # instances of the first epoch, and one that holds every feature.
    rank: dict = {}
    first_epoch = list(shared)
    for idx in order:
        ids, label = instances[idx]
        if len(rank) <= len(ids):
            ranked = sorted(ids, key=lambda i: rank.get(i, n))
            first_epoch[idx] = (tuple(map(col.__getitem__, ranked)), shared[idx][1], label)
        for i in ids:
            rank.setdefault(i, len(rank))
    later_epochs = [first_epoch[idx] if len(ids) == n else shared[idx]
                    for idx, (ids, _) in enumerate(instances)]

    # the penalty and the returned dict read every id through its column, in rank order
    rank_cols = [col[i] for i in rank]
    lr, l2, eps, sqrt, log = cfg.learning_rate, cfg.l2, _ADA_EPS, math.sqrt, math.log
    epoch_losses = []
    for epoch in range(cfg.epochs):
        if epoch:
            rng.shuffle(order)
        epoch_instances = later_epochs if epoch else first_epoch
        loss = 0.0
        for idx in order:
            cols, distinct, label = epoch_instances[idx]
            s = 0.0
            for c in cols:
                s += weights[c]
            p = sigmoid(s)
            # log-loss measured before the update
            loss += -log(max(p if label else 1.0 - p, 1e-300))
            g = p - label
            g2 = g * g
            for c in distinct:
                acc = grad_sq[c] + g2
                grad_sq[c] = acc
                eta = lr / (sqrt(acc) + eps)
                w = weights[c] - eta * g
                if l2:
                    w /= 1.0 + eta * l2  # proximal shrinkage
                weights[c] = w
        ranked = [weights[c] for c in rank_cols]
        penalty = 0.5 * l2 * sum(map(mul, ranked, ranked))
        epoch_losses.append(loss / len(instances) + penalty)
    if not math.isfinite(epoch_losses[-1]):
        raise ConfigError(f"training diverged: final epoch loss is {epoch_losses[-1]}")
    model_weights = {names[i]: weights[c] for i, c in zip(rank, rank_cols) if weights[c] != 0.0}
    return model_weights, tuple(epoch_losses)


def train(
    data: list[DatasetExample],
    kg: KnowledgeGraph,
    gen_cfg: GenConfig,
    cfg: TrainConfig,
) -> TrainResult:
    """L2-regularized logistic regression with per-coordinate AdaGrad steps.

    Instance order is shuffled each epoch by a generator seeded from
    ``cfg.seed``; identical inputs and seed give an identical model.  A
    corpus with no positive anywhere yields the zero model with the
    ``all_negative`` warning set.
    """
    if not data:
        raise ConfigError("training data must be non-empty")
    return _train_instances(*_build_instances(data, kg, gen_cfg, cfg), gen_cfg, cfg)


def train_rows(rows_per_question, names, gen_cfg: GenConfig, cfg: TrainConfig) -> TrainResult:
    """:func:`train` on questions already turned into rows by :func:`question_rows`.

    ``names`` is the key list of the index the rows were built with; the
    result is what :func:`train` gives on those questions.
    """
    return _train_instances(*_renumber(rows_per_question, names), gen_cfg, cfg)


def _train_instances(instances, names, any_positive, gen_cfg, cfg) -> TrainResult:
    digest = fingerprint(gen_cfg, cfg)
    if not any_positive:
        return TrainResult(
            model=Model(weights={}, config_fingerprint=digest),
            epoch_losses=(),
            all_negative=True,
        )
    weights, epoch_losses = _fit(instances, names, cfg)
    return TrainResult(
        model=Model(weights=weights, config_fingerprint=digest),
        epoch_losses=epoch_losses,
        all_negative=False,
    )


def top_features(model: Model, k: int) -> list[tuple[str, float]]:
    """k highest-weight entries, descending by weight, ties by key text."""
    if k < 0:
        raise ConfigError("k must be >= 0")
    ranked = sorted(model.weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def save_model(model: Model, path) -> None:
    """Write the versioned text format, keys sorted ascending.

    Weights print via ``repr`` so they parse back to the identical float.
    The text goes to a temporary file beside ``path`` that then replaces
    it, so a failed write leaves any earlier file at ``path`` as it was.
    """
    lines = [f"{MODEL_MAGIC} v{model.version} {model.config_fingerprint}"]
    for key in sorted(model.weights):
        lines.append(f"{key}\t{model.weights[key]!r}")
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the model file, not the temporary one
        raise
    try:
        with fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not UTF-8 ({exc.reason})") from None
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != MODEL_MAGIC or not header[1].startswith("v"):
        raise ModelFormatError(f"bad model header: {lines[0]!r}")
    try:
        version = int(header[1][1:])
    except ValueError:
        raise ModelFormatError(f"bad model version: {header[1]!r}") from None
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    weights = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        key, sep, value = line.partition("\t")
        if not sep:
            raise ModelFormatError(f"line {lineno}: expected key<TAB>weight")
        try:
            weights[key] = float(value)
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad weight {value!r}") from None
        if not math.isfinite(weights[key]):
            raise ModelFormatError(f"line {lineno}: weight {value!r} is not finite")
    return Model(weights=weights, config_fingerprint=header[2], version=version)
