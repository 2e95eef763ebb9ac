"""Binary logistic ranker over (query, candidate) pairs.

Training is answer-supervised: per query, candidates whose denotation
reaches the maximum nonzero F1 against the gold answers are positives,
everything else is negative.  Optimization is AdaGrad with proximal L2
shrinkage, single-threaded and bit-reproducible for a fixed seed.

One pass per question: :func:`evaluator.prepare` tokenizes it, generates
its candidates and scores their F1s, and training rows, evaluation and
cross-validation folds all read that one result.

Training interns feature keys.  Rows: :func:`question_rows` turns one
prepared question into its rows, ``(feature ids, label)`` for every
candidate, ids taken from a key index shared by the whole run (every
assembled feature has value 1.0, so the ids are the vector).  No
candidate is left out: generation emits only forms that denote
something, a few per question.  :func:`train_rows` trains on any set of
questions' rows with the run's own ids: columns come from co-occurrence,
a score adds its features in the instance's own order, and the L2
penalty and the model go in key order, the model file's, so no float
depends on an id's number.  So cross-validation prepares each question
and builds its rows once, and every fold trains the model :func:`train`
gives on that fold.

Columns: ids that occur in exactly the same instances get the same
gradient at the same steps from the same zero start, so their weights
and squared-gradient sums stay bit-identical and one column, a slot of
the flat weight and squared-gradient lists, holds them all.  A score
still adds every id's column weight in the instance's id order; the
AdaGrad step runs once per distinct column.  The returned :class:`Model`
maps key text to weight, the keys the model file holds, and keeps the
:class:`GenConfig` it was trained with, whose cap the file's header holds.

Prediction scores through the paper's factorization, score = qᵀWu plus
a denotation-size weight: a :class:`Model` also holds W as one row
``{u: weight}`` per query token, so :func:`predict` builds no pair key
and adds each candidate's weights in the order :func:`score` over
:func:`features.assemble` adds them, to the same float.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, field
from operator import mul
from types import MappingProxyType
from typing import Mapping, Optional

from . import ConfigError, TensorparseError, features, logform
from .dataset import DatasetExample
from .kernel import dot
from .kgraph import KnowledgeGraph, _shown
from .logform import Candidate, GenConfig

MODEL_MAGIC = "tensorparse-model"
MODEL_VERSION = 2

_ADA_EPS = 1e-8

# What save_model writes: ASCII digits only.  int() and float() would also
# take "_" separators, padding whitespace and any Unicode decimal digit.
_ASCII_DIGITS = re.compile(r"[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
# The keys features.assemble gives: tokenize yields [a-z0-9]+ tokens.
_PAIR_KEY = re.compile(r"p:[a-z0-9]+\|[a-z0-9]+")
_LF_KEYS = frozenset(map(features.lf_key, features.LF_FEATURE_NAMES))


class ModelFormatError(TensorparseError):
    pass


@dataclass(frozen=True)
class Model:
    """Feature weights keyed by encoded feature key, W's rows, and the
    generator settings the model was trained with, which ``eval`` and
    ``predict`` generate candidates with.

    ``weights`` is a read-only view over the model's own copy of the
    mapping it is made with, so ``rows`` cannot go stale: every
    ``p:<q>|<u>`` key, split at its first ``|``, is the entry ``u`` of
    the row ``q``.  ``rows`` is derived, takes no part in equality, and
    is not to be mutated.
    """

    weights: Mapping[str, float]
    gen_cfg: GenConfig = GenConfig()
    rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = dict(self.weights)
        rows: dict = {}
        for key, weight in weights.items():
            if key.startswith(features.PAIR_PREFIX) and "|" in key:
                q, _, u = key[len(features.PAIR_PREFIX):].partition("|")
                rows.setdefault(q, {})[u] = weight
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be > 0 and finite")
        if not 0 <= self.l2 < math.inf:
            raise ConfigError("l2 must be >= 0 and finite")


@dataclass(frozen=True)
class TrainResult:
    model: Model
    epoch_losses: tuple[float, ...]
    all_negative: bool  # warning: no query had a positive candidate


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def score(model: Model, vector: dict) -> float:
    """Linear score: the weights of ``vector``'s keys, added in its key order.

    The classifier probability is sigmoid(score).  :func:`predict` gives
    every candidate the float ``score(model, features.assemble(...))``
    gives, without building the vector; this is its specification.
    """
    return dot(vector, model.weights)


def _scores(model: Model, query_tokens, candidates) -> list[float]:
    """``score(model, features.assemble(query_tokens, c))`` of each candidate.

    The rows of the query's distinct tokens are fetched once; a
    candidate's score walks them in first-occurrence order, each over the
    candidate's distinct utterance tokens in order, then adds its
    denotation-size weight: the order in which ``dot`` adds the assembled
    vector's weights, so every float is the same.  Query tokens hold no
    ``|``, as :func:`features.tokenize` gives them.
    """
    rows = [row for row in map(model.rows.get, dict.fromkeys(query_tokens)) if row]
    weight_of = model.weights.get
    scores = []
    for c in candidates:
        total = 0.0
        utterance = dict.fromkeys(c.utterance_tokens)
        for row in rows:
            for u in utterance:
                w = row.get(u)
                if w is not None:
                    total += w
        w = weight_of(features.lf_key(features.denotation_size_bucket(len(c.denotation))))
        if w is not None:
            total += w
        scores.append(total)
    return scores


def predict(
    model: Model, query_tokens, candidates: list[Candidate]
) -> Optional[Candidate]:
    """Highest-scoring candidate; ties broken by ascending serialized form.

    Scores are :func:`score` of each candidate's assembled vector, computed
    through the model's rows with no pair key built.  Only the candidates
    tied at the best score are serialized.
    """
    if not candidates:
        return None
    scores = _scores(model, query_tokens, candidates)
    best = max(scores)
    tied = [c for c, s in zip(candidates, scores) if s == best]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda c: logform.serialize(c.logical_form))


def label_candidates(f1s: list[float]) -> list[bool]:
    """Labels for the candidate F1s of a prepared question: those at the
    maximum F1, if it is above 0, are positive; all others negative."""
    best = max(f1s, default=0.0)
    return [best > 0.0 and s == best for s in f1s]


def question_rows(question, index: dict) -> list:
    """One prepared question's training rows: ``[(feature ids, label)]``.

    ``question`` is :func:`evaluator.prepare`'s one pass over it.  Every
    candidate gives one row, in candidate order; ids are in assemble
    order, and a key new to ``index`` gets the next id there.  A question
    with no tokens has no rows.
    """
    tokens, candidates, f1s = question
    rows = []
    for candidate, positive in zip(candidates, label_candidates(f1s)):
        vector = features.assemble(tokens, candidate)
        for key in vector:
            if key not in index:
                index[key] = len(index)
        rows.append((tuple(map(index.__getitem__, vector)), 1.0 if positive else 0.0))
    return rows


def _columns(instances, n):
    """Each id's column: ids that occur in exactly the same instances share one.

    Columns are numbered by their lowest id; the ids of ``range(n)`` that
    no instance holds share one column too.
    """
    occurrences: list = [[] for _ in range(n)]
    for k, (ids, _) in enumerate(instances):
        for i in ids:
            occurrences[i].append(k)
    column: dict = {}
    return [column.setdefault(tuple(held), len(column)) for held in occurrences]


def _fit(instances, names, cfg: TrainConfig) -> tuple[dict, tuple[float, ...]]:
    """Per-coordinate AdaGrad with proximal L2 over interned instances.

    ``names[i]`` is the key of id ``i``; keys of ids that no instance
    holds stay out of the model.  A score adds its ids' weights in the
    instance's own order; the L2 penalty and the returned ``{name:
    weight}`` dict, zero weights dropped, go in key order, the model
    file's.  Returns that dict and the per-epoch losses, every float what
    the same loop over string-keyed dicts gives.
    """
    col = _columns(instances, len(names))
    m = max(col, default=-1) + 1
    weights = [0.0] * m
    grad_sq = [0.0] * m
    # An instance is scored over the column of each of its ids, in id order,
    # and updated once per distinct column.
    shared = []
    for ids, label in instances:
        cols = tuple(map(col.__getitem__, ids))
        shared.append((cols, tuple(dict.fromkeys(cols)), label))
    held = sorted({i for ids, _ in instances for i in ids}, key=names.__getitem__)
    held_cols = [col[i] for i in held]
    rng = random.Random(cfg.seed)
    order = list(range(len(instances)))
    lr, l2, eps, sqrt, log = cfg.learning_rate, cfg.l2, _ADA_EPS, math.sqrt, math.log
    epoch_losses = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        loss = 0.0
        for idx in order:
            cols, distinct, label = shared[idx]
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
                # proximal shrinkage; with l2 == 0 it divides by exactly 1.0
                weights[c] = (weights[c] - eta * g) / (1.0 + eta * l2)
        held_weights = [weights[c] for c in held_cols]
        penalty = 0.5 * l2 * sum(map(mul, held_weights, held_weights))
        epoch_losses.append(loss / len(instances) + penalty)
    if not math.isfinite(epoch_losses[-1]):
        raise ConfigError(f"training diverged: final epoch loss is {epoch_losses[-1]}")
    model_weights = {names[i]: weights[c] for i, c in zip(held, held_cols) if weights[c] != 0.0}
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
    from .evaluator import prepare  # evaluator imports this module

    index: dict = {}
    rows = [question_rows(prepare(example, kg, gen_cfg), index) for example in data]
    return train_rows(rows, list(index), gen_cfg, cfg)


def train_rows(rows_per_question, names, gen_cfg: GenConfig, cfg: TrainConfig) -> TrainResult:
    """:func:`train` on questions already turned into rows by :func:`question_rows`.

    ``names`` is the key list of the index the rows were built with, which
    may also hold keys of questions left out; the result is what
    :func:`train` gives on the given questions.
    """
    instances = [row for rows in rows_per_question for row in rows]
    if not any(label for _, label in instances):
        return TrainResult(
            model=Model(weights={}, gen_cfg=gen_cfg),
            epoch_losses=(),
            all_negative=True,
        )
    weights, epoch_losses = _fit(instances, names, cfg)
    return TrainResult(
        model=Model(weights=weights, gen_cfg=gen_cfg),
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

    The header is ``tensorparse-model v2 max_candidates=<training's cap>``.
    Weights print via ``repr`` so they parse back to the identical float.
    The text goes to a temporary file beside ``path`` that then replaces
    it, so a failed write leaves any earlier file at ``path`` as it was.
    """
    lines = [f"{MODEL_MAGIC} v{MODEL_VERSION} max_candidates={model.gen_cfg.max_candidates}"]
    for key in sorted(model.weights):
        lines.append(f"{key}\t{model.weights[key]!r}")
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        if exc.filename == tmp:  # name the model file, not the temporary one
            exc.filename = os.fspath(path)
            del exc.filename2
        raise


def _ascii_int(text: str) -> Optional[int]:
    """The value of ``text`` if it is ASCII digits that int() converts."""
    if not _ASCII_DIGITS.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def load_model(path) -> Model:
    """Read what :func:`save_model` writes; anything else is a :class:`ModelFormatError`,
    a v1 file too, whose header does not say its candidate cap."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = [line.rstrip("\n") for line in fh]
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{_shown(str(path))}: not UTF-8 ({exc.reason})") from None
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != MODEL_MAGIC or not header[1].startswith("v"):
        raise ModelFormatError(f"bad model header: {lines[0]!r}")
    version = _ascii_int(header[1][1:])
    if version is None:
        raise ModelFormatError(f"bad model version: {header[1]!r}")
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}, expected {MODEL_VERSION}")
    name, _, value = header[2].partition("=")
    cap = _ascii_int(value) if name == "max_candidates" else None
    if not cap:
        raise ModelFormatError(f"bad model setting {header[2]!r}: expected max_candidates=N >= 1")
    weights = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        key, sep, value = line.partition("\t")
        if not sep:
            raise ModelFormatError(f"line {lineno}: expected key<TAB>weight")
        if key in weights:
            raise ModelFormatError(f"line {lineno}: duplicate key {key!r}")
        if key not in _LF_KEYS and not _PAIR_KEY.fullmatch(key):
            raise ModelFormatError(f"line {lineno}: unknown feature key {key!r}")
        try:
            weights[key] = float(value)
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad weight {value!r}") from None
        if not math.isfinite(weights[key]):
            raise ModelFormatError(f"line {lineno}: weight {value!r} is not finite")
        if not _DECIMAL.fullmatch(value):
            raise ModelFormatError(f"line {lineno}: bad weight {value!r}")
    return Model(weights=weights, gen_cfg=GenConfig(max_candidates=cap))
