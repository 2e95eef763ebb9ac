"""Binary logistic ranker over (query, candidate) pairs.

Training is answer-supervised: per query, candidates whose denotation
reaches the maximum nonzero F1 against the gold answers are positives,
everything else is negative.  Optimization is AdaGrad with proximal L2
shrinkage; one fit runs in one thread and is bit-reproducible for a
fixed seed.  Cross-validation runs its folds' fits in up to one process
per usable CPU (:func:`evaluator.cross_validate`), each the same fit.

One pass per question: :func:`evaluator.prepare` tokenizes it, generates
its candidates and scores their F1s, and training rows, evaluation and
cross-validation folds all read that one result.

Training interns feature keys.  Rows: :func:`question_rows` turns one
prepared question into its rows, ``(feature ids, label)`` for every
candidate, ids taken from a key index shared by the whole run (every
assembled feature has value 1.0, so the ids are the vector).  No
candidate is left out: generation emits only forms that denote
something, a few per question.

Training has two parts.  A :class:`Layout` is built once per run from
all its questions' rows: each id's column, each row's columns, and the
ids in key order, the model file's.  :func:`fit_questions` then fits any
subset of those questions, with no layout work of its own: a score adds
its features in the instance's own order, and the L2 penalty and the
model go in key order, so no float depends on an id's number.
:func:`train` fits all of its layout's questions; cross-validation
prepares each question, builds its rows and the layout once, and every
fold's :func:`fit_questions` gives the model :func:`train` gives on that
fold.

Columns: ids that occur in exactly the same instances get the same
gradient at the same steps from the same zero start, so their weights
and squared-gradient sums stay bit-identical and one column, a slot of
the flat weight and squared-gradient lists, holds them all.  A score
still adds every id's column weight in the instance's id order; the
AdaGrad step runs once per distinct column.  The run's columns refine a
fold's own: ids held by the same instances of the run are held by the
same instances of the fold, and a column the fold never holds stays 0.0.
The step loop calls no function written in Python: the logistic is
computed in line and each epoch's shuffle makes ``random.shuffle``'s
draws itself (:func:`_shuffle`).  The returned :class:`Model`
maps key text to weight, the keys the model file holds, and keeps the
:class:`GenConfig` it was trained with, whose cap the file's header holds.

Prediction scores through the paper's factorization, score = qᵀWu plus
a denotation-size weight: a :class:`Model` also holds W as one row
``{u: weight}`` per query token and the weight of each denotation size's
key of :data:`features.SIZE_KEYS` in a table indexed by size, both built
when the model is, so :func:`predict` builds no key and adds each candidate's
weights in the order :func:`score` over :func:`features.assemble` adds
them, to the same float, and gives a tie to the earliest candidate.
"""

from __future__ import annotations

import math
import os
import random
import re
import stat
import sys
from dataclasses import dataclass, field
from operator import mul
from types import MappingProxyType
from typing import Mapping, Optional

from . import ConfigError, TensorparseError, features
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
_LF_KEYS = frozenset(features.SIZE_KEYS)


class ModelFormatError(TensorparseError):
    pass


@dataclass(frozen=True)
class Model:
    """Feature weights keyed by encoded feature key, W's rows, and the
    generator settings the model was trained with, which ``eval`` and
    ``predict`` generate candidates with.

    ``weights`` is a read-only view over the model's own copy of the
    mapping it is made with, so the derived fields cannot go stale:
    every ``p:<q>|<u>`` key, split at its first ``|``, is the entry ``u``
    of the row ``q`` in ``rows``, and ``size_weights`` holds the weight of
    each key of :data:`features.SIZE_KEYS` in its slot, ``None`` where the
    model has none.  The derived fields take no part in equality or
    ``repr``, and ``rows`` is not to be mutated.
    """

    weights: Mapping[str, float]
    gen_cfg: GenConfig = GenConfig()
    rows: dict = field(init=False, repr=False, compare=False)
    size_weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = dict(self.weights)
        rows: dict = {}
        for key, weight in weights.items():
            if key.startswith(features.PAIR_PREFIX) and "|" in key:
                q, _, u = key[len(features.PAIR_PREFIX):].partition("|")
                rows.setdefault(q, {})[u] = weight
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "size_weights", tuple(map(weights.get, features.SIZE_KEYS)))


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


def score(model: Model, vector: dict) -> float:
    """Linear score: the weights of ``vector``'s keys, added in its key order.

    The classifier probability is the logistic of the score.
    :func:`predict` gives every candidate the float ``score(model,
    features.assemble(...))`` gives, without building the vector; this is
    its specification.
    """
    return dot(vector, model.weights)


def _scores(model: Model, query_tokens, candidates) -> list[float]:
    """``score(model, features.assemble(query_tokens, c))`` of each candidate.

    The rows of the query's distinct tokens are fetched once; a
    candidate's score walks them in first-occurrence order, each over the
    candidate's distinct utterance tokens in order, then adds its
    denotation-size weight, read from ``model.size_weights`` by size: the
    order in which ``dot`` adds the assembled vector's weights, so every
    float is the same.  Query tokens hold no ``|``, as
    :func:`features.tokenize` gives them.
    """
    rows = [row for row in map(model.rows.get, dict.fromkeys(query_tokens)) if row]
    sizes = model.size_weights
    last = len(sizes) - 1
    scores = []
    for c in candidates:
        total = 0.0
        utterance = dict.fromkeys(c.utterance_tokens)
        for row in rows:
            for u in utterance:
                w = row.get(u)
                if w is not None:
                    total += w
        n = len(c.denotation)
        w = sizes[n if n < last else last]
        if w is not None:
            total += w
        scores.append(total)
    return scores


def predict(
    model: Model, query_tokens, candidates: list[Candidate]
) -> Optional[Candidate]:
    """Highest-scoring candidate; a tie goes to the earliest of the best.

    Scores are :func:`score` of each candidate's assembled vector, computed
    through the model's rows with no pair key built.  The lists of
    :func:`logform.generate_candidates` ascend by the text of their forms,
    so there the earliest is the smallest form.
    """
    if not candidates:
        return None
    scores = _scores(model, query_tokens, candidates)
    return candidates[scores.index(max(scores))]


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


class Layout:
    """A run's training rows laid out once for :func:`fit_questions`.

    Built from every question's :func:`question_rows` and ``names``, the
    key of each id.  ``width`` is the number of columns (:func:`_columns`
    over all the run's instances); ``instances[k]`` lays out question
    ``k``'s rows as ``(column tuple, distinct columns, label)``, the
    column of each id in the row's id order, then each column once;
    ``held`` lists each id that some row holds, in key order, the model
    file's, and ``held_cols`` their columns.
    """

    __slots__ = ("names", "width", "instances", "held", "held_cols")

    def __init__(self, rows_per_question, names):
        col = _columns([row for rows in rows_per_question for row in rows], len(names))
        self.names = names
        self.width = max(col, default=-1) + 1
        self.instances = []
        for rows in rows_per_question:
            laid_out = []
            for ids, label in rows:
                cols = tuple(map(col.__getitem__, ids))
                laid_out.append((cols, tuple(dict.fromkeys(cols)), label))
            self.instances.append(laid_out)
        self.held = sorted({i for rows in rows_per_question for ids, _ in rows for i in ids},
                           key=names.__getitem__)
        self.held_cols = [col[i] for i in self.held]


def fit_questions(layout: Layout, questions, cfg: TrainConfig) -> tuple[dict, tuple[float, ...]]:
    """The weights and epoch losses :func:`train` gives on the questions at
    positions ``questions`` of ``layout``, in that order: ``({}, ())`` if
    no row of theirs is positive.

    The run's columns refine those of any subset of its rows (ids held by
    the same rows of the run are held by the same rows of the subset), and
    a column that no row of the subset holds stays at 0.0, adds 0.0 to the
    L2 penalty and is left out of the model, so every float is the one a
    layout of the subset's rows alone gives.
    """
    instances = [row for k in questions for row in layout.instances[k]]
    if not any(label for _, _, label in instances):
        return {}, ()
    return _fit(layout, instances, cfg)


def _draws(n: int) -> list:
    """``(i, bit length of i + 1)`` for each ``i`` from ``n - 1`` down to 1:
    the swaps of a shuffle of ``n`` items, as :func:`_shuffle` takes them."""
    return [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]


def _shuffle(order: list, draws: list, getrandbits) -> None:
    """Shuffle ``order`` in place as ``random.Random.shuffle`` does, drawing
    from the generator whose ``getrandbits`` is given; ``draws`` is
    ``_draws(len(order))``.

    ``shuffle`` swaps position ``i`` with ``randbelow(i + 1)``, which calls
    ``getrandbits(k)``, ``k`` the bit length of ``i + 1``, until the value
    is at most ``i``: the same draws, with no call per swap but theirs.
    """
    for i, k in draws:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]


def _fit(layout: Layout, instances, cfg: TrainConfig) -> tuple[dict, tuple[float, ...]]:
    """Per-coordinate AdaGrad with proximal L2 over laid-out instances.

    A score adds its ids' column weights in the instance's own order and
    the AdaGrad step runs once per distinct column; the L2 penalty and the
    returned ``{name: weight}`` dict, zero weights dropped, go in key
    order, the model file's.  Returns that dict and the per-epoch losses,
    every float what the same loop over string-keyed dicts gives.

    Each epoch shuffles the instance order as ``random.Random(cfg.seed)``
    would (:func:`_shuffle`), and a step computes the logistic in line, so
    the step loop calls no function written in Python.
    """
    weights = [0.0] * layout.width
    grad_sq = [0.0] * layout.width
    n = len(instances)
    order = list(range(n))
    draws = _draws(n)
    getrandbits = random.Random(cfg.seed).getrandbits
    lr, l2, eps, sqrt, log, exp = cfg.learning_rate, cfg.l2, _ADA_EPS, math.sqrt, math.log, math.exp
    held_cols = layout.held_cols
    epoch_losses = []
    for _ in range(cfg.epochs):
        _shuffle(order, draws, getrandbits)
        loss = 0.0
        for idx in order:
            cols, distinct, label = instances[idx]
            s = 0.0
            for c in cols:
                s += weights[c]
            if s >= 0:
                p = 1.0 / (1.0 + exp(-s))
            else:
                e = exp(s)
                p = e / (1.0 + e)
            # log-loss measured before the update; a NaN is not clamped, so a
            # diverged fit reports its loss as nan
            q = p if label else 1.0 - p
            if 1e-300 > q:
                q = 1e-300
            loss -= log(q)
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
        epoch_losses.append(loss / n + penalty)
    if not math.isfinite(epoch_losses[-1]):
        raise ConfigError(f"training diverged: final epoch loss is {epoch_losses[-1]}")
    names = layout.names
    model_weights = {names[i]: weights[c] for i, c in zip(layout.held, held_cols)
                     if weights[c] != 0.0}
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
    # the rows are laid out, then dropped: the fit reads only the layout
    layout = Layout([question_rows(prepare(example, kg, gen_cfg), index) for example in data],
                    list(index))
    weights, epoch_losses = fit_questions(layout, range(len(data)), cfg)
    return TrainResult(
        model=Model(weights=weights, gen_cfg=gen_cfg),
        epoch_losses=epoch_losses,
        all_negative=not epoch_losses,
    )


def top_features(model: Model, k: int) -> list[tuple[str, float]]:
    """k highest-weight entries, descending by weight, ties by key text."""
    if k < 0:
        raise ConfigError("k must be >= 0")
    ranked = sorted(model.weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _is_stdout(st: os.stat_result) -> bool:
    """Whether ``st`` is the ``os.stat`` of the file standard output writes to."""
    try:
        return os.path.samestat(st, os.fstat(sys.stdout.fileno()))
    except (AttributeError, ValueError, OSError):  # no stdout, or one with no file
        return False


def write_replacing(path, text: str, errors: str = "strict") -> None:
    """Write ``text`` to ``path`` in UTF-8, with ``errors`` as :func:`open` takes
    it.  A regular file, or a path with nothing there yet, is written through a
    temporary file beside it that then replaces it: a failed write leaves any
    earlier file as it was, and a symbolic link stays a link to the new file.
    Anything else that exists, such as a FIFO or ``/dev/stdout``, is opened and
    written in place; it is told apart by ``os.stat`` on ``path`` itself, since
    the real path of a pipe's ``/dev/stdout`` does not exist.  The file that
    standard output writes to, whatever its kind, is written through
    ``sys.stdout``, so what the program prints next follows the text there:
    replacing it would leave stdout writing to the old, unlinked file.  An
    error names ``path``, not the temporary file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and _is_stdout(st):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8", errors))
        return
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8", errors=errors) as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", errors=errors)
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        if exc.filename == tmp:
            exc.filename = os.fspath(path)
            del exc.filename2
        raise


def save_model(model: Model, path) -> None:
    """Write the versioned text format, keys sorted ascending (:func:`write_replacing`).

    The header is ``tensorparse-model v2 max_candidates=<training's cap>``.
    Weights print via ``repr`` so they parse back to the identical float.
    """
    lines = [f"{MODEL_MAGIC} v{MODEL_VERSION} max_candidates={model.gen_cfg.max_candidates}"]
    for key in sorted(model.weights):
        lines.append(f"{key}\t{model.weights[key]!r}")
    write_replacing(path, "\n".join(lines) + "\n")


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
        if key not in _LF_KEYS and not features.PAIR_KEY.fullmatch(key):
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
