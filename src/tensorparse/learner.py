"""Binary logistic ranker over (query, candidate) pairs.

Training is answer-supervised: per query, candidates whose denotation
reaches the maximum nonzero F1 against the gold answers are positives,
everything else is negative.  Optimization is AdaGrad with proximal L2
shrinkage, single-threaded and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
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
    """Highest-scoring candidate; ties broken by ascending serialized form."""
    best = None
    best_key = None
    for c in candidates:
        key = (-score(model, features.assemble(query_tokens, c)),
               logform.serialize(c.logical_form))
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best


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


def _build_instances(data, kg, gen_cfg, cfg):
    instances = []
    any_positive = False
    for example in data:
        tokens = features.tokenize(example.question)
        if not tokens:
            continue
        candidates = logform.generate_candidates(tokens, kg, gen_cfg)
        labeled = label_candidates(candidates, example.answers, kg)
        negatives_kept = 0
        for candidate, positive in labeled:  # candidates arrive sorted by form
            if not positive:
                if negatives_kept >= cfg.negative_cap:
                    continue
                negatives_kept += 1
            else:
                any_positive = True
            instances.append((features.assemble(tokens, candidate), 1.0 if positive else 0.0))
    return instances, any_positive


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
    digest = fingerprint(gen_cfg, cfg)
    instances, any_positive = _build_instances(data, kg, gen_cfg, cfg)
    if not any_positive:
        return TrainResult(
            model=Model(weights={}, config_fingerprint=digest),
            epoch_losses=(),
            all_negative=True,
        )

    weights: dict = {}
    grad_sq: dict = {}
    rng = random.Random(cfg.seed)
    order = list(range(len(instances)))
    epoch_losses = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        loss = 0.0
        for idx in order:
            vector, label = instances[idx]
            s = dot(weights, vector)
            p = sigmoid(s)
            # log-loss measured before the update
            loss += -math.log(max(p if label else 1.0 - p, 1e-300))
            base_grad = p - label
            for key, value in vector.items():
                g = base_grad * value
                acc = grad_sq.get(key, 0.0) + g * g
                grad_sq[key] = acc
                eta = cfg.learning_rate / (math.sqrt(acc) + _ADA_EPS)
                w = weights.get(key, 0.0) - eta * g
                if cfg.l2:
                    w /= 1.0 + eta * cfg.l2  # proximal shrinkage
                weights[key] = w
        penalty = 0.5 * cfg.l2 * sum(w * w for w in weights.values())
        epoch_losses.append(loss / len(instances) + penalty)
    if not math.isfinite(epoch_losses[-1]):
        raise ConfigError(f"training diverged: final epoch loss is {epoch_losses[-1]}")
    weights = {k: w for k, w in weights.items() if w != 0.0}
    return TrainResult(
        model=Model(weights=weights, config_fingerprint=digest),
        epoch_losses=tuple(epoch_losses),
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
    """
    lines = [f"{MODEL_MAGIC} v{model.version} {model.config_fingerprint}"]
    for key in sorted(model.weights):
        lines.append(f"{key}\t{model.weights[key]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
