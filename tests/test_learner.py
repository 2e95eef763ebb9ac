import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorparse import features, learner, logform
from tensorparse.dataset import DatasetExample
from tensorparse.learner import (
    ConfigError,
    Model,
    ModelFormatError,
    TrainConfig,
    label_candidates,
    load_model,
    predict,
    save_model,
    score,
    top_features,
    train,
)
from tensorparse.logform import Candidate, EntityLit, GenConfig, Join, serialize

from conftest import MINI_CATALOG, graph_from_strings

# a tiny separable corpus over the mini graph: "moneyword" uniquely
# signals the currency relation
SEP_TRIPLES = "brazil\tcurrency\tbrazilian_real\nethiopia\tadjoins\tkenya\nkenya\tadjoins\tethiopia\n"

SEP_DATA = [
    DatasetExample("what moneyword does brazil use?", ("brazilian real",)),
    DatasetExample("moneyword of brazil?", ("brazilian real",)),
    DatasetExample("brazil moneyword?", ("brazilian real",)),
    DatasetExample("what places adjoinword ethiopia?", ("kenya",)),
    DatasetExample("adjoinword of ethiopia?", ("kenya",)),
]


@pytest.fixture
def sep_kg():
    return graph_from_strings(SEP_TRIPLES, MINI_CATALOG)


def make_candidate(form, tokens, denotation):
    return Candidate(form, tuple(tokens), frozenset(denotation))


def zero_model():
    return Model(weights={}, config_fingerprint="x")


def test_score_zero_model():
    assert score(zero_model(), {"p:a|b": 1.0}) == 0.0
    assert learner.sigmoid(0.0) == 0.5


def test_score_dot():
    m = Model(weights={"p:borders|adjoins": 2.0}, config_fingerprint="x")
    assert score(m, {"p:borders|adjoins": 1.0}) == 2.0


def test_score_monotone_in_matching_feature():
    m = Model(weights={"p:a|b": 1.0, "p:c|d": 0.5}, config_fingerprint="x")
    base = score(m, {"p:a|b": 1.0})
    assert score(m, {"p:a|b": 1.0, "p:c|d": 1.0}) > base


def test_predict_empty_and_single(mini_kg):
    assert predict(zero_model(), ["q"], []) is None
    only = make_candidate(Join("currency", EntityLit("brazil")), ["the"], {"x"})
    assert predict(zero_model(), ["q"], [only]) is only


def test_predict_prefers_weighted(mini_kg):
    m = Model(weights={"p:q|good": 1.0}, config_fingerprint="x")
    good = make_candidate(Join("currency", EntityLit("brazil")), ["good"], {"x"})
    bad = make_candidate(Join("adjoins", EntityLit("brazil")), ["bad"], {"x"})
    assert predict(m, ["q"], [bad, good]) is good


def test_predict_tie_breaks_by_serialization():
    a = make_candidate(Join("adjoins", EntityLit("brazil")), ["same"], {"x"})
    b = make_candidate(Join("currency", EntityLit("brazil")), ["same"], {"x"})
    chosen = predict(zero_model(), ["q"], [b, a])
    assert serialize(chosen.logical_form) == "join(adjoins, ent(brazil))"


def test_predict_unique_maximum_serializes_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(learner.logform, "serialize", lambda lf: calls.append(lf) or "")
    m = Model(weights={"p:q|good": 1.0}, config_fingerprint="x")
    good = make_candidate(Join("currency", EntityLit("brazil")), ["good"], {"x"})
    bad = make_candidate(Join("adjoins", EntityLit("brazil")), ["bad"], {"x"})
    assert predict(m, ["q"], [bad, good, bad]) is good
    assert calls == []


def test_predict_three_way_tie_takes_smallest_form():
    m = Model(weights={"p:q|same": 1.0, "p:q|low": -1.0}, config_fingerprint="x")
    forms = [Join("film", EntityLit("p1")), Join("actor", EntityLit("p1")),
             Join("character", EntityLit("p1"))]
    tied = [make_candidate(form, ["same"], {"x"}) for form in forms]
    low = make_candidate(EntityLit("brazil"), ["low"], {"x"})  # smallest form, lower score
    chosen = predict(m, ["q"], [tied[0], low, tied[1], tied[2]])
    assert chosen is tied[1]
    assert serialize(chosen.logical_form) == "join(actor, ent(p1))"
    assert serialize(low.logical_form) < serialize(chosen.logical_form)


def test_predict_argmax_scale_invariant():
    m = Model(
        weights={"p:q|a": 0.7, "p:q|b": 0.3, "lf:denot.size.1": 0.1},
        config_fingerprint="x",
    )
    scaled = Model(
        weights={k: 10.0 * v for k, v in m.weights.items()}, config_fingerprint="x"
    )
    cands = [
        make_candidate(Join("currency", EntityLit("brazil")), ["a"], {"x"}),
        make_candidate(Join("adjoins", EntityLit("brazil")), ["b"], {"x", "y"}),
    ]
    assert predict(m, ["q"], cands) is predict(scaled, ["q"], cands)


def test_label_candidates_rules(mini_kg):
    perfect = make_candidate(EntityLit("a"), ["u"], {"brazilian_real"})
    partial = make_candidate(EntityLit("b"), ["u"], {"brazilian_real", "kenya"})
    wrong = make_candidate(EntityLit("c"), ["u"], {"kenya"})
    labeled = label_candidates(
        [perfect, partial, wrong], ["brazilian real"], mini_kg
    )
    assert [flag for _, flag in labeled] == [True, False, False]


def test_label_candidates_all_zero(mini_kg):
    wrong = make_candidate(EntityLit("c"), ["u"], {"kenya"})
    labeled = label_candidates([wrong], ["brazilian real"], mini_kg)
    assert labeled == [(wrong, False)]


def test_label_candidates_ties_both_positive(mini_kg):
    a = make_candidate(EntityLit("a"), ["u"], {"brazilian_real", "kenya"})
    b = make_candidate(EntityLit("b"), ["u"], {"brazilian_real", "sudan"})
    labeled = label_candidates([a, b], ["brazilian real"], mini_kg)
    assert [flag for _, flag in labeled] == [True, True]


def test_train_separable_corpus(sep_kg):
    cfg = TrainConfig(epochs=20)
    result = train(SEP_DATA, sep_kg, GenConfig(), cfg)
    assert not result.all_negative
    # the bridging pair feature ends up positive
    assert result.model.weights["p:moneyword|currency"] > 0
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    # 100% of training queries predicted correctly
    from tensorparse import evaluator

    report = evaluator.evaluate(result.model, SEP_DATA, sep_kg, GenConfig())
    assert report.average_f1 == 1.0


def test_train_all_negative_corpus(sep_kg):
    data = [DatasetExample("what moneyword does brazil use?", ("no such answer",))]
    result = train(data, sep_kg, GenConfig(), TrainConfig(epochs=2))
    assert result.all_negative
    assert result.model.weights == {}


def test_train_empty_data_is_config_error(sep_kg):
    with pytest.raises(ConfigError):
        train([], sep_kg, GenConfig(), TrainConfig())


def test_train_deterministic(sep_kg):
    cfg = TrainConfig(seed=9)
    a = train(SEP_DATA, sep_kg, GenConfig(), cfg)
    b = train(SEP_DATA, sep_kg, GenConfig(), cfg)
    assert a.model == b.model
    assert a.epoch_losses == b.epoch_losses


def test_train_heavy_l2_shrinks_weights(sep_kg):
    result = train(SEP_DATA, sep_kg, GenConfig(), TrainConfig(l2=1e6))
    assert result.model.weights
    assert max(abs(w) for w in result.model.weights.values()) <= 1e-3


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(l2=-1.0)


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", 1e308),  # finite, but the weights overflow
    ("l2", math.nan),
    ("l2", math.inf),
])
def test_non_finite_training_settings_are_config_errors(sep_kg, field, value):
    with pytest.raises(ConfigError):
        train(SEP_DATA, sep_kg, GenConfig(), TrainConfig(**{field: value}))


def test_top_features_ordering():
    m = Model(
        weights={"p:a|a": 1.0, "p:b|b": 2.0, "p:a|b": 2.0, "lf:denot.empty": -3.0},
        config_fingerprint="x",
    )
    assert top_features(m, 0) == []
    assert top_features(m, 10) == [
        ("p:a|b", 2.0),
        ("p:b|b", 2.0),
        ("p:a|a", 1.0),
        ("lf:denot.empty", -3.0),
    ]
    assert top_features(m, 2) == [("p:a|b", 2.0), ("p:b|b", 2.0)]


def test_model_file_round_trip(tmp_path, sep_kg):
    result = train(SEP_DATA, sep_kg, GenConfig(), TrainConfig())
    path = tmp_path / "m.model"
    save_model(result.model, path)
    loaded = load_model(path)
    assert loaded == result.model
    # byte-identical when re-saved
    again = tmp_path / "m2.model"
    save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    first_line = path.read_text().splitlines()[0]
    assert first_line == f"tensorparse-model v1 {result.model.config_fingerprint}"


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text("tensorparse-model v99 abc\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text("tensorparse-model v1 abc\np:a|b no-tab\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    for weight in ("nan", "inf", "-inf"):
        bad.write_text(f"tensorparse-model v1 abc\np:a|b\t{weight}\n")
        with pytest.raises(ModelFormatError, match=f"line 2: weight '{weight}' is not finite"):
            load_model(bad)


def test_failed_save_keeps_the_previous_model(tmp_path, monkeypatch):
    path = tmp_path / "m.model"
    save_model(Model(weights={"p:a|b": 1.5}, config_fingerprint="old"), path)
    before = path.read_bytes()

    class HalfWriter:
        """Writes the first half of the text, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

    real_open = open
    monkeypatch.setattr(learner, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                        raising=False)
    weights = {f"p:q{i}|u{i}": float(i) for i in range(100)}
    with pytest.raises(OSError, match="no space"):
        save_model(Model(weights=weights, config_fingerprint="new"), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.model"]


def test_save_into_missing_directory_names_the_model_file(tmp_path):
    path = tmp_path / "missing" / "m.model"
    with pytest.raises(FileNotFoundError) as exc:
        save_model(zero_model(), path)
    assert str(exc.value).endswith(f"'{path}'")
    assert os.listdir(tmp_path) == []


tokens = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6)
feature_keys = st.one_of(
    st.builds(features.pair_key, tokens, tokens),
    st.sampled_from(sorted(features.lf_key(name) for name in features.LF_FEATURE_NAMES)),
)
finite_weights = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308]),
)


fingerprints = st.text("0123456789abcdef", min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(feature_keys, finite_weights, max_size=30), fingerprints)
def test_model_file_round_trip_property(tmp_path_factory, weights, digest):
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(Model(weights=weights, config_fingerprint=digest), path)
    loaded = load_model(path)
    assert loaded.config_fingerprint == digest
    assert list(loaded.weights.items()) == sorted(weights.items())
    assert [repr(w) for w in loaded.weights.values()] == [repr(weights[k]) for k in sorted(weights)]


# -- old-vs-new oracle ----------------------------------------------------------
#
# The training loop as it was over string-keyed dicts, kept verbatim as the
# reference: learner.train must give the same weights, in the same key order,
# and the same epoch losses, to the last bit.


def reference_dot(a: dict, b: dict) -> float:
    """Sum over shared keys of the products of values; symmetric."""
    if len(b) < len(a):
        a, b = b, a
    total = 0.0
    get = b.get
    for k, v in a.items():
        w = get(k)
        if w is not None:
            total += v * w
    return total


def reference_build_instances(data, kg, gen_cfg, cfg):
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


def reference_fit(instances, cfg):
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
            s = reference_dot(weights, vector)
            p = learner.sigmoid(s)
            # log-loss measured before the update
            loss += -math.log(max(p if label else 1.0 - p, 1e-300))
            base_grad = p - label
            for key, value in vector.items():
                g = base_grad * value
                acc = grad_sq.get(key, 0.0) + g * g
                grad_sq[key] = acc
                eta = cfg.learning_rate / (math.sqrt(acc) + learner._ADA_EPS)
                w = weights.get(key, 0.0) - eta * g
                if cfg.l2:
                    w /= 1.0 + eta * cfg.l2  # proximal shrinkage
                weights[key] = w
        penalty = 0.5 * cfg.l2 * sum(w * w for w in weights.values())
        epoch_losses.append(loss / len(instances) + penalty)
    weights = {k: w for k, w in weights.items() if w != 0.0}
    return list(weights.items()), tuple(epoch_losses)


# The first epoch and a later one; tests/test_golden.py pins the default 15.
ORACLE_EPOCHS = 2


@pytest.mark.parametrize("negative_cap", [1, 50])
@pytest.mark.parametrize("toy_seed", range(5))
def test_train_matches_dict_loop_on_toy(toy_corpora, toy_seed, negative_cap, monkeypatch):
    data, kg = toy_corpora[toy_seed]
    build_cfg = TrainConfig(negative_cap=negative_cap)
    instances, any_positive = reference_build_instances(data, kg, GenConfig(), build_cfg)
    assert any_positive
    # The instances depend on neither the train seed nor l2: build them once.
    built = learner._build_instances(data, kg, GenConfig(), build_cfg)
    monkeypatch.setattr(learner, "_build_instances", lambda *args: built)
    for seed in (42, 7):
        for l2 in (0.0, 1e-4, 1.0):
            cfg = TrainConfig(epochs=ORACLE_EPOCHS, seed=seed, l2=l2,
                              negative_cap=negative_cap)
            result = train(data, kg, GenConfig(), cfg)
            weights, losses = reference_fit(instances, cfg)
            assert list(result.model.weights.items()) == weights
            assert result.epoch_losses == losses


def fit_both(keyed_instances, cfg):
    """learner._fit on the interned instances, and the reference on the dicts."""
    index: dict = {}
    interned = [(tuple(index.setdefault(k, len(index)) for k in keys), label)
                for keys, label in keyed_instances]
    weights, losses = learner._fit(interned, list(index), cfg)
    vectors = [({k: 1.0 for k in keys}, label) for keys, label in keyed_instances]
    return (list(weights.items()), losses), reference_fit(vectors, cfg)


FEATURE_NAMES = [f"f{i}" for i in range(8)]

keyed_instance_sets = st.lists(
    st.tuples(
        st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=8, unique=True),
        st.sampled_from([0.0, 1.0]),
    ),
    min_size=1,
    max_size=8,
)

train_configs = st.builds(
    TrainConfig,
    epochs=st.integers(1, 4),
    learning_rate=st.sampled_from([0.1, 0.7, 3.0]),
    l2=st.sampled_from([0.0, 1e-4, 0.5]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=200, deadline=None)
@given(keyed_instance_sets, train_configs)
def test_fit_matches_dict_loop_on_random_instances(keyed_instances, cfg):
    new, old = fit_both(keyed_instances, cfg)
    assert new == old


# kernel.dot walks the weight dict, in key-insertion order, while it holds no
# more keys than the instance: early in the first epoch, and for an instance
# holding every feature.  Summing these in the instance's own order changes
# the last bits.
DOT_ORDER_CASES = {
    "first-epoch": (
        [(["f0"], 0.0), (["f5", "f2", "f1"], 0.0), (["f2", "f1", "f0", "f4", "f5"], 1.0),
         (["f1", "f2", "f3", "f4"], 1.0)],
        TrainConfig(epochs=1, learning_rate=0.1, l2=1e-4, seed=90),
    ),
    "every-feature": (
        [(["f4", "f5", "f3", "f2"], 0.0), (["f0", "f1", "f3", "f4", "f2", "f5"], 0.0)],
        TrainConfig(epochs=2, learning_rate=3.0, l2=1e-4, seed=96),
    ),
}


@pytest.mark.parametrize("case", DOT_ORDER_CASES)
def test_fit_sums_in_dot_order(case):
    new, old = fit_both(*DOT_ORDER_CASES[case])
    assert new == old


def qu_instance(query, utterance, label):
    """Pair features of one (query, utterance) pair: the Q x U product."""
    return [features.pair_key(q, u) for q in query.split() for u in utterance.split()], label


# Two questions with two candidates each, as the learner sees them: every
# query term pairs with every utterance term, so a question's pairs with the
# words its candidates share occur in exactly the same instances.
QU_INSTANCES = [
    qu_instance("what currency brazil", "the currency of brazil", 1.0),
    qu_instance("what currency brazil", "the adjoins of brazil", 0.0),
    qu_instance("which money kenya", "the currency of kenya", 1.0),
    qu_instance("which money kenya", "the adjoins of kenya", 0.0),
    qu_instance("what adjoins kenya", "the adjoins of kenya", 1.0),
]


@pytest.mark.parametrize("cfg", [
    TrainConfig(epochs=3, learning_rate=0.1, l2=0.0, seed=1),
    TrainConfig(epochs=3, learning_rate=0.7, l2=1e-4, seed=2),
    TrainConfig(epochs=2, learning_rate=3.0, l2=0.5, seed=3),
])
def test_fit_merges_co_occurring_features(cfg):
    index: dict = {}
    interned = [(tuple(index.setdefault(k, len(index)) for k in keys), label)
                for keys, label in QU_INSTANCES]
    columns = learner._columns(interned, len(index))
    assert len(set(columns)) < len(index)
    # ids share a column exactly when they occur in the same instances
    occurs = [frozenset(n for n, (ids, _) in enumerate(interned) if i in ids)
              for i in range(len(index))]
    for i in range(len(index)):
        for j in range(len(index)):
            assert (columns[i] == columns[j]) == (occurs[i] == occurs[j])
    new, old = fit_both(QU_INSTANCES, cfg)
    assert new == old
