import math

import pytest

from tensorparse import learner
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
