import itertools
import math
import os
import random
import re
import stat
import struct
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorparse import evaluator, features, learner, logform
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
from tensorparse.logform import GenConfig, serialize

import oracle
from conftest import MINI_CATALOG, graph_from_strings, make_candidate, zero_model

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


def test_score_zero_model():
    assert score(zero_model(), {"p:a|b": 1.0}) == 0.0
    assert oracle.logistic(0.0) == 0.5


def test_score_dot():
    m = Model(weights={"p:borders|adjoins": 2.0})
    assert score(m, {"p:borders|adjoins": 1.0}) == 2.0


def test_score_sums_in_the_vector_order_whatever_the_model_key_order():
    weights = {"p:a|x": 1e16, "p:b|x": 1.0, "p:c|x": -1e16}
    vector = {"p:c|x": 1.0, "p:a|x": 1.0, "p:b|x": 1.0, "p:d|x": 1.0, "lf:denot.empty": 1.0}
    # -1e16 + 1e16 + 1.0, in the vector's order
    for keys in itertools.permutations(weights):
        m = Model(weights={k: weights[k] for k in keys})
        assert score(m, vector) == 1.0


def test_score_monotone_in_matching_feature():
    m = Model(weights={"p:a|b": 1.0, "p:c|d": 0.5})
    base = score(m, {"p:a|b": 1.0})
    assert score(m, {"p:a|b": 1.0, "p:c|d": 1.0}) > base


def test_predict_empty_and_single(mini_kg):
    assert predict(zero_model(), ["q"], []) is None
    only = make_candidate(["the"], {"x"}, "join(currency, ent(brazil))")
    assert predict(zero_model(), ["q"], [only]) is only


def test_predict_prefers_weighted(mini_kg):
    m = Model(weights={"p:q|good": 1.0})
    good = make_candidate(["good"], {"x"}, "join(currency, ent(brazil))")
    bad = make_candidate(["bad"], {"x"}, "join(adjoins, ent(brazil))")
    assert predict(m, ["q"], [bad, good]) is good


def test_predict_tie_goes_to_the_earliest():
    a = make_candidate(["same"], {"x"}, "join(adjoins, ent(brazil))")
    b = make_candidate(["same"], {"x"}, "join(currency, ent(brazil))")
    assert serialize(a.logical_form) < serialize(b.logical_form)
    # in generation's order the earliest is the smallest form; in any other
    # order it is still the earliest
    assert predict(zero_model(), ["q"], [a, b]) is a
    assert predict(zero_model(), ["q"], [b, a]) is b


def test_predict_unique_maximum_serializes_nothing(monkeypatch):
    def refuse(lf):
        raise AssertionError(f"serialized {lf!r}")

    monkeypatch.setattr(logform, "serialize", refuse)
    m = Model(weights={"p:q|good": 1.0})
    good = make_candidate(["good"], {"x"}, "join(currency, ent(brazil))")
    bad = make_candidate(["bad"], {"x"}, "join(adjoins, ent(brazil))")
    assert predict(m, ["q"], [bad, good, bad]) is good
    # nor does a tie
    assert predict(zero_model(), ["q"], [good, bad]) is good
    assert predict(zero_model(), ["q"], [bad, good]) is bad


def test_predict_three_way_tie_takes_the_earliest():
    m = Model(weights={"p:q|same": 1.0, "p:q|low": -1.0})
    forms = ["join(actor, ent(p1))", "join(character, ent(p1))", "join(film, ent(p1))"]
    tied = [make_candidate(["same"], {"x"}, form) for form in forms]
    low = make_candidate(["low"], {"x"}, "ent(brazil)")  # smallest form, lower score
    texts = [serialize(c.logical_form) for c in (low, *tied)]
    assert texts == sorted(texts)
    # generation's order, its reverse and one more order
    assert predict(m, ["q"], [low, *tied]) is tied[0]
    assert predict(m, ["q"], [*tied[::-1], low]) is tied[2]
    assert predict(m, ["q"], [tied[1], low, tied[0], tied[2]]) is tied[1]


def test_predict_argmax_scale_invariant():
    m = Model(weights={"p:q|a": 0.7, "p:q|b": 0.3, "lf:denot.size.1": 0.1})
    scaled = Model(weights={k: 10.0 * v for k, v in m.weights.items()})
    cands = [
        make_candidate(["a"], {"x"}, "join(currency, ent(brazil))"),
        make_candidate(["b"], {"x", "y"}, "join(adjoins, ent(brazil))"),
    ]
    assert predict(m, ["q"], cands) is predict(scaled, ["q"], cands)


def test_label_candidates_rules():
    # perfect, partial and wrong answers
    assert label_candidates([1.0, 2 / 3, 0.0]) == [True, False, False]
    assert label_candidates([0.0, 0.5, 0.4]) == [False, True, False]
    assert label_candidates([]) == []


def test_label_candidates_all_zero():
    assert label_candidates([0.0]) == [False]
    assert label_candidates([0.0, 0.0, 0.0]) == [False, False, False]


def test_label_candidates_ties_both_positive():
    assert label_candidates([2 / 3, 2 / 3]) == [True, True]
    assert label_candidates([0.5, 0.25, 0.5]) == [True, False, True]


def test_train_separable_corpus(sep_kg):
    cfg = TrainConfig(epochs=20)
    result = train(SEP_DATA, sep_kg, GenConfig(), cfg)
    assert not result.all_negative
    # the bridging pair feature ends up positive
    assert result.model.weights["p:moneyword|currency"] > 0
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    # 100% of training queries predicted correctly
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
    m = Model(weights={"p:a|a": 1.0, "p:b|b": 2.0, "p:a|b": 2.0, "lf:denot.empty": -3.0})
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
    # the trained weights are already in the file's key order
    assert list(loaded.weights.items()) == list(result.model.weights.items())
    # byte-identical when re-saved
    again = tmp_path / "m2.model"
    save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    first_line = path.read_text().splitlines()[0]
    assert first_line == "tensorparse-model v2 max_candidates=200"
    assert loaded.gen_cfg == GenConfig()
    capped = train(SEP_DATA, sep_kg, GenConfig(max_candidates=3), TrainConfig()).model
    assert capped.gen_cfg == GenConfig(max_candidates=3)
    save_model(capped, path)
    assert path.read_text().splitlines()[0] == "tensorparse-model v2 max_candidates=3"
    assert load_model(path) == capped


HEADER = "tensorparse-model v2 max_candidates=200"


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text("tensorparse-model v99 abc\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text(f"{HEADER}\np:a|b no-tab\n")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    for weight in ("nan", "inf", "-inf"):
        bad.write_text(f"{HEADER}\np:a|b\t{weight}\n")
        with pytest.raises(ModelFormatError, match=f"line 2: weight '{weight}' is not finite"):
            load_model(bad)
    bad.write_text(f"{HEADER}\np:a|b\t1.5\np:a|b\t-7.0\n")
    with pytest.raises(ModelFormatError, match=re.escape("line 3: duplicate key 'p:a|b'")):
        load_model(bad)
    # float() and int() take these; the file format does not
    for weight in ("1_0", " 1.0 ", "1.0 ", "\u0661.\u0665", "\uff11", "0x1p0", "1.5\u00a0"):
        bad.write_text(f"{HEADER}\np:a|b\t1.5\nlf:denot.empty\t{weight}\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"line 3: bad weight {weight!r}")):
            load_model(bad)
    for version in ("v\u0661", "v+1", "v1_0", "v-1", "v\uff11", "v", "v" + "1" * 5000):
        bad.write_text(f"tensorparse-model {version} max_candidates=200\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"bad model version: {version!r}")):
            load_model(bad)
    # A model line ends at LF (CR LF and CR read as LF); the other breaks that
    # str.splitlines takes are characters of the line.
    for brk in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        value = f"1.0{brk}p:c|d\t2.0"
        bad.write_text(f"{HEADER}\np:a|b\t{value}\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(f"line 2: bad weight {value!r}")):
            load_model(bad)
        bad.write_text(f"{HEADER}\n{brk}\np:a|b\tbad\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape("line 2: expected key<TAB>weight")):
            load_model(bad)
    bad.write_bytes(f"{HEADER}\r\np:a|b\t1.5\r\n\r\np:a|c\t2.5\rp:a|d\tbad\n".encode())
    with pytest.raises(ModelFormatError, match=re.escape("line 5: bad weight 'bad'")):
        load_model(bad)
    # every spelling repr(float) gives still loads
    bad.write_text(f"{HEADER}\np:a|b\t-1e-05\np:a|c\t1.5e+16\n"
                   "p:a|d\t5e-324\np:a|e\t-0.0\np:a|f\t+.5\np:a|g\t7.\n")
    assert list(load_model(bad).weights.values()) == [-1e-05, 1.5e16, 5e-324, -0.0, 0.5, 7.0]


def test_model_header_must_be_v2_with_a_cap(tmp_path):
    bad = tmp_path / "bad.model"
    # a v1 header holds a hash, not the cap its model was trained with
    bad.write_text("tensorparse-model v1 e7c395ea56a2f041\np:a|b\t1.5\n")
    with pytest.raises(ModelFormatError, match="unsupported model version 1"):
        load_model(bad)
    for header in ("tensorparse-model v2", "tensorparse-model v2 ",
                   "tensorparse-model v2 max_candidates=200 x"):
        bad.write_text(f"{header}\np:a|b\t1.5\n")
        with pytest.raises(ModelFormatError, match="bad model"):
            load_model(bad)
    for setting in ("max_candidates=", "max_candidates=0", "max_candidates=-1",
                    "max_candidates=1_0", "max_candidates=\u0661", "max_candidates=+3",
                    "max_candidates=" + "9" * 5000, "max_span=3", "max_candidates"):
        bad.write_text(f"tensorparse-model v2 {setting}\np:a|b\t1.5\n")
        with pytest.raises(ModelFormatError) as exc:
            load_model(bad)
        assert str(exc.value).startswith(f"bad model setting {setting!r}")
        assert "\n" not in str(exc.value)
    bad.write_text("tensorparse-model v2 max_candidates=7\n")
    assert load_model(bad) == Model(weights={}, gen_cfg=GenConfig(max_candidates=7))


@pytest.mark.parametrize("key", ["x:a|b", "p:a", "p:a|b|c", "p:|b", "p:a|", "p:A|b",
                                 "p:a|\u00e9", "lf:other", "lf:", "a|b", ""])
def test_model_key_that_no_score_reads_is_rejected(tmp_path, key):
    bad = tmp_path / "bad.model"
    bad.write_text(f"{HEADER}\np:a|b\t1.5\n{key}\t0.5\n")
    with pytest.raises(ModelFormatError, match=re.escape(f"line 3: unknown feature key {key!r}")):
        load_model(bad)


def test_failed_save_keeps_the_previous_model(tmp_path, monkeypatch):
    # and the previous eval report, which is written the same way
    path = tmp_path / "m.model"
    save_model(Model(weights={"p:a|b": 1.5}), path)
    report_path = tmp_path / "report.txt"
    row = evaluator.PerQueryResult(0, "q0", None, 0.0, 0.0, 0)
    evaluator.write_report(evaluator.EvalReport(0.0, 0.0, (row,)), report_path)
    before = {path: path.read_bytes(), report_path: report_path.read_bytes()}

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
    for module in (learner, evaluator):
        monkeypatch.setattr(module, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                            raising=False)
    weights = {f"p:q{i}|u{i}": float(i) for i in range(100)}
    with pytest.raises(OSError, match="no space"):
        save_model(Model(weights=weights), path)
    rows = tuple(evaluator.PerQueryResult(i, f"q{i}", None, 1.0, 1.0, 1) for i in range(100))
    with pytest.raises(OSError, match="no space"):
        evaluator.write_report(evaluator.EvalReport(1.0, 1.0, rows), report_path)
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(os.listdir(tmp_path)) == ["m.model", "report.txt"]


def test_writes_through_a_symbolic_link_keep_the_link(tmp_path):
    # the model and the report go to the file each link names, as writing
    # into the link would
    for name, write in (("m.model", lambda p: save_model(zero_model(), p)),
                        ("report.txt", lambda p: evaluator.write_report(
                            evaluator.EvalReport(0.0, 0.0, ()), p))):
        (tmp_path / name).write_text("old\n")
        link = tmp_path / f"link-{name}"
        link.symlink_to(name)
        write(link)
        assert link.is_symlink() and os.readlink(link) == name
        assert (tmp_path / name).read_text() != "old\n"
    assert sorted(os.listdir(tmp_path)) == ["link-m.model", "link-report.txt", "m.model",
                                            "report.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_report_into_a_fifo_reaches_its_reader_and_keeps_the_fifo(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    rows = tuple(evaluator.PerQueryResult(i, f"q{i}", None, 1.0, 1.0, 1) for i in range(100))
    report = evaluator.EvalReport(1.0, 1.0, rows)
    evaluator.write_report(report, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [evaluator.format_report(report).encode()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["report.fifo"]


def test_save_into_missing_directory_names_the_model_file(tmp_path):
    path = tmp_path / "missing" / "m.model"
    with pytest.raises(FileNotFoundError) as exc:
        save_model(zero_model(), path)
    assert str(exc.value).endswith(f"'{path}'")
    assert os.listdir(tmp_path) == []


tokens = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6)
feature_keys = st.one_of(
    st.builds(lambda q, u: f"p:{q}|{u}", tokens, tokens),
    st.sampled_from(sorted(set(features.SIZE_KEYS))),
)
finite_weights = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308]),
)


caps = st.one_of(st.integers(1, 10**6), st.sampled_from([10**9, 10**30]))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(feature_keys, finite_weights, max_size=30), caps)
def test_model_file_round_trip_property(tmp_path_factory, weights, cap):
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(Model(weights=weights, gen_cfg=GenConfig(max_candidates=cap)), path)
    loaded = load_model(path)
    assert loaded.gen_cfg == GenConfig(max_candidates=cap)
    assert list(loaded.weights.items()) == sorted(weights.items())
    assert [repr(w) for w in loaded.weights.values()] == [repr(weights[k]) for k in sorted(weights)]


def _pack(value: float) -> bytes:
    return struct.pack(">d", value)


# Query tokens as features.tokenize gives them, and the empty token of the
# malformed key "p:|b"; utterance tokens include "b|c", the utterance side
# of "p:a|b|c" split at its first "|".
query_token_lists = st.lists(st.sampled_from(["", "a", "b", "zz"]), max_size=6)
utterance_token_lists = st.lists(st.sampled_from(["a", "b", "b|c", "yy"]), max_size=5)
scoring_keys = st.one_of(
    st.builds(lambda q, u: f"p:{q}|{u}", st.sampled_from(["", "a", "b"]),
              st.sampled_from(["a", "b", "b|c"])),
    st.sampled_from(sorted(set(features.SIZE_KEYS))),
    st.sampled_from(["p:a", "p:a|b|c", "p:|b", "lf:other", "x:a|b", "a|b"]),
)
# the scoring keys that load from a model file: those features.assemble gives
loadable_key = re.compile(r"p:[ab]\|[ab]|lf:denot\..+")
# large and small weights together, so that adding in another order gives
# another float
scoring_weights = st.one_of(
    finite_weights,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.2, 0.3]),
)
scored_candidates = st.lists(
    st.builds(make_candidate, utterance_token_lists, st.sets(st.sampled_from("uvwxyz0")),
              st.builds("join({}, ent({}))".format,
                        st.sampled_from(["actor", "adjoins", "currency"]),
                        st.sampled_from(["brazil", "p1"]))),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(scoring_keys, scoring_weights, max_size=25), query_token_lists,
       scored_candidates, st.booleans())
# query-major: 1e16 + 1.0 rounds to 1e16, so "a" then "b" gives 0.0 and
# utterance-major order would give 1.0
@example(weights={"p:a|a": 1e16, "p:a|b": 1.0, "p:b|a": -1e16}, query=["a", "b", "a"],
         candidates=[make_candidate(["a", "b"], (), "join(actor, ent(p1))"),
                     make_candidate(["b"], (), "join(actor, ent(brazil))")],
         from_file=False)
def test_predict_scores_are_score_of_assemble(tmp_path_factory, weights, query, candidates,
                                              from_file):
    model = Model(weights=weights)
    if from_file:  # a model file holds only keys that a score can read
        path = tmp_path_factory.mktemp("model") / "m.model"
        save_model(Model(weights={k: w for k, w in weights.items() if loadable_key.fullmatch(k)}),
                   path)
        model = load_model(path)
    expected = [oracle.score(model.weights, query, c.utterance_tokens, len(c.denotation))
                for c in candidates]
    assert list(map(_pack, learner._scores(model, query, candidates))) == list(map(_pack, expected))
    if not candidates:
        assert predict(model, query, candidates) is None
    # the earliest of the best: a later candidate wins only by scoring more,
    # in the order drawn and in reverse
    for ordered, scores in ((candidates, expected), (candidates[::-1], expected[::-1])):
        if ordered:
            by_rule, best = ordered[0], scores[0]
            for candidate, s in zip(ordered, scores):
                if s > best:
                    by_rule, best = candidate, s
            assert predict(model, query, ordered) is by_rule


@pytest.mark.parametrize("key, rows", [
    ("p:a|b", {"a": {"b": 0.5}}),
    ("p:a|b|c", {"a": {"b|c": 0.5}}),
    ("p:|b", {"": {"b": 0.5}}),
    ("p:a", {}),
    ("x:a|b", {}),
    ("a|b", {}),
    ("lf:denot.size.1", {}),
])
def test_model_rows_split_pair_keys_at_the_first_bar(key, rows):
    assert Model(weights={key: 0.5}).rows == rows


@pytest.mark.parametrize("weights", [
    {},
    {"p:a|b": 1.5},
    {"lf:denot.size.1": 0.25, "lf:denot.size.6plus": -1.5, "p:a|b": 1.5},
    {key: float(i) - 2.5 for i, key in enumerate(sorted(set(features.SIZE_KEYS)))},
])
def test_model_size_weights_are_each_sizes_bucket_weight(weights):
    model = Model(weights=weights)
    last = len(features.SIZE_KEYS) - 1
    assert len(model.size_weights) == last + 1
    for n in range(11):
        (key,) = features.logical_form_features(make_candidate((), range(n)))
        assert model.size_weights[min(n, last)] == weights.get(key)
    # derived: out of equality and repr, as rows is
    other = Model(weights=weights)
    object.__setattr__(other, "size_weights", ())
    assert other == model
    assert "size_weights" not in repr(model) and repr(other) == repr(model)


def test_model_weights_are_read_only(tmp_path, sep_kg):
    weights = {"p:a|b": 1.5, "lf:denot.empty": -0.25}
    hand_made = Model(weights=weights)
    trained = train(SEP_DATA, sep_kg, GenConfig(), TrainConfig()).model
    save_model(trained, tmp_path / "m.model")
    loaded = load_model(tmp_path / "m.model")
    for model in (hand_made, trained, loaded):
        with pytest.raises(TypeError):
            model.weights["p:a|b"] = 2.0
        with pytest.raises(TypeError):
            del model.weights[next(iter(model.weights))]
    # the model holds its own copy: the caller's dict does not reach its rows
    weights["p:a|b"] = 9.0
    assert hand_made.weights["p:a|b"] == 1.5 and hand_made.rows == {"a": {"b": 1.5}}
    assert hand_made == Model(weights={"lf:denot.empty": -0.25, "p:a|b": 1.5})
    assert hand_made != Model(weights={"p:a|b": 1.5})
    assert hand_made != Model(weights=weights, gen_cfg=GenConfig(max_candidates=3))
    assert loaded == trained
    save_model(hand_made, tmp_path / "h.model")
    assert (tmp_path / "h.model").read_text() == (
        "tensorparse-model v2 max_candidates=200\nlf:denot.empty\t-0.25\np:a|b\t1.5\n")


# -- old-vs-new oracle ----------------------------------------------------------
#
# The training loop over string-keyed dicts, kept as the reference:
# learner.train must give the same weights, in the same key order, and the
# same epoch losses, to the last bit.  A score adds the weights of the
# vector's keys in the vector's own order; the L2 penalty and the returned
# weights go in key order.


def reference_build_instances(data, kg, gen_cfg):
    instances = []
    any_positive = False
    for example in data:
        tokens = features.tokenize(example.question)
        if not tokens:
            continue
        candidates = logform.generate_candidates(tokens, kg, gen_cfg)
        scores = [oracle.f1([kg.display_names[e] for e in c.denotation], example.answers)
                  for c in candidates]
        best = max(scores, default=0.0)
        for c, s in zip(candidates, scores):
            positive = best > 0.0 and s == best
            any_positive |= positive
            keys = oracle.feature_keys(tokens, c.utterance_tokens, len(c.denotation))
            instances.append((dict.fromkeys(keys, 1.0), 1.0 if positive else 0.0))
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
            s = 0.0
            for key, value in vector.items():
                s += weights.get(key, 0.0) * value
            p = oracle.logistic(s)
            # log-loss measured before the update
            loss += -math.log(max(p if label else 1.0 - p, 1e-300))
            base_grad = p - label
            for key, value in vector.items():
                g = base_grad * value
                acc = grad_sq.get(key, 0.0) + g * g
                grad_sq[key] = acc
                eta = cfg.learning_rate / (math.sqrt(acc) + oracle.ADA_EPS)
                w = weights.get(key, 0.0) - eta * g
                if cfg.l2:
                    w /= 1.0 + eta * cfg.l2  # proximal shrinkage
                weights[key] = w
        penalty = 0.5 * cfg.l2 * sum(weights[k] * weights[k] for k in sorted(weights))
        epoch_losses.append(loss / len(instances) + penalty)
    return [(k, weights[k]) for k in sorted(weights) if weights[k] != 0.0], tuple(epoch_losses)


# The first epoch and a later one; tests/test_golden.py pins the default 15.
ORACLE_EPOCHS = 2


@pytest.mark.parametrize("max_candidates", [1, 50])
@pytest.mark.parametrize("toy_seed", range(5))
def test_train_matches_dict_loop_on_toy(toy_corpora, toy_seed, max_candidates, monkeypatch):
    data, kg = toy_corpora[toy_seed]
    gen_cfg = GenConfig(max_candidates=max_candidates)
    instances, any_positive = reference_build_instances(data, kg, gen_cfg)
    assert any_positive
    # The rows depend on neither the train seed nor l2: prepare each question
    # and build its rows once, and replay them into the caller's index in the
    # order it would fill.
    prepare, question_rows = evaluator.prepare, learner.question_rows
    prepared, keyed_rows = {}, {}

    def memo_prepare(example, kg, gen_cfg):
        if example not in prepared:
            prepared[example] = prepare(example, kg, gen_cfg)
        return prepared[example]

    def memo_question_rows(question, index):
        key = id(question)  # memo_prepare keeps one tuple per question alive
        if key not in keyed_rows:
            own: dict = {}
            rows = question_rows(question, own)
            names = list(own)
            keyed_rows[key] = [(tuple(names[i] for i in ids), label) for ids, label in rows]
        return [(tuple(index.setdefault(k, len(index)) for k in keys), label)
                for keys, label in keyed_rows[key]]

    monkeypatch.setattr(evaluator, "prepare", memo_prepare)
    monkeypatch.setattr(learner, "question_rows", memo_question_rows)
    for seed in (42, 7):
        for l2 in (0.0, 1e-4, 1.0):
            cfg = TrainConfig(epochs=ORACLE_EPOCHS, seed=seed, l2=l2)
            result = train(data, kg, gen_cfg, cfg)
            weights, losses = reference_fit(instances, cfg)
            assert list(result.model.weights.items()) == weights
            assert result.epoch_losses == losses


def fit_both(keyed_instances, cfg):
    """learner._fit on the interned instances laid out as one question, and
    the reference on the dicts."""
    index: dict = {}
    interned = [(tuple(index.setdefault(k, len(index)) for k in keys), label)
                for keys, label in keyed_instances]
    layout = learner.Layout([interned], list(index))
    weights, losses = learner._fit(layout, layout.instances[0], cfg)
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


# Instances whose score, summed in the weight dict's insertion order rather
# than the instance's own, ends in other last bits: early in the first epoch,
# when the weight dict holds no more keys than the instance, and an instance
# that holds every feature.
SUM_ORDER_CASES = {
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


@pytest.mark.parametrize("case", SUM_ORDER_CASES)
def test_fit_sums_in_instance_order(case):
    new, old = fit_both(*SUM_ORDER_CASES[case])
    assert new == old


def qu_instance(query, utterance, label):
    """Pair features of one (query, utterance) pair: the Q x U product."""
    return [f"p:{q}|{u}" for q in query.split() for u in utterance.split()], label


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


def brute_force_columns(instances, n):
    """Ids grouped by the tuple of instances that hold them, groups numbered
    by their lowest id."""
    held_by = [tuple(k for k, (ids, _) in enumerate(instances) if i in ids) for i in range(n)]
    groups = sorted(set(held_by), key=held_by.index)
    return [groups.index(held) for held in held_by]


@st.composite
def interned_instances(draw):
    """``(instances, n)``: instances over ids below ``n``, some holding no id,
    and ``n`` may exceed every id held, as a fold's rows over the shared index."""
    n = draw(st.integers(0, 10))
    ids = st.lists(st.integers(0, n - 1), max_size=n, unique=True) if n else st.just([])
    instances = draw(st.lists(st.tuples(ids.map(tuple), st.sampled_from([0.0, 1.0])),
                              max_size=8))
    return instances, n


@example(([((3, 0), 1.0), ((), 0.0), ((0, 3, 1), 0.0)], 6))
@settings(max_examples=300, deadline=None)
@given(interned_instances())
def test_columns_group_ids_by_the_instances_that_hold_them(case):
    instances, n = case
    assert learner._columns(instances, n) == brute_force_columns(instances, n)


@st.composite
def questions_and_a_subset(draw):
    """``(rows per question, names, subset)``: interned rows of several
    questions over one key index, as :func:`learner.question_rows` builds
    them, and some of the questions' positions in any order, as a fold's
    training side lists them."""
    # ids in no key order
    names = draw(st.permutations([f"f{i}" for i in range(draw(st.integers(1, 10)))]))
    row = st.tuples(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=len(names),
                             unique=True).map(tuple),
                    st.sampled_from([0.0, 1.0]))
    rows = draw(st.lists(st.lists(row, max_size=4), min_size=1, max_size=6))
    subset = draw(st.lists(st.integers(0, len(rows) - 1), unique=True))
    return rows, names, subset


@settings(max_examples=300, deadline=None)
@given(questions_and_a_subset(), train_configs)
def test_fitting_a_subset_through_the_run_layout_is_fitting_it_alone(case, cfg):
    rows, names, subset = case
    # the subset's rows alone, re-interned in the order train would meet them
    index: dict = {}
    alone = [[(tuple(index.setdefault(names[i], len(index)) for i in ids), label)
              for ids, label in rows[k]] for k in subset]
    expected = learner.fit_questions(learner.Layout(alone, list(index)), range(len(alone)), cfg)
    weights, losses = learner.fit_questions(learner.Layout(rows, names), subset, cfg)
    assert (list(weights.items()), losses) == (list(expected[0].items()), expected[1])


@example(n=540, seed=1, epochs=2)
@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 1200), seed=st.integers(0, 2**128), epochs=st.integers(1, 3))
def test_the_written_out_shuffle_is_randoms(n, seed, epochs):
    ours, theirs = list(range(n)), list(range(n))
    rng, reference = random.Random(seed), random.Random(seed)
    draws = learner._draws(n)
    for _ in range(epochs):
        learner._shuffle(ours, draws, rng.getrandbits)
        reference.shuffle(theirs)
        assert ours == theirs
    assert rng.getstate() == reference.getstate()
