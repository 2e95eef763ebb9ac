import random

import pytest

from tensorparse import evaluator, learner, logform
from tensorparse.dataset import DatasetExample
from tensorparse.evaluator import (
    ConfigError,
    SplitSpec,
    cross_validate,
    candidate_f1s,
    evaluate,
    f1,
    format_report,
    make_splits,
)
from tensorparse.logform import GenConfig


def brute_force_f1(predicted, gold):
    # independent oracle: explicit intersection counting over raw sets
    p = set(predicted)
    g = set(gold)
    inter = len([x for x in p if x in g])
    if not p or not g or inter == 0:
        return 0.0
    prec = inter / len(p)
    rec = inter / len(g)
    return 2 * prec * rec / (prec + rec)


def zero_model():
    return learner.Model(weights={}, config_fingerprint="x")


def test_f1_partial_credit_example():
    assert f1({"Jaxon Bieber"}, {"Jazmyn Bieber", "Jaxon Bieber"}) == pytest.approx(
        2 / 3, abs=1e-12
    )


def test_f1_identity_and_zero_cases():
    assert f1({"a", "b"}, {"a", "b"}) == 1.0
    assert f1(set(), {"a"}) == 0.0
    assert f1({"a"}, set()) == 0.0
    assert f1({"a"}, {"b"}) == 0.0


def test_f1_normalizes_names():
    assert f1({"Brazilian Real!"}, {"brazilian real"}) == 1.0


def test_f1_range_and_symmetry():
    rng = random.Random(5)
    universe = [f"x{i}" for i in range(10)]
    for _ in range(300):
        p = set(rng.sample(universe, rng.randint(0, 6)))
        g = set(rng.sample(universe, rng.randint(0, 6)))
        v = f1(p, g)
        assert 0.0 <= v <= 1.0
        assert v == f1(g, p)  # harmonic mean swaps precision/recall


def test_f1_matches_brute_force():
    rng = random.Random(77)
    universe = [f"x{i}" for i in range(12)]
    for _ in range(1000):
        p = set(rng.sample(universe, rng.randint(0, 8)))
        g = set(rng.sample(universe, rng.randint(0, 8)))
        assert f1(p, g) == brute_force_f1(p, g)


def test_evaluate_no_candidates(mini_kg):
    data = [DatasetExample("hello world?", ("whatever",))]
    report = evaluate(zero_model(), data, mini_kg, GenConfig())
    row = report.per_query[0]
    assert row.predicted_f1 == 0.0
    assert row.oracle_f1 == 0.0
    assert row.candidate_count == 0
    assert row.predicted_form is None


def test_evaluate_oracle_dominates(mini_kg):
    data = [
        DatasetExample("what currency does brazil use?", ("brazilian real",)),
        DatasetExample("what adjoins ethiopia?", ("kenya", "sudan")),
        DatasetExample("hello world?", ("nothing",)),
    ]
    report = evaluate(zero_model(), data, mini_kg, GenConfig())
    for row in report.per_query:
        assert row.predicted_f1 <= row.oracle_f1
    assert report.average_f1 <= report.oracle_f1
    assert report.average_f1 == pytest.approx(
        sum(r.predicted_f1 for r in report.per_query) / len(report.per_query)
    )


def test_candidate_f1s_feed_label_and_evaluate(mini_kg):
    gold = ("kenya", "sudan")
    tokens = ["what", "adjoins", "ethiopia"]
    candidates = logform.generate_candidates(tokens, mini_kg, GenConfig())
    scores = candidate_f1s(candidates, gold, mini_kg)
    assert scores == [
        brute_force_f1({mini_kg.entity(e).name for e in c.denotation}, gold)
        for c in candidates
    ]
    assert max(scores) == 1.0
    labels = [pos for _, pos in learner.label_candidates(candidates, gold, mini_kg)]
    assert labels == [s == 1.0 for s in scores]
    (row,) = evaluate(zero_model(), [DatasetExample("what adjoins ethiopia?", gold)],
                      mini_kg, GenConfig()).per_query
    predicted = learner.predict(zero_model(), tokens, candidates)
    assert row.predicted_f1 == scores[candidates.index(predicted)]
    assert row.oracle_f1 == max(scores)


def test_report_format(mini_kg):
    data = [DatasetExample("what currency does brazil use?", ("brazilian real",))]
    report = evaluate(zero_model(), data, mini_kg, GenConfig())
    text = format_report(report)
    header, first = text.splitlines()[:2]
    assert header == (
        f"averageF1={report.average_f1:.4f}"
        f" oracleF1={report.oracle_f1:.4f} n=1"
    )
    fields = first.split("\t")
    assert fields[0] == "0"
    assert fields[1] == "what currency does brazil use?"
    assert len(fields) == 6


def make_examples(n):
    return [DatasetExample(f"q{i:03d}?", (f"a{i}",)) for i in range(n)]


def test_splits_partition():
    data = make_examples(10)
    splits = make_splits(data, SplitSpec(mode="random", folds=5, seed=1))
    assert len(splits) == 5
    all_test = [ex for _, test in splits for ex in test]
    assert sorted(ex.question for ex in all_test) == sorted(
        ex.question for ex in data
    )
    for train, test in splits:
        assert len(test) == 2
        assert len(train) == 8
        assert not set(ex.question for ex in train) & set(
            ex.question for ex in test
        )


def test_splits_sizes_differ_by_at_most_one():
    splits = make_splits(make_examples(11), SplitSpec(mode="random", folds=3, seed=0))
    sizes = sorted(len(test) for _, test in splits)
    assert max(sizes) - min(sizes) <= 1


def test_alphabetical_splits_cluster_topics():
    data = [DatasetExample(f"what currency {i}?", ("a",)) for i in range(6)]
    data += [DatasetExample(f"border {i}?", ("a",)) for i in range(6)]
    random.Random(0).shuffle(data)
    splits = make_splits(data, SplitSpec(mode="alphabetical", folds=4))
    # sorted then sliced: "border" questions fill the first folds entirely
    first_test = splits[0][1]
    assert all(ex.question.startswith("border") for ex in first_test)


def test_random_splits_deterministic():
    data = make_examples(9)
    a = make_splits(data, SplitSpec(mode="random", folds=3, seed=42))
    b = make_splits(data, SplitSpec(mode="random", folds=3, seed=42))
    assert a == b


def test_holdout_split():
    data = make_examples(10)
    (train, test), = make_splits(data, SplitSpec(mode="random", holdout=0.2, seed=3))
    assert len(test) == 2
    assert len(train) == 8


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(mode="random", folds=5, holdout=0.2)
    with pytest.raises(ConfigError):
        SplitSpec(mode="random")
    with pytest.raises(ConfigError):
        SplitSpec(mode="random", folds=1)
    with pytest.raises(ConfigError):
        SplitSpec(mode="random", holdout=1.5)
    with pytest.raises(ConfigError):
        SplitSpec(mode="sideways", folds=5)


def test_too_few_examples():
    with pytest.raises(ConfigError):
        make_splits(make_examples(3), SplitSpec(mode="random", folds=4, seed=0))


def test_cross_validate_two_folds(toy_kg, toy_data):
    data = toy_data[:40]
    reports, summary = cross_validate(
        data,
        toy_kg,
        GenConfig(),
        learner.TrainConfig(epochs=3),
        SplitSpec(mode="random", folds=2, seed=0),
    )
    assert len(reports) == 2
    scores = [r.average_f1 for r in reports]
    assert min(scores) <= summary.mean_average_f1 <= max(scores)
    for r in reports:
        assert r.average_f1 <= r.oracle_f1


def test_cross_validate_too_many_folds(toy_kg, toy_data):
    with pytest.raises(ConfigError):
        cross_validate(
            toy_data[:4],
            toy_kg,
            GenConfig(),
            learner.TrainConfig(epochs=1),
            SplitSpec(mode="random", folds=5, seed=0),
        )


@pytest.mark.parametrize("negative_cap", [2, 50])
@pytest.mark.parametrize("mode", ["random", "alphabetical"])
@pytest.mark.parametrize("toy_seed", range(3))
def test_cv_fold_models_match_train_on_the_fold(toy_corpora, toy_seed, mode, negative_cap,
                                                monkeypatch, tmp_path):
    data, kg = toy_corpora[toy_seed]
    cfg = learner.TrainConfig(epochs=2, negative_cap=negative_cap)
    spec = SplitSpec(mode=mode, folds=5, seed=toy_seed)
    fold_args, fold_results = [], []
    train_rows = learner.train_rows

    def recording_train_rows(*args):
        fold_args.append(args)
        fold_results.append(train_rows(*args))
        return fold_results[-1]

    monkeypatch.setattr(learner, "train_rows", recording_train_rows)
    reports, _ = cross_validate(data, kg, GenConfig(), cfg, spec)
    splits = make_splits(data, spec)
    assert len(fold_results) == len(reports) == len(splits) == 5
    for (train_data, test_data), (rows, names, *_), result, report in zip(
        splits, fold_args, fold_results, reports
    ):
        # the fold's own ids, names and feature count, as if indexed alone
        assert learner._renumber(rows, names) == learner._build_instances(
            train_data, kg, GenConfig(), cfg)
        alone = learner.train(train_data, kg, GenConfig(), cfg)
        assert result.epoch_losses == alone.epoch_losses
        learner.save_model(result.model, tmp_path / "cv.model")
        learner.save_model(alone.model, tmp_path / "alone.model")
        assert (tmp_path / "cv.model").read_bytes() == (tmp_path / "alone.model").read_bytes()
        assert report == evaluate(alone.model, test_data, kg, GenConfig())
