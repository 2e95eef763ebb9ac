"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from tensorparse import evaluator, kernel, learner
from tensorparse.evaluator import SplitSpec, cross_validate, f1
from tensorparse.logform import GenConfig

import oracle


def report_pass(number, message):
    print(f"[acceptance] criterion {number} PASS: {message}")


@pytest.fixture(scope="module")
def end_to_end(toy_kg, toy_data):
    """Timed 80/20 train+eval on the seeded toy corpus, defaults throughout:
    trains on four folds of a 5-fold random split and tests on fold 0."""
    gen_cfg = GenConfig()
    train_cfg = learner.TrainConfig()
    start = time.perf_counter()
    train_pos, test_pos = evaluator._split_positions(
        toy_data, SplitSpec(mode="random", folds=5, seed=42)
    )[0]
    train_data = [toy_data[i] for i in train_pos]
    test_data = [toy_data[i] for i in test_pos]
    result = learner.train(train_data, toy_kg, gen_cfg, train_cfg)
    report = evaluator.evaluate(result.model, test_data, toy_kg, gen_cfg)
    elapsed = time.perf_counter() - start
    return {
        "gen_cfg": gen_cfg,
        "train_cfg": train_cfg,
        "train_data": train_data,
        "test_data": test_data,
        "model": result.model,
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def cv_reports(toy_kg, toy_data):
    gen_cfg = GenConfig()
    train_cfg = learner.TrainConfig()
    rand_reports, rand = cross_validate(
        toy_data, toy_kg, gen_cfg, train_cfg, SplitSpec(mode="random", folds=5, seed=42)
    )
    alpha_reports, alpha = cross_validate(
        toy_data, toy_kg, gen_cfg, train_cfg, SplitSpec(mode="alphabetical", folds=5)
    )
    return {
        "random": rand,
        "alphabetical": alpha,
        "reports": rand_reports + alpha_reports,
    }


def test_criterion_1_kernel_identity():
    rng = random.Random(20240501)
    start = time.perf_counter()
    for _ in range(1000):
        q1, u1 = oracle.random_binary_vec(rng), oracle.random_binary_vec(rng)
        q2, u2 = oracle.random_binary_vec(rng), oracle.random_binary_vec(rng)
        fast = kernel.tensor_kernel(q1, u1, q2, u2)
        slow = oracle.explicit_kernel(q1, u1, q2, u2)
        assert abs(fast - slow) <= 1e-9 * (1 + abs(slow))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(1, f"factorized kernel matches explicit maps on 1000 quadruples in {elapsed:.2f}s")


def test_criterion_2_gram_psd():
    rng = random.Random(8)
    smallest = []
    for _ in range(100):
        pairs = [(oracle.random_binary_vec(rng), oracle.random_binary_vec(rng)) for _ in range(8)]
        gram = [[kernel.tensor_kernel(q1, u1, q2, u2) for q2, u2 in pairs] for q1, u1 in pairs]
        pivots = oracle.psd_pivots(gram)
        assert pivots is not None
        smallest.append(min(pivots))
    report_pass(2, f"100 Gram matrices PSD, smallest exact LDLᵀ pivot {float(min(smallest)):.2e}")


def test_criterion_3_partial_credit_f1():
    value = f1({"Jaxon Bieber"}, {"Jazmyn Bieber", "Jaxon Bieber"})
    assert abs(value - 2 / 3) <= 1e-12
    rng = random.Random(31)
    universe = [f"x{i}" for i in range(12)]
    for _ in range(1000):
        p = set(rng.sample(universe, rng.randint(0, 8)))
        g = set(rng.sample(universe, rng.randint(0, 8)))
        assert f1(p, g) == oracle.f1(p, g)
    report_pass(3, "partial-credit F1 exact on the worked example and 1000 random pairs")


def test_criterion_4_toy_end_to_end(end_to_end):
    assert end_to_end["elapsed"] < 60.0
    report = end_to_end["report"]
    assert report.average_f1 >= 0.90
    assert report.oracle_f1 == 1.0
    report_pass(
        4,
        f"toy 80/20 split: averageF1={report.average_f1:.4f}"
        f" oracleF1={report.oracle_f1:.4f} in {end_to_end['elapsed']:.1f}s",
    )


def test_criterion_5_alphabetical_ordering_hurts(cv_reports):
    rand = cv_reports["random"].mean_average_f1
    alpha = cv_reports["alphabetical"].mean_average_f1
    assert rand - alpha >= 0.05
    report_pass(
        5,
        f"5-fold CV: random mean averageF1={rand:.4f},"
        f" alphabetical={alpha:.4f} (drop {rand - alpha:.4f})",
    )


def test_criterion_6_oracle_dominance(end_to_end, cv_reports):
    reports = [end_to_end["report"]] + cv_reports["reports"]
    for report in reports:
        assert report.average_f1 <= report.oracle_f1 + 1e-12
        for row in report.per_query:
            assert row.predicted_f1 <= row.oracle_f1 + 1e-12
    report_pass(6, f"averageF1 <= oracleF1 per query and aggregate across {len(reports)} reports")


def test_criterion_7_lexical_bridge_in_top_features(toy_kg, toy_catalog, toy_data):
    result = learner.train(toy_data, toy_kg, GenConfig(), learner.TrainConfig())
    top = learner.top_features(result.model, 10)
    phrases = set(toy_catalog[2].values())
    bridges = [
        key
        for key, _ in top
        if key.startswith("p:") and key[2:].partition("|")[0] in phrases
    ]
    assert bridges
    report_pass(7, f"top-10 features include lexical bridge(s): {', '.join(bridges)}")


def test_criterion_8_determinism(end_to_end, toy_kg, tmp_path):
    rerun = learner.train(
        end_to_end["train_data"], toy_kg, end_to_end["gen_cfg"], end_to_end["train_cfg"]
    )
    first_path = tmp_path / "first.model"
    second_path = tmp_path / "second.model"
    learner.save_model(end_to_end["model"], first_path)
    learner.save_model(rerun.model, second_path)
    assert first_path.read_bytes() == second_path.read_bytes()
    report = evaluator.evaluate(
        rerun.model, end_to_end["test_data"], toy_kg, end_to_end["gen_cfg"]
    )
    assert evaluator.format_report(report) == evaluator.format_report(
        end_to_end["report"]
    )
    report_pass(8, "rerun with the same seed: byte-identical model file and report")
