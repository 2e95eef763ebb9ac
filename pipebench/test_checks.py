"""Each output check of the benchmark catches a planted wrong output.

    python3 -m pytest pipebench/test_checks.py -q
"""

import io
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from tensorparse import evaluator, features, kgraph, learner, logform  # noqa: E402
from tensorparse.dataset import DatasetExample  # noqa: E402
from tensorparse.logform import (  # noqa: E402
    Candidate, EntityLit, GenConfig, Intersect, Join, ReverseJoin,
)

CATALOG = """\
E\tx\tXeno\t
E\ta\tAlpha\t
E\tb\tBeta\t
E\ty\tYota\t
R\tr\trr\tthing\tthing
R\ts\tss\tthing\tthing
R\tt\ttt\tthing\tthing
"""
TRIPLES = "x\tr\ta\nx\ts\tb\nx\tt\ty\n"


@pytest.fixture()
def graph():
    return checks.Graph(io.StringIO(TRIPLES), io.StringIO(CATALOG))


@pytest.fixture()
def kg():
    return kgraph.load_graph(io.StringIO(TRIPLES), io.StringIO(CATALOG))


def candidates_for(question, kg, cap=200):
    return logform.generate_candidates(features.tokenize(question), kg, GenConfig(max_candidates=cap))


def t3(outer="t"):
    return Join(outer, Intersect(ReverseJoin("r", EntityLit("a")), ReverseJoin("s", EntityLit("b"))))


def test_program_output_passes_every_check(graph, kg):
    question = "what tt has rr alpha and ss beta"
    kept = candidates_for(question, kg)
    assert checks.denotation_problems(graph, kept) == []
    assert checks.reachable_problems(graph, question, kept, ["Yota"]) == []
    model = learner.train(
        [DatasetExample(question, ("Yota",))], kg, GenConfig(), learner.TrainConfig()
    ).model
    predicted = learner.predict(model, features.tokenize(question), kept)
    assert checks.argmax_problems(model.weights, question, kept, predicted) == []


def test_denotation_check_catches_wrong_denotation(graph):
    right = Candidate(t3(), ("tt",), frozenset({"y"}))
    wrong = Candidate(t3(), ("tt",), frozenset({"y", "a"}))
    assert checks.denotation_problems(graph, [right]) == []
    assert len(checks.denotation_problems(graph, [right, wrong])) == 1


def test_reachable_check_catches_missing_gold_form(graph):
    only_t1 = [Candidate(Join("r", EntityLit("x")), ("rr",), frozenset({"a"}))]
    assert checks.reachable_problems(graph, "q", only_t1, ["Yota"]) != []
    with_gold = only_t1 + [Candidate(t3(), ("tt",), frozenset({"y"}))]
    assert checks.reachable_problems(graph, "q", with_gold, ["Yota"]) == []


def test_argmax_check_catches_wrong_pick_and_wrong_tie_break():
    a = Candidate(Join("r", EntityLit("x")), ("rr",), frozenset({"a"}))
    b = Candidate(Join("s", EntityLit("x")), ("ss",), frozenset({"b"}))
    weights = {"p:rr|rr": 2.0, "p:rr|ss": 1.0}
    assert checks.argmax_problems(weights, "rr", [a, b], a) == []
    assert checks.argmax_problems(weights, "rr", [a, b], b) != []
    tied = {"p:rr|rr": 1.0, "p:rr|ss": 1.0}
    assert checks.argmax_problems(tied, "rr", [b, a], a) == []  # join(r, ...) < join(s, ...)
    assert checks.argmax_problems(tied, "rr", [b, a], b) != []
    assert checks.argmax_problems(weights, "rr", [], a) != []


def test_argmax_check_counts_the_denotation_bucket():
    empty = Candidate(Join("r", EntityLit("x")), ("rr",), frozenset())
    full = Candidate(Join("s", EntityLit("x")), ("rr",), frozenset({"b"}))
    weights = {"lf:denot.empty": -1.0, "lf:denot.size.1": 1.0}
    assert checks.argmax_problems(weights, "rr", [empty, full], full) == []
    assert checks.argmax_problems(weights, "rr", [empty, full], empty) != []


def row(predicted_f1, oracle_f1, index=0):
    return evaluator.PerQueryResult(index, "q", None, predicted_f1, oracle_f1, 1)


def test_report_check_catches_prediction_above_oracle_and_corpus_properties():
    good = evaluator.EvalReport(0.95, 1.0, (row(1.0, 1.0), row(0.9, 1.0, 1)))
    assert checks.report_problems(good, min_average=0.9, oracle=1.0) == []
    above = evaluator.EvalReport(0.95, 1.0, (row(1.0, 0.5),))
    assert checks.report_problems(above) != []
    assert checks.report_problems(good, min_average=0.96) != []
    low_oracle = evaluator.EvalReport(0.95, 0.99, good.per_query)
    assert checks.report_problems(low_oracle, oracle=1.0) != []


def test_model_bytes_check():
    assert checks.same_bytes_problems(b"m\n", b"m\n") == []
    assert checks.same_bytes_problems(b"m\n", b"n\n") != []


def test_f1_and_bucket_follow_their_definitions():
    assert checks.f1(["Buenos Aires"], ["buenos-aires"]) == 1.0
    assert checks.f1(["a", "b"], ["a"]) == pytest.approx(2 / 3)
    assert checks.f1([], ["a"]) == 0.0
    for size in range(8):
        lf = features.logical_form_features(Candidate(EntityLit("x"), (), frozenset(range(size))))
        assert lf == {"lf:" + checks.bucket(size): 1.0}


def test_operand_swapped_t3_forms_are_counted(kg):
    kept = candidates_for("what tt has rr alpha and ss beta", kg)
    t3_forms = [c for c in kept if checks.t3_parts(c.logical_form)]
    assert len(t3_forms) == 6  # three outer relations, each in both operand orders
    assert checks.mirror_forms(kept) == 6


def test_tracer_spans_leaves_and_missing_hooks():
    mod = types.ModuleType("demo")

    def leaf(n):
        return mod.leaf(n - 1) if n else 0  # recursion counts once

    def outer():
        return mod.leaf(3) + mod.leaf(0)

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    tracer.span(mod, "outer", "demo.outer")
    tracer.leaf(mod, "leaf", "demo.leaf")
    tracer.span(mod, "gone", "demo.gone")
    with tracer.section("s"):
        mod.outer()
    tracer.close()
    assert mod.outer is outer and mod.leaf is leaf
    assert tracer.missing == ["demo.gone"]
    assert tracer.span_calls("demo.outer") == 1
    assert tracer.leaf_calls("demo.leaf") == 2
    assert tracer.leaf_calls("demo.leaf", "demo.outer") == 2
    selfs = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(selfs) + tracer.leaf_seconds("demo.leaf") == pytest.approx(total)
    assert set(tracer.shares()["s"]) == {"benchmark", "demo.outer", "demo.leaf"}
