import io
import os
import random
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorparse import TensorparseError, cli, evaluator, learner, logform, toy
from tensorparse.dataset import DatasetExample
from tensorparse.evaluator import (
    ConfigError,
    SplitSpec,
    cross_validate,
    candidate_f1s,
    evaluate,
    f1,
    format_report,
    normalize_answer_set,
    prepare,
)
from tensorparse.features import tokenize
from tensorparse.kgraph import load_graph
from tensorparse.logform import GenConfig

import oracle
from conftest import make_candidate, run_python, zero_model


def test_f1_partial_credit_example():
    assert f1({"Jaxon Bieber"}, {"Jazmyn Bieber", "Jaxon Bieber"}) == pytest.approx(
        2 / 3, abs=1e-12
    )


def test_f1_identity_and_zero_cases():
    assert f1({"a", "b"}, {"a", "b"}) == 1.0
    assert f1(set(), {"a"}) == 0.0
    assert f1({"a"}, set()) == 0.0
    assert f1({"a"}, {"b"}) == 0.0


def answer_f1(predicted, gold):
    """The F1 of two answer lists, as the evaluator specifies it."""
    return f1(normalize_answer_set(predicted), normalize_answer_set(gold))


def test_f1_normalizes_names():
    assert answer_f1({"Brazilian Real!"}, {"brazilian real"}) == 1.0


def test_f1_name_with_no_letter_or_digit_matches_nothing():
    assert answer_f1(["東京"], ["北京"]) == 0.0
    assert answer_f1(["!!!"], ["???"]) == 0.0
    assert answer_f1(["!!!", "Kenya"], ["kenya"]) == 1.0


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
        assert f1(p, g) == oracle.f1(p, g)


# Entity names and gold answers across case, punctuation and non-ASCII
# letters, some sharing a normalized name and some with no letter or digit.
NAME_POOL = ["Kenya", "KENYA!", "kenya", "Brazilian Real", "brazilian-real", "São Paulo",
             "s o  Paulo", "東京", "!!!", "—", "Ünïcode 7", "unicode 7"]
answer_names = st.one_of(st.sampled_from(NAME_POOL),
                         st.text(alphabet="aZ9 -!é東", min_size=1, max_size=6))


@st.composite
def answer_cases(draw):
    """``(graph, candidates, gold)``: a loaded graph whose entities ``e0`` and
    ``e1`` share a normalized name and whose ``e2`` has no letter or digit,
    candidates with any non-empty denotation over it, the first holding
    ``e0`` and ``e1``, and gold answers."""
    entity_names = ["Kenya", "KENYA!", "東京"] + draw(st.lists(answer_names, max_size=6))
    catalog = "".join(f"E\te{i}\t{name}\t\n" for i, name in enumerate(entity_names))
    kg = load_graph(io.StringIO(""), io.StringIO(catalog))
    members = st.sampled_from(sorted(kg.display_names))
    denotations = [frozenset({"e0", "e1"})] + draw(
        st.lists(st.frozensets(members, min_size=1), max_size=6))
    candidates = [make_candidate((), d, f"ent({min(d)})") for d in denotations]
    gold = draw(st.lists(st.one_of(st.sampled_from(entity_names), answer_names), max_size=5))
    return kg, candidates, gold


@settings(max_examples=200, deadline=None)
@given(answer_cases())
def test_candidate_f1s_are_the_f1_of_raw_names(case):
    # the specification: each denotation's raw entity names against the raw
    # gold answers, both normalized into sets
    kg, candidates, gold = case
    assert candidate_f1s(candidates, gold, kg) == [
        oracle.f1([kg.display_names[e] for e in c.denotation], gold) for c in candidates]


def test_evaluate_no_candidates(mini_kg):
    data = [DatasetExample("hello world?", ("whatever",))]
    report = evaluate(zero_model(), data, mini_kg, GenConfig())
    row = report.per_query[0]
    assert row.predicted_f1 == 0.0
    assert row.oracle_f1 == 0.0
    assert row.candidate_count == 0
    assert row.predicted_form is None


def test_evaluate_empty_data_is_config_error(mini_kg):
    with pytest.raises(ConfigError, match="evaluation data must be non-empty"):
        evaluate(zero_model(), [], mini_kg, GenConfig())


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
    example = DatasetExample("what adjoins ethiopia?", gold)
    tokens, candidates, scores = prepare(example, mini_kg, GenConfig())
    assert tokens == ["what", "adjoins", "ethiopia"]
    assert candidates == logform.generate_candidates(tokens, mini_kg, GenConfig())
    assert scores == candidate_f1s(candidates, gold, mini_kg)
    assert scores == [oracle.f1([mini_kg.display_names[e] for e in c.denotation], gold)
                      for c in candidates]
    assert max(scores) == 1.0
    assert learner.label_candidates(scores) == [s == 1.0 for s in scores]
    (row,) = evaluate(zero_model(), [example], mini_kg, GenConfig()).per_query
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


def fold_examples(data, spec):
    """The ``(train, test)`` examples of each fold ``cross_validate`` cuts."""
    return [([data[i] for i in train], [data[i] for i in test])
            for train, test in evaluator._split_positions(data, spec)]


def test_splits_partition():
    data = make_examples(10)
    splits = fold_examples(data, SplitSpec(mode="random", folds=5, seed=1))
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
    splits = fold_examples(make_examples(11), SplitSpec(mode="random", folds=3, seed=0))
    sizes = sorted(len(test) for _, test in splits)
    assert max(sizes) - min(sizes) <= 1


def test_alphabetical_splits_cluster_topics():
    data = [DatasetExample(f"what currency {i}?", ("a",)) for i in range(6)]
    data += [DatasetExample(f"border {i}?", ("a",)) for i in range(6)]
    random.Random(0).shuffle(data)
    splits = fold_examples(data, SplitSpec(mode="alphabetical", folds=4))
    # sorted then sliced: "border" questions fill the first folds entirely
    first_test = splits[0][1]
    assert all(ex.question.startswith("border") for ex in first_test)


def test_random_splits_deterministic():
    data = make_examples(9)
    a = fold_examples(data, SplitSpec(mode="random", folds=3, seed=42))
    b = fold_examples(data, SplitSpec(mode="random", folds=3, seed=42))
    assert a == b


def test_split_spec_validation():
    with pytest.raises(TypeError):
        SplitSpec(mode="random")  # folds has no default
    with pytest.raises(TypeError):
        SplitSpec(mode="random", holdout=0.2)
    with pytest.raises(ConfigError):
        SplitSpec(mode="random", folds=1)
    with pytest.raises(ConfigError):
        SplitSpec(mode="sideways", folds=5)


def test_too_few_examples():
    with pytest.raises(ConfigError):
        fold_examples(make_examples(3), SplitSpec(mode="random", folds=4, seed=0))


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


def keyed(rows_per_question, names):
    """Every row of the questions, in order, with its ids mapped to key text."""
    return [(tuple(names[i] for i in ids), label)
            for rows in rows_per_question for ids, label in rows]


def count_forks(monkeypatch):
    """The pids that ``os.fork`` returns to this process from now on."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
@pytest.mark.parametrize("max_candidates", [2, 50])
@pytest.mark.parametrize("mode", ["random", "alphabetical"])
@pytest.mark.parametrize("toy_seed", range(3))
def test_cv_fold_models_match_train_on_the_fold(toy_corpora, toy_seed, mode, max_candidates,
                                                monkeypatch, tmp_path):
    data, kg = toy_corpora[toy_seed]
    cfg = learner.TrainConfig(epochs=2)
    gen_cfg = GenConfig(max_candidates=max_candidates)
    spec = SplitSpec(mode=mode, folds=5, seed=toy_seed)
    recorded, built = [], []
    fit_folds, question_rows = evaluator._fit_folds, learner.question_rows

    def recording_question_rows(*args):
        built.append(question_rows(*args))
        return built[-1]

    def recording_fit_folds(layout, folds, train_cfg):
        # runs in this process; the folds train in the processes it forks
        recorded.append((layout, folds, fit_folds(layout, folds, train_cfg)))
        return recorded[-1][2]

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(learner, "question_rows", recording_question_rows)
    monkeypatch.setattr(evaluator, "_fit_folds", recording_fit_folds)
    reports, _ = cross_validate(data, kg, gen_cfg, cfg, spec)
    monkeypatch.undo()
    assert len(forks) == 2
    assert_no_child_left()
    ((layout, folds, fits),) = recorded
    splits = fold_examples(data, spec)
    assert len(built) == len(data)
    assert len(folds) == len(fits) == len(reports) == len(splits) == 5
    for (train_data, test_data), fold, (weights, epoch_losses), report in zip(
        splits, folds, fits, reports
    ):
        assert [data[i] for i in fold] == train_data
        # the fold's rows, keyed, are the rows of the fold indexed alone
        rows, names = [built[i] for i in fold], layout.names
        index: dict = {}
        alone_rows = [learner.question_rows(prepare(example, kg, gen_cfg), index)
                      for example in train_data]
        assert keyed(rows, names) == keyed(alone_rows, list(index))
        alone = learner.train(train_data, kg, gen_cfg, cfg)
        assert epoch_losses == alone.epoch_losses
        learner.save_model(learner.Model(weights=weights, gen_cfg=gen_cfg), tmp_path / "cv.model")
        learner.save_model(alone.model, tmp_path / "alone.model")
        assert (tmp_path / "cv.model").read_bytes() == (tmp_path / "alone.model").read_bytes()
        assert report == evaluate(alone.model, test_data, kg, gen_cfg)


@needs_fork
@pytest.mark.parametrize("mode", ["random", "alphabetical"])
@pytest.mark.parametrize("toy_seed", range(3))
def test_cv_in_process_and_forked_give_equal_reports(toy_corpora, toy_seed, mode, monkeypatch):
    data, kg = toy_corpora[toy_seed]
    cfg = learner.TrainConfig(epochs=2)

    def run(cpus, folds=5):
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(evaluator, "_usable_cpus", lambda: cpus)
        result = cross_validate(data, kg, GenConfig(), cfg,
                                SplitSpec(mode=mode, folds=folds, seed=toy_seed))
        monkeypatch.undo()
        # one process per usable CPU at most, this one among them
        assert len(forks) == min(folds, cpus) - 1
        assert_no_child_left()
        return result

    in_process = run(1)
    assert run(2) == in_process
    assert run(8) == in_process
    assert run(8, folds=3) == run(1, folds=3)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="no two CPUs to choose from")
def test_each_fold_process_keeps_to_a_cpu_of_its_own(toy_kg, toy_data, monkeypatch, tmp_path):
    # a kernel that balances no load between CPUs would leave a forked
    # process on its parent's CPU
    usable = os.sched_getaffinity(0)
    seen = tmp_path / "cpus.txt"
    fit = learner.fit_questions

    def recording_fit(*args):
        with open(seen, "a") as fh:  # one short append per fold, from every process
            fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
        return fit(*args)

    monkeypatch.setattr(learner, "fit_questions", recording_fit)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 2)
    cross_validate(toy_data[:40], toy_kg, GenConfig(), learner.TrainConfig(epochs=1),
                   SplitSpec(mode="random", folds=4, seed=0))
    assert_no_child_left()
    assert os.sched_getaffinity(0) == usable
    by_process = dict.fromkeys(seen.read_text().splitlines())
    assert len(by_process) == 2
    cpus = {line.split(" ", 1)[1] for line in by_process}
    assert cpus == {f"[{cpu}]" for cpu in sorted(usable)[:2]}


@needs_fork
def test_cv_trains_the_folds_of_a_process_it_cannot_fork_itself(toy_kg, toy_data, monkeypatch):
    data = toy_data[:40]
    spec = SplitSpec(mode="random", folds=5, seed=0)
    cfg = learner.TrainConfig(epochs=2)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 1)
    serial = cross_validate(data, toy_kg, GenConfig(), cfg, spec)
    fork, forks = os.fork, []

    def second_fork_fails():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 4)
    assert cross_validate(data, toy_kg, GenConfig(), cfg, spec) == serial
    assert len(forks) == 1
    assert_no_child_left()


@needs_fork
def test_cv_trains_in_process_while_another_thread_runs(toy_kg, toy_data, monkeypatch):
    # a fork copies no other thread, but would copy a lock that thread holds
    data = toy_data[:40]
    spec = SplitSpec(mode="random", folds=4, seed=0)
    cfg = learner.TrainConfig(epochs=2)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 4)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        forks = count_forks(monkeypatch)
        during = cross_validate(data, toy_kg, GenConfig(), cfg, spec)
        assert forks == []
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    forks = count_forks(monkeypatch)
    assert cross_validate(data, toy_kg, GenConfig(), cfg, spec) == during
    assert len(forks) == 3
    assert_no_child_left()


def cv_args(toy_dir, *flags):
    return ["cv", "--kg", str(toy_dir / toy.TRIPLES_FILE),
            "--catalog", str(toy_dir / toy.CATALOG_FILE),
            "--data", str(toy_dir / toy.DATASET_FILE), *flags]


@needs_fork
def test_a_fold_process_killed_mid_fold_is_a_one_line_error(toy_dir, toy_kg, toy_data,
                                                            monkeypatch, capsys):
    parent = os.getpid()
    fit = learner.fit_questions

    def killed_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(*args)

    monkeypatch.setattr(learner, "fit_questions", killed_in_a_child)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 2)
    message = (f"cross-validation: the process training fold 1"
               f" was killed by signal {int(signal.SIGKILL)}")
    with pytest.raises(TensorparseError) as exc:
        cross_validate(toy_data[:40], toy_kg, GenConfig(), learner.TrainConfig(epochs=1),
                       SplitSpec(mode="random", folds=4, seed=0))
    assert str(exc.value) == message
    assert_no_child_left()
    assert cli.main(cv_args(toy_dir, "--epochs", "1")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert_no_child_left()


@needs_fork
def test_an_interrupted_cv_leaves_no_fold_process(toy_kg, toy_data, monkeypatch):
    # this process is interrupted in its own first fold while the forked
    # ones still train theirs
    parent = os.getpid()
    fit = learner.fit_questions

    def interrupted_here(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return fit(*args)

    monkeypatch.setattr(learner, "fit_questions", interrupted_here)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: 3)
    forks = count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        cross_validate(toy_data, toy_kg, GenConfig(), learner.TrainConfig(),
                       SplitSpec(mode="random", folds=5, seed=0))
    assert len(forks) == 2
    assert_no_child_left()


def test_a_diverging_cv_gives_one_error_at_any_cpu_count(toy_dir, toy_kg, toy_data,
                                                         monkeypatch, capsys):
    (train_data, _), *_ = fold_examples(toy_data, SplitSpec(mode="random", folds=5, seed=42))
    with pytest.raises(ConfigError) as exc:
        learner.train(train_data, toy_kg, GenConfig(), learner.TrainConfig(learning_rate=1e308))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(evaluator, "_usable_cpus", lambda: cpus)
        assert cli.main(cv_args(toy_dir, "--lr", "1e308")) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cv_raises_the_lowest_failing_folds_error(toy_kg, toy_data, monkeypatch, cpus):
    # every fold but the first fails, each with its own message; with two
    # processes a forked one fails fold 1 while this one trains fold 0 and
    # then fails fold 2
    data = toy_data[:60]
    spec = SplitSpec(mode="random", folds=5, seed=0)
    fit = learner.fit_questions

    def failing_fit(layout, questions, cfg):
        # a fold is told by the one test question it leaves out
        held = set(questions)
        (fold,) = [i for i, (_, test) in enumerate(evaluator._split_positions(data, spec))
                   if test[0] not in held]
        if fold:
            raise ConfigError(f"fold {fold} failed")
        return fit(layout, questions, cfg)

    monkeypatch.setattr(learner, "fit_questions", failing_fit)
    monkeypatch.setattr(evaluator, "_usable_cpus", lambda: cpus)
    with pytest.raises(ConfigError, match="^fold 1 failed$"):
        cross_validate(data, toy_kg, GenConfig(), learner.TrainConfig(epochs=1), spec)
    assert_no_child_left()


INTERRUPTED_CHILD = """
import os, sys
from tensorparse import TensorparseError, evaluator, kgraph, learner, logform
from tensorparse.dataset import load_dataset

triples, catalog, dataset = sys.argv[1:]
with open(triples) as t, open(catalog) as c:
    kg = kgraph.load_graph(t, c)
with open(dataset) as fh:
    data = load_dataset(fh)[:40]
parent = os.getpid()
fit = learner.fit_questions


def interrupted_in_a_child(*args):
    if os.getpid() != parent:
        raise KeyboardInterrupt
    return fit(*args)


learner.fit_questions = interrupted_in_a_child
evaluator._usable_cpus = lambda: 3
try:
    evaluator.cross_validate(data, kg, logform.GenConfig(), learner.TrainConfig(epochs=1),
                             evaluator.SplitSpec(mode="random", folds=3, seed=0))
except TensorparseError as exc:
    print(exc)
finally:
    print("caller's code ran in", "the parent" if os.getpid() == parent else "a child")
"""


@needs_fork
def test_an_interrupted_fold_process_never_runs_the_callers_code(toy_dir):
    done = run_python("-c", INTERRUPTED_CHILD, str(toy_dir / toy.TRIPLES_FILE),
                      str(toy_dir / toy.CATALOG_FILE), str(toy_dir / toy.DATASET_FILE))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (b"cross-validation: the process training fold 1 exited with status 1\n"
                           b"caller's code ran in the parent\n")


def test_cv_prepares_each_question_once(toy_kg, toy_data, monkeypatch):
    # the last question has no tokens: it is never generated and has no rows
    data = toy_data[:19] + [DatasetExample("???", ("Brazil",))]
    generated, f1_calls = [], []
    generate, set_f1, question_rows = logform.generate_candidates, f1, learner.question_rows
    rows = []

    def counting_generate(tokens, kg, gen_cfg):
        generated.append(tuple(tokens))
        return generate(tokens, kg, gen_cfg)

    def counting_f1(predicted, gold):
        f1_calls.append(gold)
        return set_f1(predicted, gold)

    def recording_question_rows(*args):
        rows.append(question_rows(*args))
        return rows[-1]

    monkeypatch.setattr(logform, "generate_candidates", counting_generate)
    monkeypatch.setattr(evaluator, "f1", counting_f1)
    monkeypatch.setattr(learner, "question_rows", recording_question_rows)
    reports, _ = cross_validate(data, toy_kg, GenConfig(), learner.TrainConfig(epochs=1),
                                SplitSpec(mode="random", folds=5, seed=0))
    monkeypatch.undo()
    assert sorted(generated) == sorted(tuple(tokenize(ex.question)) for ex in data[:-1])
    tested = [row for report in reports for row in report.per_query]
    assert sorted(row.question for row in tested) == sorted(ex.question for ex in data)
    assert len(f1_calls) == sum(row.candidate_count for row in tested)
    assert len(rows) == len(data) and rows[-1] == []
    (empty,) = [row for row in tested if row.question == "???"]
    (alone,) = evaluate(zero_model(), data[-1:], toy_kg, GenConfig()).per_query

    def scores(row):
        return row.predicted_form, row.predicted_f1, row.oracle_f1, row.candidate_count

    assert scores(empty) == scores(alone) == (None, 0.0, 0.0, 0)
