"""Golden gate: the toy seed-0 model file, eval report, final training loss
and cross-validation output are pinned.

A refactor that is meant to leave the model unchanged must keep every pin.
A change that alters them on purpose states the behaviour change and
updates the pins with it.  The model's header line and its body (the
weight lines) are also pinned apart, so a header change shows that the
weights did not move.

The same bytes come out of ``python -m tensorparse`` under two
``PYTHONHASHSEED``s, which order every set of strings differently, and out
of a ``cv`` on one CPU, which trains every fold in one process.
"""

import hashlib
import os

import pytest

from tensorparse import cli

from conftest import run_cli, run_python

MODEL_SHA256 = "2acecf90c48e8cf04f417616e28fcfb152a70e9747836ed7797b64b1a3172bc3"
MODEL_HEADER = b"tensorparse-model v2 max_candidates=200\n"
# the weight lines: no lf:denot.empty line, as every generated form denotes
# something
MODEL_BODY_SHA256 = "db600ac2793077e1b9e28721722ff3070f5981961e3d11be7666623c81813848"
REPORT_SHA256 = "28335353d2c637f7f8bb1ab2d0828d7c037ba9ae049f040aad3e6d9ca9aab43c"
TRAIN_STDOUT = "final training loss = 0.028452\n"
CV_STDOUT_SHA256 = {
    "random": "fbf02c9800ccfe808e825b3ef4e6fa43161be7434ba77af7030c78fd4c79619f",
    "alphabetical": "e7e7aeaef1b381f6b9783ba2a6022aba6b9cd834f07adbeb756a8d8fe6994c04",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_toy_model_and_report_are_byte_identical(toy_cli, tmp_path):
    report = tmp_path / "report.txt"
    assert toy_cli.train_stdout == TRAIN_STDOUT
    assert cli.main(["eval", *toy_cli.kg, *toy_cli.data, "--model", str(toy_cli.model),
                     "--report", str(report)]) == 0
    header, body = toy_cli.model.read_bytes().split(b"\n", 1)
    assert header + b"\n" == MODEL_HEADER
    assert sha256(body) == MODEL_BODY_SHA256
    assert sha256(toy_cli.model.read_bytes()) == MODEL_SHA256
    assert sha256(report.read_bytes()) == REPORT_SHA256


@pytest.mark.parametrize("order", sorted(CV_STDOUT_SHA256))
def test_toy_cv_output_is_byte_identical(toy_cli, capsys, order):
    assert cli.main(["cv", *toy_cli.kg, *toy_cli.data, "--order", order]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == CV_STDOUT_SHA256[order]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_string_hash_order_leaves_every_output_byte_identical(toy_cli, tmp_path, hashseed):
    # the alias index's keys are among the sets of strings each seed reorders
    env = {"PYTHONHASHSEED": hashseed}
    model, report = tmp_path / "toy.model", tmp_path / "report.txt"
    done = run_cli("train", *toy_cli.kg, *toy_cli.data, "--out", str(model), "--seed", "42",
                   env=env)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode("utf-8") == TRAIN_STDOUT
    assert sha256(model.read_bytes()) == MODEL_SHA256
    done = run_cli("eval", *toy_cli.kg, *toy_cli.data, "--model", str(model),
                   "--report", str(report), env=env)
    assert (done.returncode, done.stderr) == (0, b"")
    assert sha256(report.read_bytes()) == REPORT_SHA256
    done = run_cli("cv", *toy_cli.kg, *toy_cli.data, "--order", "alphabetical", env=env)
    assert (done.returncode, done.stderr) == (0, b"")
    assert sha256(done.stdout) == CV_STDOUT_SHA256["alphabetical"]


# cv in a process kept to one CPU, as taskset keeps it, that then reports
# how many CPUs it may use and how many processes it forked
ONE_CPU_CV = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tensorparse import cli, evaluator
fork, forks = os.fork, []


def counting_fork():
    forks.append(None)
    return fork()


os.fork = counting_fork
code = cli.main(sys.argv[1:])
print(f"{evaluator._usable_cpus()} usable CPU, {len(forks)} forks", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.sched_setaffinity and 2 usable CPUs")
@pytest.mark.parametrize("order", sorted(CV_STDOUT_SHA256))
def test_toy_cv_on_one_cpu_trains_every_fold_here(toy_cli, order):
    done = run_python("-c", ONE_CPU_CV, "cv", *toy_cli.kg, *toy_cli.data, "--order", order)
    assert (done.returncode, done.stderr) == (0, b"1 usable CPU, 0 forks\n")
    assert sha256(done.stdout) == CV_STDOUT_SHA256[order]
