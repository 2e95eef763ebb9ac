import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import tensorparse
from tensorparse import cli, kgraph, toy
from tensorparse.dataset import load_dataset
from tensorparse.learner import Model
from tensorparse.logform import Candidate, EntityLit, Intersect, Join, ReverseJoin

import oracle

MINI_CATALOG = """\
# mini world
E\tbrazil\tbrazil\t
E\tbrazilian_real\tbrazilian real\t
E\tethiopia\tethiopia\t
E\tkenya\tkenya\t
E\tsudan\tsudan\t
E\tdominican_republic\tdominican republic\tthe dominican republic
E\tbrad_pitt\tBrad Pitt\t
E\ttroy\tTroy\t
E\tachilles\tAchilles\t
E\tp1\tperformance 1\t
R\tcurrency\tcurrency\tcountry\tcurrency
R\tadjoins\tadjoins\tcountry\tcountry
R\tactor\tactor\tperformance\tperson
R\tfilm\tfilm\tperformance\tfilm
R\tcharacter\tcharacter\tperformance\tcharacter
"""

MINI_TRIPLES = """\
brazil\tcurrency\tbrazilian_real
ethiopia\tadjoins\tkenya
ethiopia\tadjoins\tsudan
kenya\tadjoins\tethiopia
sudan\tadjoins\tethiopia
p1\tactor\tbrad_pitt
p1\tfilm\ttroy
p1\tcharacter\tachilles
"""


def graph_from_strings(triples: str, catalog: str) -> kgraph.KnowledgeGraph:
    return kgraph.load_graph(io.StringIO(triples), io.StringIO(catalog))


def logical_form(text):
    """The program's logical form whose text is ``text``."""
    return _build(oracle.parse(text))


def _build(tree):
    if tree[0] == "ent":
        return EntityLit(tree[1])
    if tree[0] == "and":
        return Intersect(_build(tree[1]), _build(tree[2]))
    return (Join if tree[0] == "join" else ReverseJoin)(tree[1], _build(tree[2]))


def make_candidate(tokens=("the", "x", "of", "y"), denotation=(), form="ent(e)"):
    """A candidate with the form text ``form``, the utterance ``tokens`` and
    the members of ``denotation``."""
    return Candidate(logical_form(form), tuple(tokens), frozenset(denotation))


def zero_model():
    return Model(weights={})


SRC = os.path.dirname(os.path.dirname(tensorparse.__file__))


def run_python(*args, env=None, stdout=subprocess.PIPE):
    """``python *args`` as a process, with ``src`` first on ``PYTHONPATH``
    and ``env`` over this process' environment.  stderr is captured, and so
    is stdout unless ``stdout`` is a file or descriptor to write it to; both
    as bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path}, timeout=120)


def run_cli(*args, env=None, stdout=subprocess.PIPE):
    """``python -m tensorparse *args`` through :func:`run_python`."""
    return run_python("-m", "tensorparse", *args, env=env, stdout=stdout)


@pytest.fixture
def mini_kg():
    return graph_from_strings(MINI_TRIPLES, MINI_CATALOG)


@pytest.fixture(scope="session")
def mini_catalog():
    """``(names, aliases, phrases)`` of the mini catalog, read by the oracle."""
    return oracle.read_catalog(MINI_CATALOG.splitlines())


@pytest.fixture(scope="session")
def mini_graph():
    """The oracle's graph of the mini triples."""
    return oracle.Graph(oracle.read_triples(MINI_TRIPLES.splitlines()))


@pytest.fixture(scope="session")
def toy_dir(tmp_path_factory):
    """The toy corpus of ``gen-toy --seed 0``."""
    out = tmp_path_factory.mktemp("toy")
    toy.gen_toy(out, seed=0)
    return out


class ToyCli(NamedTuple):
    """The toy corpus (seed 0) and the model ``train --seed 42`` writes from
    it, the one ``test_golden`` pins, as command lines name them."""

    dir: Path
    model: Path
    train_stdout: str

    @property
    def kg(self):
        return ["--kg", str(self.dir / toy.TRIPLES_FILE),
                "--catalog", str(self.dir / toy.CATALOG_FILE)]

    @property
    def data(self):
        return ["--data", str(self.dir / toy.DATASET_FILE)]


@pytest.fixture(scope="session")
def toy_cli(toy_dir, tmp_path_factory):
    trained = ToyCli(toy_dir, tmp_path_factory.mktemp("model") / "toy.model", "")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["train", *trained.kg, *trained.data, "--out", str(trained.model),
                         "--seed", "42"]) == 0
    return trained._replace(train_stdout=out.getvalue())


@pytest.fixture(scope="session")
def toy_kg(toy_dir):
    with open(toy_dir / toy.TRIPLES_FILE) as triples, open(
        toy_dir / toy.CATALOG_FILE
    ) as catalog:
        return kgraph.load_graph(triples, catalog)


@pytest.fixture(scope="session")
def toy_catalog(toy_dir):
    """``(names, aliases, phrases)`` of the toy catalog, read by the oracle."""
    with open(toy_dir / toy.CATALOG_FILE, encoding="utf-8") as catalog:
        return oracle.read_catalog(catalog)


@pytest.fixture(scope="session")
def toy_graph(toy_dir):
    """The oracle's graph of the toy triples."""
    with open(toy_dir / toy.TRIPLES_FILE, encoding="utf-8") as triples:
        return oracle.Graph(oracle.read_triples(triples))


@pytest.fixture(scope="session")
def toy_data(toy_dir):
    with open(toy_dir / toy.DATASET_FILE) as fh:
        return load_dataset(fh)


@pytest.fixture(scope="session")
def toy_corpora(tmp_path_factory):
    """``{seed: (dataset, graph)}`` of the toy corpus for seeds 0-4."""
    corpora = {}
    for seed in range(5):
        out = tmp_path_factory.mktemp(f"toy{seed}")
        toy.gen_toy(out, seed=seed)
        with open(out / toy.TRIPLES_FILE) as triples, open(out / toy.CATALOG_FILE) as catalog:
            kg = kgraph.load_graph(triples, catalog)
        with open(out / toy.DATASET_FILE) as fh:
            corpora[seed] = (load_dataset(fh), kg)
    return corpora
