"""The test-side oracle stands apart from the program and decides what it says."""

import ast
import sys
from pathlib import Path

import pytest

import oracle

ORACLE_PY = Path(oracle.__file__)


def foreign_imports(source):
    """The top-level names of the modules ``source`` imports that are not
    part of the standard library, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import, "from . import x", is named "."
            roots = ["." if node.level else node.module.partition(".")[0]]
        else:
            continue
        found += [root for root in roots if root not in sys.stdlib_module_names]
    return found


def test_the_oracle_imports_only_the_standard_library():
    source = ORACLE_PY.read_text(encoding="utf-8")
    assert foreign_imports(source) == []
    # the walk sees an import wherever it is written
    for planted, name in [("from tensorparse import features", "tensorparse"),
                          ("import numpy as np", "numpy"),
                          ("def f():\n    import tensorparse.learner", "tensorparse"),
                          ("from . import kgraph", ".")]:
        assert foreign_imports(f"{source}\n{planted}\n") == [name]


def test_parse_reads_each_shape_and_rejects_what_is_not_one_form():
    assert oracle.parse("and(ent(a), rev(r, join(s, ent(b))))") == (
        "and", ("ent", "a"), ("rev", "r", ("join", "s", ("ent", "b"))))
    for text in ("", "ent(a", "ent()", "ent(a) ", "ent(a)x", "join(r,ent(a))",
                 "join(r, ent(a)", "and(ent(a))", "or(ent(a), ent(b))", "join(r(, ent(a))"):
        with pytest.raises(ValueError):
            oracle.parse(text)


@pytest.mark.parametrize("matrix, pivots", [
    ([[2, 1], [1, 2]], [2, 1.5]),
    ([[1, 1], [1, 1]], [1, 0]),  # singular
    ([[0, 0], [0, 3]], [0, 3]),  # a zero pivot with its row zero
    ([[0, 1], [1, 0]], None),  # a zero pivot beside a nonzero entry
    ([[1, 2], [2, 1]], None),  # a negative pivot
    ([[1, 2], [0, 1]], None),  # not symmetric
    ([], []),
])
def test_psd_pivots_decide_positive_semidefiniteness_exactly(matrix, pivots):
    assert oracle.psd_pivots(matrix) == pivots
