"""Every hook of the pipeline benchmark's traced run finds its target.

``pipebench/run.py::install_hooks`` hooks the layers' functions where their
callers look them up (``learner.dot``, ``features.assemble``, ...).  A hook
whose target is gone is skipped there, and the per-layer metrics that need
it silently vanish, so a refactor that inlines or renames one fails here.
"""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "pipebench" / "run.py"


class TargetRecorder:
    """Stands in for ``spans.Tracer``: looks each target up the same way and
    records the ones that are missing, replacing nothing."""

    def __init__(self):
        self.hooked = []
        self.missing = []

    def _find(self, owner, attr):
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        (self.hooked if callable(target) else self.missing).append(f"{owner.__name__}.{attr}")

    def span(self, owner, attr, name):
        self._find(owner, attr)

    def leaf(self, owner, attr, name, timed=True, measure=None):
        self._find(owner, attr)


def test_install_hooks_finds_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("pipebench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up
    spec.loader.exec_module(run)
    recorder = TargetRecorder()
    run.install_hooks(recorder)
    assert recorder.missing == []
    assert "tensorparse.learner.dot" in recorder.hooked
    assert "tensorparse.features.assemble" in recorder.hooked
