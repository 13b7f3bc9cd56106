"""The benchmark tracer's targets resolve in the package.

``bench/spans.py`` looks every target up with ``getattr`` when it
installs, so a renamed or deleted name would otherwise fail only the
benchmark.  The module is run from its source, which writes no bytecode
next to it.
"""

import importlib
import pathlib
import runpy

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("label", TARGETS)
def test_target_resolves(label):
    home, attr = label.split(".")
    target = getattr(importlib.import_module(f"qcka_cad.{home}"), attr)
    assert callable(target)
    if isinstance(target, type):  # the tracer wraps the class's own constructor
        assert "__init__" in vars(target)
