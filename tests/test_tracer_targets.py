"""The benchmark tracer's targets resolve in the package, and a traced run
prints what an untraced one does.

``bench/spans.py`` looks every target up with ``getattr`` when it
installs, so a renamed or deleted name would otherwise fail only the
benchmark.  The module is run from its source, which writes no bytecode
next to it.
"""

import contextlib
import importlib
import io
import pathlib
import runpy

import pytest

from qcka_cad import cli, ghzsim

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SPANS_NAMESPACE = runpy.run_path(str(SPANS))
TARGETS = SPANS_NAMESPACE["TARGETS"]

# One request of each kind the benchmark traces: the battery, the README's
# rate example and a small simulation.
TRACED_ARGV = (
    ("selftest", "--quick"),
    ("rate", "--p", "2", "--signals", "1e7", "--q", "0.1", "--qz", "0.1,0.025"),
    ("simulate", "--p", "2", "--signals", "1e5", "--q", "0.05", "--qz", "0.05", "--trials", "2"),
)


@pytest.mark.parametrize("label", TARGETS)
def test_target_resolves(label):
    home, attr = label.split(".")
    target = getattr(importlib.import_module(f"qcka_cad.{home}"), attr)
    assert callable(target)
    if isinstance(target, type):  # the tracer wraps the class's own constructor
        assert "__init__" in vars(target)


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_traced_runs_match_untraced():
    untraced = [_run(argv) for argv in TRACED_ARGV]
    amplitudes = ghzsim.ghz_state(2, 0b01, 1).amplitudes
    tracer = SPANS_NAMESPACE["Tracer"]()
    tracer.install()
    try:
        traced = [_run(argv) for argv in TRACED_ARGV]
        traced_amplitudes = ghzsim.ghz_state(2, 0b01, 1).amplitudes
    finally:
        tracer.uninstall()
    assert [code for code, _ in untraced] == [0, 0, 0]
    assert traced == untraced
    assert (traced_amplitudes == amplitudes).all()
    for restored in (ghzsim.ghz_state, ghzsim.StateVector.__init__, cli.main):
        assert not hasattr(restored, "__wrapped__")
    for label, kept in tracer.notes.items():
        assert kept and all(value is not None for _, value in kept), label
