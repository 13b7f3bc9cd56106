"""Cold starts: the analytic commands run on the standard library alone.

Each case starts a fresh interpreter with ``PYTHONPATH=src``, so nothing
imported by the test process leaks into what is measured.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qcka_cad
from qcka_cad import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Modules that the benchmark's tracer looks up in sys.modules after
# ``from qcka_cad import cli``.
TRACED = ("cli", "keyrate", "sampling", "protosim", "ghzsim", "bitcore")

RATE = ["rate", "--p", "2", "--signals", "1e7", "--q", "0.1", "--qz", "0.1,0.025"]
SWEEP_Q = ["sweep-q", "--p", "2", "--signals", "1e6", "--q-max", "0.04",
           "--qz-factors", "1,0.25", "--format", "json"]
SWEEP_N = ["sweep-n", "--signals-min", "1e4", "--signals-max", "1e7", "--points", "5",
           "--q", "0.05", "--qz", "0.05"]
SIMULATE = ["simulate", "--p", "2", "--signals", "1e7", "--q", "0.1", "--qz", "0.1,0.025",
            "--trials", "3", "--seed", "4"]
SELFTEST = ["selftest", "--quick", "--seed", "1"]


def run_cold(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def loaded_after(statement: str) -> dict:
    """Run ``statement`` cold; report its exit code, stdout and what was imported."""
    code = (
        "import contextlib, io, json, sys\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    {statement}\n"
        "print(json.dumps({'result': result, 'stdout': out.getvalue(),\n"
        "                  'modules': sorted(sys.modules)}))\n"
    )
    done = run_cold(code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def warm_stdout(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class TestNoNumpy:
    def test_package_import(self):
        state = loaded_after("import qcka_cad; result = len(qcka_cad.__all__)")
        assert "numpy" not in state["modules"]

    def test_cli_import_and_parser(self):
        state = loaded_after(
            "from qcka_cad import cli; cli.build_parser(); result = cli.__name__")
        assert "numpy" not in state["modules"]
        for name in TRACED:
            assert f"qcka_cad.{name}" in state["modules"]

    @pytest.mark.parametrize("argv", [RATE, SWEEP_Q, SWEEP_N],
                             ids=["rate", "sweep-q", "sweep-n"])
    def test_analytic_commands(self, argv):
        # Integer flags such as --signals 1e7 are parsed exactly from their
        # digits, without the decimal or fractions modules.
        state = loaded_after(f"from qcka_cad import cli; result = cli.main({argv!r})")
        assert not set(state["modules"]) & {"numpy", "decimal", "_decimal", "fractions"}
        assert (state["result"], state["stdout"]) == warm_stdout(argv)


class TestLazyModules:
    @pytest.mark.parametrize("argv", [SIMULATE, SELFTEST], ids=["simulate", "selftest"])
    def test_numpy_commands_run_cold(self, argv):
        state = loaded_after(f"from qcka_cad import cli; result = cli.main({argv!r})")
        assert "numpy" in state["modules"]
        assert state["result"] == 0
        assert (state["result"], state["stdout"]) == warm_stdout(argv)

    def test_exports(self):
        assert len(qcka_cad.__all__) <= 11
        assert len(set(qcka_cad.__all__)) == len(qcka_cad.__all__)
        for name in qcka_cad.__all__:
            value = getattr(qcka_cad, name)
            module = sys.modules[f"qcka_cad.{qcka_cad._EXPORTS[name]}"]
            assert value is getattr(module, name)
        assert set(qcka_cad.__all__) <= set(dir(qcka_cad))
        with pytest.raises(AttributeError):
            qcka_cad.no_such_name  # noqa: B018

    def test_submodules_resolve_as_attributes(self):
        result = loaded_after(
            "import qcka_cad; result = qcka_cad.keyrate.optimize_m.__module__"
        )
        assert result["result"] == "qcka_cad.keyrate"
        assert "numpy" not in result["modules"]

    def test_protosim_reexports_the_model(self):
        from qcka_cad import model, protosim

        for name in model.__all__:
            assert getattr(protosim, name) is getattr(model, name)


def test_numpy_integers_print_as_integers():
    for value in (np.int64(7), np.int32(-3), np.uint8(5)):
        assert cli._fmt(value) == str(int(value))
    assert cli._fmt(True) == "true"
    assert cli._fmt(np.float64(0.5)) == "0.5"
