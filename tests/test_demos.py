"""Every narrative script under ``demos/`` runs to completion; demo 04's
stdout is pinned byte for byte."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

GOLDEN_DESK_VERIFICATION = """\
1. Hadamard-basis parity equals the phase bit
   p=1: exhaustive over all (x, y), max deviation 4.44e-16
   p=2: exhaustive over all (x, y), max deviation 6.66e-16
   p=3: exhaustive over all (x, y), max deviation 4.44e-16

2. all-Hadamard expansion structure
   28 GHZ states verified against the explicit expansion

3. parity sieve: direct vs delayed measurement order
   ideal round:      TV = 0.0e+00
   crossed round:    TV = 0.0e+00
   50 random pure 8-qubit inputs: max TV = 0.0e+00

4. min-entropy of restricted GHZ superpositions
   n=1 p=1 |J|=1: hmin = 1.0000 >= bound = 1.0000
   n=2 p=1 |J|=2: hmin = 1.0000 >= bound = 1.0000
   n=2 p=1 |J|=4: hmin = -0.0000 >= bound = 0.0000
   n=3 p=1 |J|=3: hmin = 1.4150 >= bound = 1.4150
   n=2 p=2 |J|=2: hmin = 1.0000 >= bound = 1.0000
"""


def run_demo(script, cwd):
    # Run from an empty directory, where any file a demo writes lands.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], env=env, cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    result = run_demo(script, tmp_path)
    assert result.returncode == 0, result.stderr


def test_desk_verification_stdout(tmp_path):
    result = run_demo(ROOT / "demos" / "04_desk_verification.py", tmp_path)
    assert (result.returncode, result.stdout) == (0, GOLDEN_DESK_VERIFICATION)
