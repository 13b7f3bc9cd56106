"""Every narrative script under ``demos/`` runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    # Run from an empty directory, where any file a demo writes lands.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
