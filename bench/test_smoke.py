"""Smoke test of the benchmark itself, at tiny request sizes.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
It checks that every metric named in BENCHMARK.json is printed for every
workload, and that wrong, nondeterministic or raising requests are
counted as failures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
from qcka_cad import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAT_ROWS = ("mean", "std", "stderr")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for v in result["metrics"].values():
        assert type(v["value"]) in (int, float)


def test_refuses_to_run_without_the_package(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "rate-curves", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _edit_rows(text: str, edit, key: str | None = None) -> str:
    """Apply ``edit`` to each output record, in JSON or CSV."""
    if text.lstrip()[:1] in "[{":
        payload = json.loads(text)
        rows = payload[key] if key else payload
        for row in rows if isinstance(rows, list) else [rows]:
            edit(row)
        return json.dumps(payload)
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row.get("trial") not in STAT_ROWS:
            edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _bump_rate(row):
    row["rate"] = float(row["rate"]) * 1.01 + 1e-3


def _shift_qx(row):
    row["qx_observed"] = float(row["qx_observed"]) + 0.2


CORRUPTIONS = {
    "rate-curves": lambda text: _edit_rows(text, _bump_rate),
    "simulate-paper": lambda text: _edit_rows(text, _shift_qx, key="trials"),
    "verify-battery": lambda text: text.replace("PASS", "FAIL", 1),
}


def _corrupting(edit):
    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        sys.stdout.write(edit(out.getvalue()))
        return code

    return main


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_is_counted_as_failure(name):
    workload = WORKLOADS[name](5, tiny=True)
    assert worker.serve(workload, 0, cli.main).error is None
    outcomes = worker.closed_loop(workload, 0.2, _corrupting(CORRUPTIONS[name]))
    assert outcomes and all(o.error and o.work == 0.0 for o in outcomes)


def test_nondeterministic_or_raising_request_is_counted_as_failure():
    workload = WORKLOADS["rate-curves"](5, tiny=True)
    assert "differs" in worker.serve(workload, 0, cli.main, reference="other").error

    def raising(argv):
        raise MemoryError("simulated")

    assert "raised" in worker.serve(workload, 0, raising).error
