"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this script as a child process, one per workload, with
BLAS thread counts pinned to 1 and the package on ``PYTHONPATH``.  One
client drives ``qcka_cad.cli.main`` in a closed loop: the next request is
sent only after the previous one returned and was checked.

``--trace 0`` runs one warm-up request, then requests 0, 1, 2, ... for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs the
workload's first ``traced_requests`` requests untraced and then again
traced, and reports the per-layer metrics; its fixed request count makes
every count repeat exactly for a given seed.  In both, request 0 is
compared byte for byte with the warm-up run of the same request.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qcka_cad import cli
from spans import Tracer
from workloads import WORKLOADS

# The tail is the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it, or the median when none has.  A fixed ladder reports
# the same percentile from run to run; the rank just ten below the top
# would instead track the few slowest samples, the ones a host stall hit.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
SHORTFALL_SCANS = 40  # rows scanned exhaustively per traced run, in request order


@dataclass(frozen=True)
class Outcome:
    seconds: float
    work: float
    error: str | None
    stdout: str


def serve(workload, index: int, main, reference: str | None = None) -> Outcome:
    """Run request ``index`` through ``main`` and check what it printed."""
    req = workload.request(index)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(req.argv)
        except Exception as exc:  # a raising request is a failed request
            code = exc
        seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    if isinstance(code, Exception):
        return Outcome(seconds, 0.0, f"request {index} raised {code!r}", stdout)
    try:
        work = workload.check(req.spec, code, stdout)
    except Exception as exc:  # malformed output of any kind fails the request
        detail = err.getvalue().strip()
        return Outcome(seconds, 0.0, f"request {index} {req.argv}: {type(exc).__name__}: "
                       f"{exc}" + (f"; stderr: {detail}" if detail else ""), stdout)
    if reference is not None and stdout != reference:
        return Outcome(seconds, 0.0,
                       f"request {index}: stdout differs from a repeat with the same seed",
                       stdout)
    return Outcome(seconds, work, None, stdout)


def closed_loop(workload, seconds: float, main) -> list:
    """Requests 0, 1, 2, ... until ``seconds`` have passed, after one warm-up."""
    reference = serve(workload, 0, main).stdout
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        i = len(outcomes)
        outcomes.append(serve(workload, i, main, reference if i == 0 else None))
    return outcomes


def end_to_end(workload, outcomes: list) -> tuple:
    times = sorted(o.seconds for o in outcomes)
    n, busy = len(times), sum(times)
    work = sum(o.work for o in outcomes)
    p50 = statistics.median(times)
    tail, tail_note = p50, f"median: fewer than {TAIL_BEYOND} of {n} samples lie beyond p75"
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100.0)  # nearest rank
        if n - rank >= TAIL_BEYOND:
            tail = times[rank - 1]
            tail_note = f"p{pct:g}: rank {rank} of {n} samples"
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "work_per_s": (work / busy, "1/s"),
        "req_ms_p50": (1e3 * p50, "ms"),
        "req_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "work_per_s": f"{work:.6g} {workload.unit} in {n} requests over {busy:.3f} s busy",
        "req_ms_p50": f"median of {n} samples",
        "req_ms_tail": tail_note,
        "peak_rss_mb": "ru_maxrss of the workload's child process",
    }
    return metrics, notes


def per_layer(workload, count: int, seed: int, out_dir: Path) -> tuple:
    reference = serve(workload, 0, cli.main).stdout
    plain = [serve(workload, i, cli.main, reference if i == 0 else None)
             for i in range(count)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i in range(count):
            tracer.request_id = i
            # cli.main is looked up again here, so the traced wrapper is called
            traced.append(serve(workload, i, cli.main, reference if i == 0 else None))
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics["cli.output_bytes"] = (sum(len(o.stdout.encode()) for o in traced), "B")
    metrics["trace.overhead_rel"] = (traced_s / plain_s - 1.0, "ratio")

    gaps = []
    if hasattr(workload, "shortfall"):
        for i, o in enumerate(traced):
            if o.error is None and len(gaps) < SHORTFALL_SCANS:
                gaps += workload.shortfall(workload.request(i).spec, o.stdout)
        gaps = gaps[:SHORTFALL_SCANS]
    metrics["keyrate.optimize_m.shortfall_rel"] = (max(gaps, default=0.0), "ratio")

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(spans_path)
    notes = {
        "trace.overhead_rel": f"traced {traced_s:.4f} s over untraced {plain_s:.4f} s "
                              f"for the same {count} requests, minus 1",
        "trace.request_s": "cli.main spans; the layers' self_s sum to it",
        "keyrate.optimize_m.shortfall_rel": f"max over {len(gaps)} rows with N <= "
                                            "the scan limit, against an exhaustive scan",
        "trace.spans": f"written to {spans_path.relative_to(out_dir.parent)}",
    }
    return metrics, notes, plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.trace:
        metrics, notes, outcomes = per_layer(workload, 2 if args.tiny else workload.traced_requests,
                                              args.seed, args.out_dir)
    else:
        outcomes = closed_loop(workload, args.seconds, cli.main)
        metrics, notes = end_to_end(workload, outcomes)
    failures = [o.error for o in outcomes if o.error]
    result = {
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "info": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_THREADS")},
            "work_unit": workload.unit,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
