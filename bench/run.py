"""qcka-cad benchmark: seeded CLI workloads, end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload rate-curves --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see ``workloads.py`` for the request mix and the checks):

rate-curves     ``rate``, ``sweep-q`` and ``sweep-n`` with optimised test
                size; the paper's main output, bound by ``keyrate``.
simulate-paper  paper-scale ``simulate`` (p=2 at 1e7 signals, p=8 at 1e6
                signals with 4 trials); bound by ``protosim.run_trial``.
verify-battery  full ``selftest`` batteries; the only user of the
                ``ghzsim`` kernels and the ``sampling`` oracle.

Each workload runs in its own child process (``worker.py``) with BLAS
thread counts pinned to 1.  ``--trace 0`` prints the end-to-end metrics:
``setup_s`` (median cold start of a fresh interpreter importing
``qcka_cad.cli`` and building its parser, over several launches),
``work_per_s``, ``req_ms_p50``, ``req_ms_tail`` and ``peak_rss_mb``.
``--trace 1`` prints the per-layer metrics: it runs a fixed number of
each workload's first requests untraced and then traced (``--seconds``
does not apply), so counts repeat exactly for a seed.
Every request's output is checked; the last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` (their ratio is the
failure ratio) and ``metrics``.  Machine and build details, the
measurements and their notes are also written to ``.bench_out/``, with
the spans of traced runs.

``--tiny`` shrinks every request so that the smoke test runs in seconds.
Exit status: 0 when the run completed (even with failed requests), 1 when
a workload child failed, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
SETUP_CODE = "import qcka_cad.cli as cli; cli.build_parser()"
SETUP_LAUNCHES = 11
RUN_LIMIT_S = 170.0  # a single-workload run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(env: dict, launches: int) -> list:
    """Wall times of fresh interpreters importing the CLI and building its parser.

    One launch first, untimed, so that every timed one finds the bytecode
    cache written.  No timeout is passed: waiting with one polls in steps
    of up to 50 ms, which would quantize the measured times.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name} worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny requests, for the smoke test")
    args = parser.parse_args()

    if not (SRC / "qcka_cad" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    info = {"git_revision": git_revision(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}
    setup = None
    if args.trace == 0:
        setup = setup_times(env, 2 if args.tiny else SETUP_LAUNCHES)

    budget = RUN_LIMIT_S - (time.monotonic() - started)  # per workload child
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, env, budget)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    merged = {}
    for name, result in results.items():
        metrics, notes = result["metrics"], result["notes"]
        if setup is not None:
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
            notes["setup_s"] = (f"median of {len(setup)} launches, "
                                f"{min(setup):.4f} to {max(setup):.4f} s")
        notes["fail_ratio"] = f"{result['failed']} of {result['attempted']} requests failed"
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, m in metrics.items():
            print(f"  {metric:56s} {m['value']:>14.6g} {m['unit']:7s} {notes.get(metric, '')}")
        print(f"  {'fail_ratio':56s} {result['failed'] / result['attempted']:>14.6g} "
              f"{'ratio':7s} {notes['fail_ratio']}")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
        record = {**result, "metrics": metrics, "notes": notes,
                  "info": {**info, **result["info"], "workload": name}}
        print("  info " + json.dumps(record["info"]))
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        prefix = "" if len(names) == 1 else name + "."
        merged.update({prefix + metric: m for metric, m in metrics.items()})

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
