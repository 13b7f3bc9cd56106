"""Seeded CLI request generators and output checks for the benchmark.

Each workload turns a workload seed into an indexable stream of argv
lists for ``qcka_cad.cli.main``; request ``i`` depends only on the seed
and ``i``, so a traced pass can replay exactly the requests an untraced
pass ran.  The program only ever sees the generated argv.

The checks do not compare bytes against goldens.  They recompute what a
correct program must print from the paper's formulas, written out here
independently of the package, so a faster optimizer or simulator that is
still correct passes.  A check returns the request's work in the
workload's unit (rate points, key block-parties, or batteries) and
raises :class:`CheckFailed` otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

EXIT_OK = 0
EXIT_ZERO_RATE = 2

# Simulated means must lie within this many binomial standard errors of
# the analytic model: about 2e-9 two-sided per statistic, so the tens of
# thousands of statistics checked across a full set of runs do not raise
# a false alarm, while a biased simulator is still caught at paper scale.
SIGMA_LIMIT = 6.0

# Rows with at most this many blocks N get an exhaustive scan over the
# test size m, so the optimizer's shortfall is measured exactly.
SCAN_MAX_HALF = 20_000


class CheckFailed(Exception):
    """The program's output is not what a correct program prints."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def acceptance(qz) -> float:
    """Sieve acceptance probability prod_j (QZ_j^2 + (1 - QZ_j)^2)."""
    out = 1.0
    for z in qz:
        out *= z * z + (1.0 - z) * (1.0 - z)
    return out


def independent_error(z: float) -> float:
    """Kept-bit error of one party after the sieve under i.i.d. noise."""
    return z * z / (z * z + (1.0 - z) * (1.0 - z))


def expected_rate(p: int, half: int, m: int, eps: float, q: float, qz) -> float:
    """Key rate ell / 2N of the finite-key formula with the conservative leak.

    ell = n_a (1 - h[(n/n_a)(QX + delta)]) - leak_EC - 2 log2(1/eps), with
    n_a = round(p_a n), QX = 2Q(1-Q), delta = sqrt((N+2) ln(2/eps^2)/(mN))
    and leak_EC = n_a max_j h(QZ_j^2 / p_a) + log2(2p/eps).
    """
    pa = acceptance(qz)
    n = half - m
    n_a = round(pa * n)
    if n_a == 0:
        return 0.0
    qx = 2.0 * q * (1.0 - q)
    delta = math.sqrt((half + 2.0) * (math.log(2.0) - 2.0 * math.log(eps)) / (m * half))
    hmin = n_a * (1.0 - binary_entropy(min(0.5, (n / n_a) * (qx + delta))))
    worst = max(min(0.5, z * z / pa) for z in qz)
    leak = n_a * binary_entropy(worst) + math.log2(2.0 * p) - math.log2(eps)
    ell = hmin - leak - 2.0 * math.log2(1.0 / eps)
    return ell / (2.0 * half) if ell > 0.0 else 0.0


def best_rate(p: int, half: int, eps: float, q: float, qz) -> float:
    """The largest rate over every valid test size, by exhaustive scan."""
    return max(expected_rate(p, half, m, eps, q, qz) for m in range(1, math.ceil(half / 2)))


def _records(fmt: str, stdout: str) -> list:
    if fmt == "json":
        payload = json.loads(stdout)
        return payload if isinstance(payload, list) else [payload]
    return list(csv.DictReader(io.StringIO(stdout)))


def _floats(value) -> list:
    if isinstance(value, list):
        return [float(v) for v in value]
    return [float(v) for v in str(value).split(",")]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the parameters its check needs."""

    argv: list
    spec: dict


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _log_uniform_signals(rng: random.Random, lo: float, hi: float) -> int:
    return 2 * max(1, round(10 ** rng.uniform(math.log10(lo), math.log10(hi)) / 2))


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# rate-curves
# ---------------------------------------------------------------------------

PARTIES = (1, 2, 3, 4, 8)
EPSILONS = (1e-10, 1e-36)
Z_FACTORS = (1.0, 0.5, 0.25)
SWEEP_Q_MAX = 0.16
SWEEP_Q_STEP = 0.01
SWEEP_Q_POINTS = 17
SWEEP_N_POINTS = 16
# Four single-point requests per sweep pair keeps single points the
# majority, so the median request sits inside one cluster of times
# (single points about 4 ms, sweeps about 30 ms) instead of on its edge.
RATE_CYCLE = ("rate", "rate", "sweep-q", "rate", "rate", "sweep-n")


class RateCurves:
    """``rate``, ``sweep-q`` and ``sweep-n`` requests with optimised test size."""

    name = "rate-curves"
    unit = "rate points"
    traced_requests = 200

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def request(self, index: int) -> Request:
        rng = _rng(self.seed, index)
        kind = RATE_CYCLE[index % len(RATE_CYCLE)]
        p = rng.choice(PARTIES)
        eps = rng.choice(EPSILONS)
        fmt = rng.choice(("csv", "json"))
        factors = [rng.choice(Z_FACTORS) for _ in range(p)]
        common = ["--p", str(p), "--epsilon", _num(eps), "--format", fmt]
        spec = {"kind": kind, "p": p, "eps": eps, "format": fmt}
        if kind == "sweep-q":
            signals = _log_uniform_signals(rng, 1e3, 1e12)
            argv = ["sweep-q", "--signals", str(signals), "--q-min", "0",
                    "--q-max", _num(SWEEP_Q_MAX), "--q-step", _num(SWEEP_Q_STEP),
                    "--qz-factors", ",".join(_num(f) for f in factors)]
            spec.update(signals=signals, factors=factors)
            return Request(argv + common, spec)
        q = round(rng.uniform(0.01, 0.12), 4)
        qz = [round(q * f, 6) for f in factors]
        qz_arg = ",".join(_num(z) for z in qz)
        spec.update(q=q, qz=qz)
        if kind == "sweep-n":
            lo = _log_uniform_signals(rng, 1e3, 1e7)
            hi = min(10**12, _log_uniform_signals(rng, lo * 100, lo * 1e5))
            argv = ["sweep-n", "--signals-min", str(lo), "--signals-max", str(hi),
                    "--points", str(SWEEP_N_POINTS), "--q", _num(q), "--qz", qz_arg]
            spec.update(lo=lo, hi=hi)
            return Request(argv + common, spec)
        signals = _log_uniform_signals(rng, 1e3, 1e12)
        argv = ["rate", "--signals", str(signals), "--q", _num(q), "--qz", qz_arg]
        spec.update(signals=signals)
        return Request(argv + common, spec)

    def points(self, spec: dict, stdout: str) -> list:
        """Each row as (half_signals, m, q, qz, reported rate)."""
        rows = _records(spec["format"], stdout)
        kind = spec["kind"]
        if kind == "sweep-q":
            _require(len(rows) == SWEEP_Q_POINTS, f"{len(rows)} sweep-q rows")
        elif kind == "sweep-n":
            _require(1 <= len(rows) <= SWEEP_N_POINTS, f"{len(rows)} sweep-n rows")
        else:
            _require(len(rows) == 1, f"{len(rows)} rate rows")
        out = []
        for i, row in enumerate(rows):
            _require(int(row["p"]) == spec["p"], "wrong party count")
            _require(_close(float(row["epsilon"]), spec["eps"]), "wrong epsilon")
            signals = int(row["signals"])
            if kind == "sweep-q":
                q = i * SWEEP_Q_STEP
                qz = [f * q for f in spec["factors"]]
                _require(signals == spec["signals"], "wrong signal count")
            else:
                q, qz = spec["q"], spec["qz"]
                if kind == "rate":
                    _require(signals == spec["signals"], "wrong signal count")
                else:
                    _require(spec["lo"] <= signals <= spec["hi"], "signals off the grid")
            _require(_close(float(row["q"]), q), f"row {i}: wrong Q")
            _require(all(_close(a, b) for a, b in zip(_floats(row["qz"]), qz, strict=True)),
                     f"row {i}: wrong QZ")
            half, m = signals // 2, int(row["m"])
            _require(1 <= m and 2 * m < half, f"row {i}: test size {m} out of range")
            out.append((half, m, q, qz, float(row["rate"])))
        return out

    def check(self, spec: dict, code, stdout: str) -> float:
        rows = self.points(spec, stdout)
        for half, m, q, qz, rate in rows:
            want = expected_rate(spec["p"], half, m, spec["eps"], q, qz)
            _require(_close(rate, want), f"rate {rate!r} at N={half}, m={m}; formula gives {want!r}")
        want_code = EXIT_OK if any(r[4] > 0.0 for r in rows) else EXIT_ZERO_RATE
        _require(code == want_code, f"exit code {code}, expected {want_code}")
        return float(len(rows))

    def shortfall(self, spec: dict, stdout: str) -> list:
        """Relative gaps to the exhaustive optimum for rows small enough to scan."""
        gaps = []
        for half, m, q, qz, rate in self.points(spec, stdout):
            if half <= SCAN_MAX_HALF:
                best = best_rate(spec["p"], half, spec["eps"], q, qz)
                if best > 0.0:
                    gaps.append((best - rate) / best)
        return gaps


# ---------------------------------------------------------------------------
# simulate-paper
# ---------------------------------------------------------------------------

# (parties, signals, trials): long in N, or wide in parties.  The trial
# counts make both shapes take about the same time per request, so the
# request times form one cluster and the median and tail are steady.
SIMULATE_SHAPES = ((2, 10**7, 1), (8, 10**6, 4))
SIMULATE_SHAPES_TINY = ((2, 10**5, 1), (8, 2 * 10**4, 4))


class SimulatePaper:
    """Paper-scale ``simulate`` requests, checked against the analytic model."""

    name = "simulate-paper"
    unit = "key block-parties"
    traced_requests = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shapes = SIMULATE_SHAPES_TINY if tiny else SIMULATE_SHAPES

    def request(self, index: int) -> Request:
        rng = _rng(self.seed, index)
        p, signals, trials = self.shapes[index % len(self.shapes)]
        q = round(rng.uniform(0.02, 0.12), 4)
        qz = [round(rng.uniform(0.02, 0.12), 4) for _ in range(p)]
        fmt = rng.choice(("csv", "json"))
        argv = ["simulate", "--p", str(p), "--signals", str(signals), "--q", _num(q),
                "--qz", ",".join(_num(z) for z in qz), "--trials", str(trials),
                "--seed", str(rng.randrange(2**31)), "--format", fmt]
        spec = {"p": p, "half": signals // 2, "trials": trials, "q": q, "qz": qz,
                "format": fmt}
        return Request(argv, spec)

    def check(self, spec: dict, code, stdout: str) -> float:
        _require(code == EXIT_OK, f"exit code {code}")
        p, half, trials = spec["p"], spec["half"], spec["trials"]
        if spec["format"] == "json":
            rows = json.loads(stdout)["trials"]
        else:
            rows = [r for r in csv.DictReader(io.StringIO(stdout))
                    if r["trial"] not in ("mean", "std", "stderr")]
        _require(len(rows) == trials, f"{len(rows)} trial rows for {trials} trials")
        _require([int(r["trial"]) for r in rows] == list(range(trials)), "trial indices")
        n = int(rows[0]["n_a"]) + int(rows[0]["n_r"])
        m = half - n
        _require(1 <= m and 2 * m < half, f"test size {m} out of range")
        qx = 2.0 * spec["q"] * (1.0 - spec["q"])
        pa = acceptance(spec["qz"])
        indep = [independent_error(z) for z in spec["qz"]]
        accepted = 0
        for r in rows:
            _require(int(r["n_a"]) + int(r["n_r"]) == n, "n_a + n_r differs between trials")
            _require(_close(float(r["qx_analytic"]), qx), "qx_analytic")
            _require(_close(float(r["pa_analytic"]), pa), "pa_analytic")
            for j in range(p):
                _require(_close(float(r[f"postcad_independent_{j + 1}"]), indep[j]),
                         f"postcad_independent_{j + 1}")
                _require(_close(float(r[f"postcad_conservative_{j + 1}"]),
                                spec["qz"][j] ** 2 / pa), f"postcad_conservative_{j + 1}")
            accepted += int(r["n_a"])

        def near(column: str, want: float, draws: int) -> None:
            mean = sum(float(r[column]) for r in rows) / trials
            sigma = math.sqrt(want * (1.0 - want) / draws)
            _require(abs(mean - want) <= SIGMA_LIMIT * sigma,
                     f"mean {column} {mean!r} is {abs(mean - want) / sigma:.1f} sigma "
                     f"from {want!r}")

        near("qx_observed", qx, m * trials)
        near("accepted_fraction", pa, n * trials)
        for j in range(p):
            near(f"postcad_error_{j + 1}", indep[j], accepted)
        return float(trials * n * p)


# ---------------------------------------------------------------------------
# verify-battery
# ---------------------------------------------------------------------------


class VerifyBattery:
    """Full ``selftest`` batteries at seeded battery seeds."""

    name = "verify-battery"
    unit = "batteries"
    traced_requests = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.extra = ["--quick"] if tiny else []

    def request(self, index: int) -> Request:
        rng = _rng(self.seed, index)
        fmt = rng.choice(("csv", "json"))
        argv = ["selftest", "--seed", str(rng.randrange(2**31)), "--format", fmt]
        return Request(argv + self.extra, {"format": fmt})

    def check(self, spec: dict, code, stdout: str) -> float:
        _require(code == EXIT_OK, f"exit code {code}")
        if spec["format"] == "json":
            statuses = {r["name"]: r["status"] for r in json.loads(stdout)}
        else:
            statuses = {line.split()[1]: line.split()[0] for line in stdout.splitlines()}
        _require(bool(statuses), "no checks reported")
        failed = sorted(name for name, status in statuses.items() if status != "PASS")
        _require(not failed, f"checks not passed: {failed}")
        return 1.0


WORKLOADS = {w.name: w for w in (RateCurves, SimulatePaper, VerifyBattery)}
