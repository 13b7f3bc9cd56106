"""Verification battery for the facts the security argument rests on.

``qcka-cad selftest`` runs it through :func:`selftest_checks`; the
acceptance suite calls the same checks with its own pinned seeds.  A
randomised check takes a fresh ``np.random.SeedSequence`` and draws one
Philox stream per configuration from ``seeds.spawn(len(configs))``.
Every check hands a batched ``ghzsim`` kernel stacked inputs built in
bulk: random states drawn a block per generator call, parity sets as
sorted word indices, and for each p the whole family of 2^(p+1) GHZ
basis states as one array.
A check that raises surfaces as :class:`CheckError`, never as a pass, and
a NaN among the values a check folds makes it FAIL with a NaN margin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ghzsim, sampling
from .bitcore import BitString

__all__ = [
    "CheckResult", "CheckError", "selftest_checks",
    "check_parity_exact", "check_orthonormality", "check_expansion",
    "check_sieve_equivalence", "check_key_min_entropy",
    "check_sampling_exhaustive", "check_sampling_roundtrip",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL
    margin: float
    detail: str


class CheckError(Exception):
    """A check raised instead of returning a result."""

    def __init__(self, name: str, exc: Exception):
        super().__init__(f"check {name} raised {type(exc).__name__}: {exc}")


def _check(name: str):
    """Name a check that returns ``(passed, margin, detail)``."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args) -> CheckResult:
            try:
                passed, margin, detail = fn(*args)
            except Exception as exc:
                raise CheckError(name, exc) from exc
            return CheckResult(name, "PASS" if passed else "FAIL", float(margin), detail)
        return run
    return decorate


def _fold(fold, worst: float, values) -> float:
    """``fold`` (max or min) of worst and values, NaN if any of them is NaN.

    Python's max and min skip a NaN, which would let a NaN result pass;
    ties keep the first value, as the plain fold does.
    """
    values = [worst, *values]
    return math.nan if any(math.isnan(v) for v in values) else fold(values)


def _ghz_labels(p: int) -> tuple:
    """Correlation-word indices and phase bits of every p-party GHZ basis
    state, word-major."""
    labels = np.arange(2 << p)
    return labels >> 1, labels & 1


def _streams(seeds: np.random.SeedSequence, count: int) -> list:
    return [np.random.Generator(np.random.Philox(child)) for child in seeds.spawn(count)]


@_check("ghz-parity-exact")
def check_parity_exact():
    worst = 0.0
    for p in (1, 2, 3):
        words, ys = _ghz_labels(p)
        dist = ghzsim.x_basis_parity_distributions(ghzsim.ghz_states(p, words, ys))
        rows = np.arange(len(ys))
        worst = _fold(max, worst, [*np.abs(dist[rows, ys] - 1.0), *dist[rows, 1 - ys]])
    return (worst <= 1e-12, worst,
            "max deviation of the announced parity from the phase bit")


@_check("ghz-orthonormality")
def check_orthonormality():
    worst = 0.0
    for p in (1, 2, 3):
        basis = ghzsim.ghz_states(p, *_ghz_labels(p))
        gram = basis.conj() @ basis.T
        worst = _fold(max, worst, np.abs(np.abs(gram) - np.eye(len(basis))).ravel())
    return (worst <= 1e-10, worst,
            "max deviation of pairwise inner products from identity")


@_check("hadamard-expansion")
def check_expansion():
    bad = sum(int(np.count_nonzero(~ghzsim.hadamard_expansion_checks(p, *_ghz_labels(p))))
              for p in (1, 2, 3))
    return bad == 0, bad, "GHZ states failing the all-Hadamard expansion identity"


@_check("sieve-equivalence")
def check_sieve_equivalence(seeds: np.random.SeedSequence, trials: int):
    configs = ((1, 1), (2, 1), (1, 2))  # (p, rounds)
    worst = 0.0
    for (p, rounds), rng in zip(configs, _streams(seeds, len(configs))):
        for states in ghzsim.random_pure_states(2 * rounds * (p + 1), trials, rng):
            worst = _fold(max, worst, ghzsim.cad_delayed_measurement_distances(p, rounds, states))
    return (worst <= 1e-9, worst,
            f"max TV distance over {trials} random states per config")


def _parity_words(n: int, rng: np.random.Generator) -> list:
    """A random non-empty set of n-bit words, as sorted word indices."""
    size = int(rng.integers(1, 2**n + 1))
    return sorted(rng.choice(2**n, size=size, replace=False).tolist())


@_check("key-min-entropy")
def check_key_min_entropy(seeds: np.random.SeedSequence, trials: int):
    configs = ((2, 1), (3, 1), (2, 2), (3, 2), (4, 1))  # (n, p)
    worst = math.inf
    for (n, p), rng in zip(configs, _streams(seeds, len(configs))):
        word_sets = [_parity_words(n, rng) for _ in range(trials)]
        results = ghzsim.key_min_entropy_checks(n, p, word_sets)
        worst = _fold(min, worst, [hmin - bound for hmin, bound in results])
    return (worst >= -1e-9, worst,
            f"min (hmin - bound) over {trials} random parity sets per config")


def _sampling_bound(n_pop: int, m: int, delta: float) -> float:
    """The sampling failure bound as a probability (NaN stays NaN)."""
    return min(math.exp(sampling.sampling_failure_log(n_pop, m, delta)), 1.0)


@_check("sampling-exhaustive")
def check_sampling_exhaustive(seeds: np.random.SeedSequence):
    rng = np.random.Generator(np.random.Philox(seeds))
    worst = math.inf
    for n_pop, m in ((16, 4), (20, 5), (24, 6)):
        words = [
            BitString("01" * (n_pop // 2)),
            BitString(rng.integers(0, 2, size=n_pop, dtype=np.uint8)),
        ]
        for delta in (0.25, 0.4):
            bound = _sampling_bound(n_pop, m, delta)
            for q in words:
                fail = sampling.empirical_sampling_failure(q, m, delta)
                worst = _fold(min, worst, [bound - fail])
    n_pop, m, delta = 200, 50, 0.25
    bound = _sampling_bound(n_pop, m, delta)
    margin = bound - sampling.empirical_sampling_failure(BitString("01" * (n_pop // 2)), m, delta)
    return (worst >= 0.0 and margin >= 0.0, worst,
            "min (bound - exact failure probability) over N=16/20/24 instances; "
            f"{margin:.6e} at N={n_pop}, m={m}, delta={delta}")


@_check("sampling-roundtrip")
def check_sampling_roundtrip():
    worst = 0.0
    for eps in (1e-6, 1e-12, 1e-36):
        for n_pop in (1000, 1_000_000):
            for m in (n_pop // 10, n_pop // 4):
                delta = sampling.delta_from_epsilon(n_pop, m, eps)
                log_bound = sampling.sampling_failure_log(n_pop, m, delta)
                target = 2.0 * math.log(eps)
                worst = _fold(max, worst, [abs(log_bound - target) / abs(target)])
    return worst <= 1e-12, worst, "max relative log-space error of the delta inverse"


def selftest_checks(seed: int = 0, quick: bool = False) -> list:
    """Run the battery: one result per check, or :class:`CheckError`."""
    seeds = [np.random.SeedSequence(seed, spawn_key=(key,)) for key in (1, 2, 3)]
    return [
        check_parity_exact(),
        check_orthonormality(),
        check_expansion(),
        check_sieve_equivalence(seeds[0], 10 if quick else 200),
        check_key_min_entropy(seeds[1], 10 if quick else 100),
        check_sampling_exhaustive(seeds[2]),
        check_sampling_roundtrip(),
    ]
