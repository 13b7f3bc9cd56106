"""Verification battery for the facts the security argument rests on.

``qcka-cad selftest`` runs it through :func:`selftest_checks`; the
acceptance suite calls the same checks with its own pinned seeds.  A
randomised check takes a fresh ``np.random.SeedSequence`` and draws one
Philox stream per configuration from ``seeds.spawn(len(configs))``.
Every check hands a batched ``ghzsim`` kernel stacked inputs built in
bulk: each sieve layout's computational basis states as identity rows,
parity sets as sorted word indices, and for each p the whole family of
2^(p+1) GHZ basis states as one array.  The parity sets are those that
``rng.integers(1, 2**n + 1)`` and ``rng.choice(2**n, size, replace=False)``
would draw, set after set, but decoded from one block of raw Philox words
in a Python loop, which skips the two calls' per-call overhead.
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


def _fold(pick, worst: float, values) -> float:
    """The max or min of worst and values, as ``pick`` (``np.argmax`` or
    ``np.argmin``) finds it: NaN if any of them is NaN.

    Python's max and min skip a NaN, which would let a NaN result pass.
    ``pick`` returns the first NaN, else the first of tied values (0.0 and
    -0.0 tie), as the plain fold does; ``np.max`` and ``np.min`` need not.
    """
    values = np.append(worst, values)
    return float(values[pick(values)])


def _ghz_labels(p: int) -> tuple:
    """Correlation-word indices and phase bits of every p-party GHZ basis
    state, word-major."""
    labels = np.arange(2 << p)
    return labels >> 1, labels & 1


@_check("ghz-parity-exact")
def check_parity_exact():
    worst = 0.0
    for p in (1, 2, 3):
        words, ys = _ghz_labels(p)
        dist = ghzsim.x_basis_parity_distributions(ghzsim.ghz_states(p, words, ys))
        rows = np.arange(len(ys))
        worst = _fold(np.argmax, worst, (np.abs(dist[rows, ys] - 1.0), dist[rows, 1 - ys]))
    return (worst <= 1e-12, worst,
            "max deviation of the announced parity from the phase bit")


@_check("ghz-orthonormality")
def check_orthonormality():
    worst = 0.0
    for p in (1, 2, 3):
        basis = ghzsim.ghz_states(p, *_ghz_labels(p))
        gram = basis.conj() @ basis.T
        worst = _fold(np.argmax, worst, np.abs(np.abs(gram) - np.eye(len(basis))))
    return (worst <= 1e-10, worst,
            "max deviation of pairwise inner products from identity")


@_check("hadamard-expansion")
def check_expansion():
    bad = sum(int(np.count_nonzero(~ghzsim.hadamard_expansion_checks(p, *_ghz_labels(p))))
              for p in (1, 2, 3))
    return bad == 0, bad, "GHZ states failing the all-Hadamard expansion identity"


@_check("sieve-equivalence")
def check_sieve_equivalence():
    """The largest TV distance between the sieve orders over every state:
    each order's table is a gather of p = |psi|^2 through a fixed cell map,
    so the distance is convex in p and peaks at a vertex of the simplex, a
    computational basis state."""
    worst = 0.0
    for p, rounds in ((1, 1), (2, 1), (1, 2)):
        basis = np.eye(1 << (2 * rounds * (p + 1)), dtype=np.complex128)
        worst = _fold(np.argmax, worst, ghzsim.cad_delayed_measurement_distances(p, rounds, basis))
    return (worst <= 1e-9, worst,
            "max TV distance over every state: exact on the 16/64/256 basis states per config")


def _halves(bits: np.random.BitGenerator, count: int):
    """The 32-bit halves of raw words, low half first, ``count`` words a block."""
    while True:
        raw = bits.random_raw(count)
        yield from np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).ravel().tolist()


def _parity_sets(n: int, trials: int, rng: np.random.Generator) -> list:
    """``trials`` random non-empty sets of n-bit words, as sorted word indices.

    Set i is ``sorted(rng.choice(2**n, size, replace=False))`` with
    ``size = rng.integers(1, 2**n + 1)``, as the i-th pair of those calls
    on ``rng`` would draw it, decoded from ``random_raw`` words as numpy
    consumes them: 32-bit halves, low half first, for one Lemire bounded
    draw each; the size; Floyd's algorithm over ``2**n - size .. 2**n - 1``;
    then choice's shuffle, whose draws are consumed but whose order the
    sort throws away.

    It draws ``trials * 2**n`` words at a time, at least as many as the
    sets use unless a draw is rejected, so it leaves ``rng`` past the words
    it used: hand it only a fresh Philox generator that draws nothing else,
    as each config's stream in :func:`check_key_min_entropy` is.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox) or bits.state["has_uint32"]:
        raise ValueError("need a Philox generator that holds no buffered 32-bit half")
    half = _halves(bits, trials << n).__next__
    everything = 1 << n
    thresholds = [(1 << 32) % (top + 1) for top in range(everything)]

    def below(top: int) -> int:
        """Lemire's bounded draw in [0, top], rejecting a biased product."""
        product = half() * (top + 1)
        while product & 0xFFFFFFFF < thresholds[top]:
            product = half() * (top + 1)
        return product >> 32

    sets = []
    for _ in range(trials):
        size = 1 + below(everything - 1)
        chosen = set()
        for top in range(everything - size, everything):
            pick = below(top) if top else 0  # a draw in [0, 0] takes no bits
            chosen.add(top if pick in chosen else pick)
        for top in range(size - 1, 0, -1):  # the shuffle: draw until accepted
            while half() * (top + 1) & 0xFFFFFFFF < thresholds[top]:
                pass
        sets.append(sorted(chosen))
    return sets


@_check("key-min-entropy")
def check_key_min_entropy(seeds: np.random.SeedSequence, trials: int):
    """The least hmin - (n - log2|J|) over random parity sets J.  The bound
    is tight: P(x) is proportional to |sum_{y in J} (-1)^(x.y)|^2, which
    peaks at x = 0, where every phase adds, so the margin reads rounding
    alone: -4.440892e-16 at n = 3, p = 1 on some five-word sets."""
    configs = ((2, 1), (3, 1), (2, 2), (3, 2), (4, 1))  # (n, p)
    worst = math.inf
    for (n, p), child in zip(configs, seeds.spawn(len(configs))):
        rng = np.random.Generator(np.random.Philox(child))
        results = ghzsim.key_min_entropy_checks(n, p, _parity_sets(n, trials, rng))
        worst = _fold(np.argmin, worst, [hmin - bound for hmin, bound in results])
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
                worst = _fold(np.argmin, worst, [bound - fail])
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
                worst = _fold(np.argmax, worst, [abs(log_bound - target) / abs(target)])
    return worst <= 1e-12, worst, "max relative log-space error of the delta inverse"


def selftest_checks(seed: int = 0, quick: bool = False) -> list:
    """Run the battery: one result per check, or :class:`CheckError`."""
    seeds = [np.random.SeedSequence(seed, spawn_key=(key,)) for key in (2, 3)]
    return [
        check_parity_exact(),
        check_orthonormality(),
        check_expansion(),
        check_sieve_equivalence(),
        check_key_min_entropy(seeds[0], 10 if quick else 100),
        check_sampling_exhaustive(seeds[1]),
        check_sampling_roundtrip(),
    ]
