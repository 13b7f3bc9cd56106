"""Verification battery for the facts the security argument rests on.

``qcka-cad selftest`` runs it through :func:`selftest_checks`; the
acceptance suite calls the same checks.  Every check is exact and draws
nothing, so the battery gives the same result on every run: the sieve
check compares the two orders' cell maps entry for entry, the
min-entropy check runs every non-empty parity set at n <= 3 and a fixed
family at n = 4, and the sampling check takes every weight of a word.
Every check hands a batched ``ghzsim`` kernel stacked inputs built in
bulk: parity sets as boolean membership rows, and for each p the whole
family of 2^(p+1) GHZ basis states as one array.  The inputs that do not
change (GHZ labels, parity-set rows, the sampling check's words) are
cached, read-only fixtures, and each check folds all its values once.
A check that raises surfaces as :class:`CheckError`, never as a pass, and
a NaN among the values a check folds makes it FAIL with a NaN margin.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from . import ghzsim, sampling
from .bitcore import BitString

__all__ = [
    "CheckResult", "CheckError", "selftest_checks",
    "check_parity_exact", "check_orthonormality", "check_expansion",
    "check_sieve_equivalence", "check_key_min_entropy",
    "check_sampling_exhaustive", "check_sampling_roundtrip",
]


class CheckResult(namedtuple("CheckResult", "name status margin detail")):
    """One check's outcome: its name, PASS or FAIL, its margin and a detail line."""

    __slots__ = ()


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


@functools.lru_cache(maxsize=None)
def _ghz_labels(p: int) -> tuple:
    """Correlation-word indices and phase bits of every p-party GHZ basis
    state, word-major, as read-only arrays."""
    labels = np.arange(2 << p)
    return ghzsim._read_only(labels >> 1), ghzsim._read_only(labels & 1)


@_check("ghz-parity-exact")
def check_parity_exact():
    values = []
    for p in (1, 2, 3):
        words, ys = _ghz_labels(p)
        dist = ghzsim.x_basis_parity_distributions(ghzsim.ghz_states(p, words, ys))
        rows = np.arange(len(ys))
        values += [np.abs(dist[rows, ys] - 1.0), dist[rows, 1 - ys]]
    worst = _fold(np.argmax, 0.0, np.concatenate(values))
    return (worst <= 1e-12, worst,
            "max deviation of the announced parity from the phase bit")


@_check("ghz-orthonormality")
def check_orthonormality():
    bases = [ghzsim.ghz_states(p, *_ghz_labels(p)) for p in (1, 2, 3)]
    worst = _fold(np.argmax, 0.0, np.concatenate(
        [np.abs(np.abs(b.conj() @ b.T) - np.eye(len(b))).ravel() for b in bases]))
    return (worst <= 1e-10, worst,
            "max deviation of pairwise inner products from identity")


@_check("hadamard-expansion")
def check_expansion():
    bad = sum(int(np.count_nonzero(~ghzsim.hadamard_expansion_checks(p, *_ghz_labels(p))))
              for p in (1, 2, 3))
    return bad == 0, bad, "GHZ states failing the all-Hadamard expansion identity"


@_check("sieve-equivalence")
def check_sieve_equivalence():
    """The largest TV distance between the sieve orders over every state.

    Each order's table is a gather of |psi|^2 through a cell map with one
    source per cell, so the orders agree on every state if and only if the
    maps are equal entry for entry; where they differ, the basis state of
    a mismatched cell lands whole in two different cells, at TV 1."""
    blocks = (2, 3, 4, 6)  # (p, rounds) = (1, 1), (2, 1), (1, 2); (2, 2) and (1, 3)
    equal = all(np.array_equal(ghzsim._direct_cells(b), ghzsim._delayed_cells(b)) for b in blocks)
    return (equal, 0.0 if equal else 1.0,
            "max TV distance over every state: direct and delayed cell maps "
            "equal entry for entry at 2/3/4/6 blocks")


@functools.lru_cache(maxsize=None)
def _every_set(n: int) -> np.ndarray:
    """Every non-empty set of n-bit words, as read-only membership rows:
    row s - 1 holds the bits of s, word 0 the most significant."""
    masks = np.arange(1, 1 << (1 << n))
    return ghzsim._read_only((masks[:, None] >> np.arange((1 << n) - 1, -1, -1) & 1).astype(bool))


@functools.lru_cache(maxsize=None)
def _four_bit_family() -> np.ndarray:
    """113 sets of 4-bit words, as read-only membership rows: the 48 Hamming
    balls B(c, k <= 2), the 30 affine hyperplanes {w : a.w = b} and the 35
    two-dimensional linear subspaces."""
    words = range(16)
    balls = [[(c ^ w).bit_count() <= k for w in words] for c in words for k in (0, 1, 2)]
    hyperplanes = [[(a & w).bit_count() % 2 == b for w in words]
                   for a in range(1, 16) for b in (0, 1)]
    subspaces = sorted({tuple(sorted({0, a, b, a ^ b})) for a in range(1, 16) for b in range(1, a)})
    sets = balls + hyperplanes + [[w in s for w in words] for s in subspaces]
    return ghzsim._read_only(np.array(sets))


@_check("key-min-entropy")
def check_key_min_entropy():
    """The largest |hmin - (n - log2|J|)| over every non-empty parity set J
    at n <= 3 and a fixed family at n = 4.  The bound is tight: P(x) is
    proportional to |sum_{y in J} (-1)^(x.y)|^2, which peaks at x = 0, where
    every phase adds, so the margin reads rounding alone."""
    configs = [(n, p, _every_set(n)) for p in (1, 2) for n in (1, 2, 3)]
    configs.append((4, 1, _four_bit_family()))
    results = (ghzsim.key_min_entropy_checks(n, p, member) for n, p, member in configs)
    worst = _fold(np.argmax, 0.0, np.concatenate([np.abs(h - b) for h, b in results]))
    return (worst <= 1e-9, worst,
            "max |hmin - bound| over all 546 parity sets at n <= 3 and 113 at n = 4")


def _sampling_bound(n_pop: int, m: int, delta: float) -> float:
    """The sampling failure bound as a probability (NaN stays NaN)."""
    return min(math.exp(sampling.sampling_failure_log(n_pop, m, delta)), 1.0)


@functools.lru_cache(maxsize=None)
def _weight_words(n_pop: int) -> tuple:
    """One N-bit word of each weight 0..N, ones first."""
    return tuple(BitString("1" * w + "0" * (n_pop - w)) for w in range(n_pop + 1))


@_check("sampling-exhaustive")
def check_sampling_exhaustive():
    """The failure probability of a word depends on it only through its
    weight, so one word per weight covers every word."""
    gaps = []
    for n_pop, m in ((16, 4), (20, 5), (24, 6)):
        for delta in (0.25, 0.4):
            bound = _sampling_bound(n_pop, m, delta)
            gaps += [bound - sampling.empirical_sampling_failure(q, m, delta)
                     for q in _weight_words(n_pop)]
    worst = _fold(np.argmin, math.inf, gaps)
    n_pop, m, delta = 200, 50, 0.25
    bound = _sampling_bound(n_pop, m, delta)
    margin = bound - sampling.empirical_sampling_failure(BitString("01" * (n_pop // 2)), m, delta)
    return (worst >= 0.0 and margin >= 0.0, worst,
            "min (bound - exact failure probability) over every weight at N=16/20/24; "
            f"{margin:.6e} at N={n_pop}, m={m}, delta={delta}")


@_check("sampling-roundtrip")
def check_sampling_roundtrip():
    errors = []
    for eps in (1e-6, 1e-12, 1e-36):
        for n_pop in (1000, 1_000_000):
            for m in (n_pop // 10, n_pop // 4):
                delta = sampling.delta_from_epsilon(n_pop, m, eps)
                log_bound = sampling.sampling_failure_log(n_pop, m, delta)
                target = 2.0 * math.log(eps)
                errors.append(abs(log_bound - target) / abs(target))
    worst = _fold(np.argmax, 0.0, errors)
    return worst <= 1e-12, worst, "max relative log-space error of the delta inverse"


def selftest_checks() -> list:
    """Run the battery: one result per check, or :class:`CheckError`."""
    return [
        check_parity_exact(),
        check_orthonormality(),
        check_expansion(),
        check_sieve_equivalence(),
        check_key_min_entropy(),
        check_sampling_exhaustive(),
        check_sampling_roundtrip(),
    ]
