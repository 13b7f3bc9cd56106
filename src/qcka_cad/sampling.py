"""Classical sampling-strategy bounds for fixed-size random subsets.

The protocol estimates an error rate on a random size-m subset of N
positions and needs the observed rate to be within delta of the rate on
the unobserved complement, except with a failure probability that decays
like ``2 exp(-delta^2 m N / (N + 2))``.  This module provides that bound,
its inverse (the delta needed for a target failure probability), and the
exact failure probability of a fixed word, a hypergeometric tail sum used
as an oracle against the bound.

Failure probabilities reach 1e-72 in production parameter ranges, so the
bound is given in log space.
"""

from __future__ import annotations

import math

from .bitcore import BitString

__all__ = [
    "sampling_failure_log",
    "delta_from_epsilon",
    "empirical_sampling_failure",
]


def sampling_failure_log(population: int, sample_size: int, delta: float) -> float:
    """Natural log of the sampling failure bound 2 exp(-delta^2 m N/(N+2)).

    Needs 1 <= m < N/2 and delta > 0.  Values of delta above 1, where no
    subset can fail, are accepted, so this is an exact log-space inverse
    of :func:`delta_from_epsilon` everywhere; ``min(1, exp(...))`` is the
    bound as a probability.
    """
    if sample_size < 1:
        raise ValueError("sample size must be positive")
    if 2 * sample_size >= population:
        raise ValueError("sample size must satisfy m < N/2")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return math.log(2.0) - delta * delta * sample_size * population / (population + 2.0)


def delta_from_epsilon(population: int, sample_size: int, epsilon: float) -> float:
    """Deviation delta with failure bound epsilon^2 for the given sample.

    Chosen so that the bound of :func:`sampling_failure_log` at the
    returned delta equals epsilon^2, i.e. the square root of the failure bound equals epsilon.
    Evaluated via log(epsilon) directly, so epsilon as small as 1e-36 is
    safe.  Raises ValueError once m * N lies beyond the float range.
    """
    if 2 * sample_size >= population:
        raise ValueError("sample size must satisfy m < N/2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    log_term = math.log(2.0) - 2.0 * math.log(epsilon)  # ln(2 / eps^2)
    try:
        return math.sqrt((population + 2.0) * log_term / (sample_size * population))
    except OverflowError:
        raise ValueError("sample size times population overflows a float") from None


def empirical_sampling_failure(q: BitString, sample_size: int, delta: float) -> float:
    """Probability that a random size-m subset's weight gap exceeds delta.

    For a fixed word ``q`` of length N and weight w, a uniform
    size-``sample_size`` subset t holds k ones with the hypergeometric
    weight ``C(w, k) C(N - w, m - k) / C(N, m)``.  The result is that
    exact sum over every k with ``|k/m - (w - k)/(N - m)| > delta``,
    i.e. the fraction of all m-subsets t with
    ``|w(q_t) - w(q_{-t})| > delta``.  The counts are integers and the
    final quotient is correctly rounded, so the value is bit-identical to
    enumerating every subset.
    """
    n_pop = len(q)
    m = sample_size
    if m < 1:
        raise ValueError("sample size must be positive")
    if 2 * m >= n_pop:
        raise ValueError("sample size must satisfy m < N/2")
    w = q.weight
    rest = n_pop - m
    k_lo = max(0, m - (n_pop - w))
    term = math.comb(w, k_lo) * math.comb(n_pop - w, m - k_lo)
    failures = 0
    for k in range(k_lo, min(w, m) + 1):
        if abs(k / m - (w - k) / rest) > delta:
            failures += term
        # C(w, k+1) C(N-w, m-k-1) from C(w, k) C(N-w, m-k); the quotient is exact.
        term = term * (w - k) * (m - k) // ((k + 1) * (n_pop - w - m + k + 1))
    return failures / math.comb(n_pop, m)
