"""Finite-key length and rate bounds for the sieved conference key.

The extractable key length for one execution is

    ell = n_a * (1 - h[(n / n_a) * (QX + delta)]) - leak_EC - 2*log2(1/eps)

where n_a is the number of blocks surviving the parity sieve, QX the
X-basis test statistic, delta the sampling deviation implied by the
security parameter eps and the test size, and leak_EC the error
correction disclosure.  The rate divides by the 2N signals consumed.

All entropies and logarithms are base 2.  The argument of the binary
entropy in the min-entropy bound is clamped at 1/2: past that point the
counting bound behind it is vacuous, so the bound floors at zero rather
than letting h() decrease again.

Failure bookkeeping for security parameter eps:

    eps_prime = 4*eps + 2*eps^(1/3)   (smoothing of the entropy bound)
    eps_fail  = 2*eps^(1/3)           (probability the bound fails)
    eps_PA    = 9*eps + 2*eps^(1/3)   (distance of the extracted key)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bitcore import binary_entropy
from .protosim import NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates
from .sampling import delta_from_epsilon

__all__ = [
    "KeyRateReport",
    "epsilon_constants",
    "min_entropy_bound",
    "leak_ec",
    "key_length",
    "optimize_m",
    "pa_output_length_check",
]


def epsilon_constants(epsilon: float) -> tuple:
    """(eps_prime, eps_fail, eps_PA) for a security parameter eps."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    root = float(np.cbrt(epsilon))  # np.cbrt is exact on exact cubes, ** (1/3) is not
    return 4.0 * epsilon + 2.0 * root, 2.0 * root, 9.0 * epsilon + 2.0 * root


def min_entropy_bound(n: int, n_a: int, qx: float, delta: float) -> float:
    """Smooth min-entropy bound n_a * (1 - h[(n/n_a)(qx + delta)]).

    Returns 0 when no block was accepted or when the clamped entropy
    argument reaches 1/2.
    """
    if n_a < 0 or n_a > n:
        raise ValueError("need 0 <= n_a <= n")
    if qx < 0.0 or delta < 0.0:
        raise ValueError("qx and delta must be nonnegative")
    if n_a == 0:
        return 0.0
    arg = min(0.5, (n / n_a) * (qx + delta))
    return n_a * (1.0 - binary_entropy(arg))


def leak_ec(
    n_a: int,
    bobs: int,
    z_errors,
    pa: float,
    epsilon: float,
    error_formula: str = "conservative",
) -> float:
    """Error-correction disclosure n_a * max_j h(e_j) + log2(2p/eps).

    ``e_j`` is the post-sieve error rate of party j, per
    :func:`qcka_cad.protosim.postcad_error_rates`; rates are clamped to
    [0, 1/2] before the entropy evaluation.
    """
    if pa <= 0.0:
        raise ValueError("no blocks accepted (pa = 0)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rates = postcad_error_rates(z_errors, error_formula)
    worst = max(min(0.5, e) for e in rates)
    return n_a * binary_entropy(worst) + math.log2(2.0 * bobs) - math.log2(epsilon)


@dataclass(frozen=True)
class KeyRateReport:
    """Every input and intermediate of one key-length evaluation.

    ``ell`` is reported raw (possibly negative, as a diagnostic margin);
    ``rate`` is ell / (2N) floored at zero.
    """

    bobs: int
    half_signals: int
    test_size: int
    key_blocks: int
    epsilon: float
    x_error: float
    z_errors: tuple
    error_formula: str
    delta: float
    qx: float
    pa: float
    accepted: int
    hmin: float
    leak_ec: float
    ell: float
    rate: float
    epsilon_prime: float
    epsilon_fail: float
    epsilon_pa: float
    flags: tuple = ()


def key_length(
    params: ProtocolParams,
    noise: NoiseModel,
    n_a: int | None = None,
    qx: float | None = None,
    error_formula: str = "conservative",
) -> KeyRateReport:
    """Evaluate the key length and rate for one parameter point.

    With ``n_a`` and ``qx`` omitted, their analytic expectations under the
    i.i.d. noise model are used: n_a = round(pa * n) and qx = 2Q(1-Q).
    Passing realized values from a simulated trial evaluates the same
    formula on observed statistics.
    """
    if len(noise.z_errors) != params.bobs:
        raise ValueError(
            f"noise model has {len(noise.z_errors)} Z rates for {params.bobs} parties"
        )
    n = params.key_blocks
    pa = analytic_pa(noise.z_errors)
    if qx is None:
        qx = analytic_qx(noise.x_error)
    if n_a is None:
        n_a = min(round(pa * n), n)  # pa * n rounds up past n once n > 2**53
    if not 0 <= n_a <= n:
        raise ValueError("need 0 <= n_a <= n")

    delta = delta_from_epsilon(params.half_signals, params.test_size, params.epsilon)
    hmin = min_entropy_bound(n, n_a, qx, delta)
    leak = leak_ec(n_a, params.bobs, noise.z_errors, pa, params.epsilon, error_formula)
    ell = hmin - leak - 2.0 * math.log2(1.0 / params.epsilon)
    rate = ell / params.total_signals if ell > 0.0 else 0.0
    eps_prime, eps_fail, eps_pa = epsilon_constants(params.epsilon)
    flags = ("no accepted blocks",) if n_a == 0 else ()

    return KeyRateReport(
        bobs=params.bobs,
        half_signals=params.half_signals,
        test_size=params.test_size,
        key_blocks=n,
        epsilon=params.epsilon,
        x_error=noise.x_error,
        z_errors=noise.z_errors,
        error_formula=error_formula,
        delta=delta,
        qx=qx,
        pa=pa,
        accepted=int(n_a),
        hmin=hmin,
        leak_ec=leak,
        ell=ell,
        rate=rate,
        epsilon_prime=eps_prime,
        epsilon_fail=eps_fail,
        epsilon_pa=eps_pa,
        flags=flags,
    )


def _with_flag(report: KeyRateReport, flag: str) -> KeyRateReport:
    return replace(report, flags=report.flags + (flag,))


def optimize_m(
    bobs: int,
    half_signals: int,
    epsilon: float,
    noise: NoiseModel,
    error_formula: str = "conservative",
) -> tuple:
    """Deterministically maximize the analytic rate over the test size m.

    Searches m in [1, ceil(N/2) - 1] with a 64-point geometric grid
    followed by discrete golden-section refinement around the best grid
    point.  Returns ``(m_star, report)``; when no m yields a positive
    rate, the midpoint of the grid is returned with a "no positive rate"
    flag.
    """
    m_max = math.ceil(half_signals / 2) - 1
    if m_max < 1:
        raise ValueError("half_signals too small for any valid test size")
    if float(m_max) >= 2.0**63:  # the grid's top point would not fit in int64
        raise ValueError(f"half_signals {half_signals} too large for the test-size grid")

    cache: dict = {}

    def rate_at(m: int) -> float:
        if m not in cache:
            params = ProtocolParams(bobs, half_signals, m, epsilon)
            cache[m] = key_length(params, noise, error_formula=error_formula)
        return cache[m].rate

    grid = np.unique(
        np.clip(np.round(np.geomspace(1, m_max, num=64)).astype(int), 1, m_max)
    )
    for m in grid:
        rate_at(int(m))

    if all(cache[int(m)].rate == 0.0 for m in grid):
        mid = int(grid[len(grid) // 2])
        return mid, _with_flag(cache[mid], "no positive rate")

    best_idx = max(range(len(grid)), key=lambda i: (cache[int(grid[i])].rate, -grid[i]))
    lo = int(grid[best_idx - 1]) if best_idx > 0 else 1
    hi = int(grid[best_idx + 1]) if best_idx + 1 < len(grid) else m_max

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 3:
        step = max(1, int(round(inv_phi * (hi - lo))))
        x1, x2 = hi - step, lo + step
        if x1 >= x2:  # degenerate on tiny brackets
            break
        if rate_at(x1) < rate_at(x2):
            lo = x1
        else:
            hi = x2

    m_star = max(range(lo, hi + 1), key=lambda m: (rate_at(m), -m))
    return m_star, cache[m_star]


def pa_output_length_check(hmin: float, ell: float, epsilon: float) -> float:
    """Distance bound sqrt(2^(ell - hmin)) + 2*eps for a chosen key length.

    Verifies a key length against a smooth min-entropy: for ``ell``
    produced by :func:`key_length` with positive rate, the returned value
    is at most eps_PA.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    exponent = (ell - hmin) / 2.0
    if exponent > 1000.0:  # avoid float overflow; the check is long failed
        return math.inf
    return 2.0**exponent + 2.0 * epsilon
