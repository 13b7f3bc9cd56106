"""Finite-key length and rate bounds for the sieved conference key.

The extractable key length for one execution is

    ell = n_a * (1 - h[(n / n_a) * (QX + delta)]) - leak_EC - 2*log2(1/eps)

where n_a is the number of blocks surviving the parity sieve, QX the
X-basis test statistic, delta the sampling deviation implied by the
security parameter eps and the test size, and

    leak_EC = n_a * max_j h(e_j) + log2(2p/eps)

the error correction disclosure, with e_j party j's post-sieve error
rate (:func:`qcka_cad.model.postcad_error_rates`).  The rate divides by
the 2N signals consumed.

All entropies and logarithms are base 2.  The argument of the binary
entropy in the min-entropy bound is clamped at 1/2: past that point the
counting bound behind it is vacuous, so the bound floors at zero rather
than letting h() decrease again.  The bound is 0 when no block was
accepted, and each e_j is clamped at 1/2 as well.

Failure bookkeeping for security parameter eps:

    eps_prime = 4*eps + 2*eps^(1/3)   (smoothing of the entropy bound)
    eps_fail  = 2*eps^(1/3)           (probability the bound fails)
    eps_PA    = 9*eps + 2*eps^(1/3)   (distance of the extracted key)

:func:`key_length` evaluates all of this in one body; the min-entropy
bound, leak_EC and the three eps constants are fields of its
:class:`KeyRateReport` (``hmin``, ``leak_ec``, ``epsilon_prime``,
``epsilon_fail``, ``epsilon_pa``).  The engine evaluates the closed
forms of :mod:`qcka_cad.model` and imports only the standard library, so
the ``rate`` and ``sweep-*`` commands start without loading numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

from .bitcore import binary_entropy
from .model import NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates
from .sampling import delta_from_epsilon

__all__ = ["KeyRateReport", "key_length", "optimize_m"]


@functools.lru_cache(maxsize=256)
def _cbrt(x: float) -> float:
    """Correctly rounded cube root of a positive finite float.

    ``x ** (1/3)`` is off by many ulps for small x (1/3 is not a float)
    and misses exact cubes, so it only seeds the search: one Newton step,
    then a walk to the float whose rounding interval holds the root.
    """
    mant, exp = math.frexp(x)
    shift, rest = divmod(exp, 3)
    s = math.ldexp(mant, rest)  # x = s * 2**(3 * shift) with 0.5 <= s < 4
    y = s ** (1.0 / 3.0)
    y -= (y * y * y - s) / (3.0 * y * y)

    # Floats near the root of s are multiples of 2**-60, so comparing the
    # midpoint (y + neighbour) / 2 cubed with s is exact in integers.
    def fixed(v: float) -> int:
        return int(math.ldexp(v, 60))

    target = 8 * fixed(s) << 120
    while True:
        below, above = math.nextafter(y, 0.0), math.nextafter(y, 4.0)
        if (fixed(below) + fixed(y)) ** 3 > target:
            y = below
        elif (fixed(y) + fixed(above)) ** 3 < target:
            y = above
        else:
            return math.ldexp(y, shift)  # the root is a normal float: exact


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
    formula on observed statistics; they must satisfy 0 <= n_a <= n for an
    integer n_a, and qx >= 0.
    """
    if len(noise.z_errors) != params.bobs:
        raise ValueError(
            f"noise model has {len(noise.z_errors)} Z rates for {params.bobs} parties"
        )
    n, eps = params.key_blocks, params.epsilon
    pa = analytic_pa(noise.z_errors)
    if qx is None:
        qx = analytic_qx(noise.x_error)
    if n_a is None:
        n_a = min(round(pa * n), n)  # pa * n rounds up past n once n > 2**53
    elif not isinstance(n_a, numbers.Integral):  # numpy integers register as Integral
        raise ValueError(f"n_a must be an integer, got {n_a!r}")
    if not 0 <= n_a <= n:
        raise ValueError("need 0 <= n_a <= n")
    if not qx >= 0.0:  # NaN too
        raise ValueError("qx must be nonnegative")

    delta = delta_from_epsilon(params.half_signals, params.test_size, eps)
    hmin = n_a * (1.0 - binary_entropy(min(0.5, (n / n_a) * (qx + delta)))) if n_a else 0.0
    worst = max(min(0.5, e) for e in postcad_error_rates(noise.z_errors, error_formula))
    leak = n_a * binary_entropy(worst) + math.log2(2.0 * params.bobs) - math.log2(eps)
    ell = hmin - leak - 2.0 * math.log2(1.0 / eps)
    rate = ell / params.total_signals if ell > 0.0 else 0.0
    root = _cbrt(eps)
    flags = ("no accepted blocks",) if n_a == 0 else ()

    return KeyRateReport(
        bobs=params.bobs,
        half_signals=params.half_signals,
        test_size=params.test_size,
        key_blocks=n,
        epsilon=eps,
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
        epsilon_prime=4.0 * eps + 2.0 * root,
        epsilon_fail=2.0 * root,
        epsilon_pa=9.0 * eps + 2.0 * root,
        flags=flags,
    )


def geometric_grid(lo: float, hi: float, num: int) -> list:
    """``num`` floats from ``lo`` to ``hi`` in geometric progression.

    Evaluated as ``numpy.geomspace`` does it, 10 ** (k * step + log10(lo))
    with both ends set exactly.  numpy's ``log10`` and ``power`` can differ
    from the C library's in the last bit, so a point may round to another
    integer than numpy's when it lies within an ulp of a half-integer;
    below about 1e12 that was not seen on 10^5 sampled grids.
    """
    if num == 1:
        return [float(lo)]
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / (num - 1)
    points = [10.0 ** (k * step + log_lo) for k in range(num)]
    points[0], points[-1] = float(lo), float(hi)
    return points


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
    if float(m_max) >= 2.0**63:  # test sizes stay below 2**63, as int64 counts
        raise ValueError(f"half_signals {half_signals} too large for the test-size grid")

    cache: dict = {}

    def rate_at(m: int) -> float:
        if m not in cache:
            params = ProtocolParams(bobs, half_signals, m, epsilon)
            cache[m] = key_length(params, noise, error_formula=error_formula)
        return cache[m].rate

    grid = sorted({min(max(round(v), 1), m_max) for v in geometric_grid(1, m_max, 64)})
    for m in grid:
        rate_at(m)

    if all(cache[m].rate == 0.0 for m in grid):
        mid = grid[len(grid) // 2]
        return mid, replace(cache[mid], flags=cache[mid].flags + ("no positive rate",))

    best_idx = max(range(len(grid)), key=lambda i: (cache[grid[i]].rate, -grid[i]))
    lo = grid[best_idx - 1] if best_idx > 0 else 1
    hi = grid[best_idx + 1] if best_idx + 1 < len(grid) else m_max

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

