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

:func:`key_length` evaluates all of this in one body, with pa and the
entropy of the worst e_j computed once per evaluator; the min-entropy bound,
leak_EC and the three eps constants are fields of its :class:`KeyRateReport`
(``hmin``, ``leak_ec``, ``epsilon_prime``, ``epsilon_fail``, ``epsilon_pa``).
The engine evaluates the closed forms of :mod:`qcka_cad.model` and
imports only the standard library, so the ``rate`` and ``sweep-*``
commands start without loading numpy.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .bitcore import binary_entropy
from .model import NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates
from .sampling import delta_from_epsilon

__all__ = ["KeyRateReport", "key_length", "optimize_m"]


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


class KeyRateReport(namedtuple("KeyRateReport", [
    "bobs", "half_signals", "test_size", "key_blocks", "epsilon",
    "x_error", "z_errors", "error_formula",
    "delta", "qx", "pa", "accepted", "hmin", "leak_ec", "ell", "rate",
    "epsilon_prime", "epsilon_fail", "epsilon_pa", "flags",
], defaults=((),))):
    """Every input and intermediate of one key-length evaluation.

    ``ell`` is reported raw (possibly negative, as a diagnostic margin);
    ``rate`` is ell / (2N) floored at zero.
    """

    __slots__ = ()


def _check_parties(bobs: int, noise: NoiseModel) -> None:
    if len(noise.z_errors) != bobs:
        raise ValueError(f"noise model has {len(noise.z_errors)} Z rates for {bobs} parties")


def _evaluator(bobs: int, half_signals: int, epsilon: float, noise: NoiseModel,
               error_formula: str, qx: float | None = None):
    """``probe(m, n_a=None)``: :func:`key_length` at test size m, inputs unchecked.

    The terms free of m are computed once, here; a probe's floats are key_length's.
    """
    x_error, z_errors = noise.x_error, noise.z_errors
    pa = analytic_pa(z_errors)
    worst = binary_entropy(max(min(0.5, e) for e in postcad_error_rates(z_errors, error_formula)))
    qx = analytic_qx(x_error) if qx is None else qx
    log_2p, log_eps = math.log2(2.0 * bobs), math.log2(epsilon)
    margin, total = 2.0 * math.log2(1.0 / epsilon), 2 * half_signals
    eps_fail = 2.0 * _cbrt(epsilon)
    eps_prime, eps_pa = 4.0 * epsilon + eps_fail, 9.0 * epsilon + eps_fail

    def probe(m: int, n_a: int | None = None) -> KeyRateReport:
        n = half_signals - m
        if n_a is None:
            n_a = min(round(pa * n), n)  # pa * n rounds up past n once n > 2**53
        delta = delta_from_epsilon(half_signals, m, epsilon)
        hmin = n_a * (1.0 - binary_entropy(min(0.5, (n / n_a) * (qx + delta)))) if n_a else 0.0
        leak = n_a * worst + log_2p - log_eps
        ell = hmin - leak - margin
        # Positional, in field order: binding 20 keywords costs a sixth of a probe.
        return KeyRateReport(
            bobs, half_signals, m, n, epsilon, x_error, z_errors, error_formula,
            delta, qx, pa, int(n_a), hmin, leak, ell, ell / total if ell > 0.0 else 0.0,
            eps_prime, eps_fail, eps_pa, ("no accepted blocks",) if n_a == 0 else (),
        )

    return probe


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
    _check_parties(params.bobs, noise)
    if n_a is not None and not isinstance(n_a, numbers.Integral):  # numpy ints are Integral
        raise ValueError(f"n_a must be an integer, got {n_a!r}")
    if n_a is not None and not 0 <= n_a <= params.key_blocks:
        raise ValueError("need 0 <= n_a <= n")
    if qx is not None and not qx >= 0.0:  # NaN too
        raise ValueError("qx must be nonnegative")
    probe = _evaluator(params.bobs, params.half_signals, params.epsilon, noise, error_formula, qx)
    return probe(params.test_size, n_a)


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

    ProtocolParams(bobs, half_signals, 1, epsilon)  # valid at m = 1, so at every m <= m_max
    _check_parties(bobs, noise)
    probe = _evaluator(bobs, half_signals, epsilon, noise, error_formula)
    cache: dict = {}

    def rate_at(m: int) -> float:
        if m not in cache:
            cache[m] = probe(m)
        return cache[m].rate

    grid = sorted({min(max(round(v), 1), m_max) for v in geometric_grid(1, m_max, 64)})
    for m in grid:
        rate_at(m)

    if all(cache[m].rate == 0.0 for m in grid):
        mid = grid[len(grid) // 2]
        return mid, cache[mid]._replace(flags=cache[mid].flags + ("no positive rate",))

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

