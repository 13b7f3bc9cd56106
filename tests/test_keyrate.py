"""Tests for the finite-key length engine and the test-size optimizer."""

import math
import numbers
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcka_cad import keyrate
from qcka_cad.bitcore import binary_entropy
from qcka_cad.keyrate import KeyRateReport, _cbrt, geometric_grid, key_length, optimize_m
from qcka_cad.protosim import (
    NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates, run_trial,
)
from qcka_cad.sampling import delta_from_epsilon

# 50-digit reference: 80 * (1 - h(0.0375)).
BOUND_80_REF = 61.543203544681886
# 50-digit reference: h(0.01/0.82).
H_E_IND_REF = 0.09501724567107634


def eps_report(epsilon: float):
    return key_length(ProtocolParams(1, 10**6, 10**5, epsilon), NoiseModel(0.02, (0.02,)))


class TestEpsilonConstants:
    def test_symbolic_relations(self):
        for eps in (1e-6, 1e-12, 1e-36):
            report = eps_report(eps)
            root = float(np.cbrt(eps))
            assert report.epsilon_prime == 4 * eps + 2 * root
            assert report.epsilon_fail == 2 * root
            assert report.epsilon_pa == 9 * eps + 2 * root

    def test_exact_at_production_epsilon(self):
        report = eps_report(1e-36)
        assert report.epsilon_fail == 2e-12
        assert abs(report.epsilon_pa - 2e-12) < 1e-20
        assert abs(report.epsilon_prime - 2e-12) < 1e-20

    def test_domain(self):
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                eps_report(eps)


def decimal_cbrt(x: float) -> float:
    """exp(ln(x) / 3) to 50 digits, rounded once to the nearest float."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float((Decimal(x).ln() / 3).exp())


class TestCubeRoot:
    def test_correctly_rounded_on_log_grid(self):
        # 1,200 log-spaced epsilons in (1e-300, 1), plus the subnormal range.
        xs = [10.0 ** (-300.0 * k / 1200) for k in range(1, 1200)]
        xs += [5e-324, 1e-320, 2.2250738585072014e-308, 0.9999999999999999]
        assert [_cbrt(x) for x in xs] == [decimal_cbrt(x) for x in xs]

    def test_exact_cubes(self):
        # k * 2**e cubes exactly for small odd k; x ** (1/3) misses most of these.
        for k in (1, 3, 5, 7, 1023, 2**17 + 1):
            for e in (-300, -60, -1, 0, 7):
                assert _cbrt(math.ldexp(k**3, 3 * e)) == math.ldexp(k, e)
        assert _cbrt(1e-36) == 1e-12

    def test_matches_numpy_at_decades_and_bench_epsilons(self):
        # Where np.cbrt is correctly rounded, reported epsilons do not move.
        for x in [float(f"1e-{k}") for k in range(1, 37)] + [1e-10, 1e-36]:
            assert _cbrt(x) == float(np.cbrt(x))


def numpy_geomspace_rows(m_maxes: list) -> np.ndarray:
    """``np.geomspace(1, m_max, 64)`` for every m_max at once, computed the
    way numpy does it for one scalar stop: ``k * (log10(stop) / 63)`` with
    the last point set to ``log10(stop)``, one ``power(10, .)`` over the
    C-contiguous array, and the ends set to 1 and the stop."""
    stops = np.asarray(m_maxes, dtype=float)
    log_stops = np.log10(stops)
    exponents = np.arange(64.0) * (log_stops / 63)[:, None]
    exponents[:, -1] = log_stops
    rows = np.power(10, np.ascontiguousarray(exponents))
    rows[:, 0], rows[:, -1] = 1.0, stops
    return rows


def assert_test_size_grids_match_numpy(m_maxes: list) -> None:
    """Rounded, ``geometric_grid(1, m_max, 64)`` equals numpy's 64-point
    test-size grid for every m_max; clipping and de-duplicating it to
    [1, m_max] gives the grid ``optimize_m`` searched with numpy."""
    reference = numpy_geomspace_rows(m_maxes)
    # The bulk reference is per-call np.geomspace, bit for bit.
    for m_max, row in zip(m_maxes[::50], reference[::50]):
        assert row.tobytes() == np.geomspace(1, m_max, num=64).tobytes(), m_max
    stdlib = np.array([geometric_grid(1, m_max, 64) for m_max in m_maxes])
    # np.round, like round(), rounds half to even.
    mismatched = (np.round(stdlib) != np.round(reference)).any(axis=1)
    assert [m_maxes[i] for i in np.flatnonzero(mismatched)] == []


class TestGeometricGrid:
    def test_ends_and_single_point(self):
        assert geometric_grid(3, 3, 1) == [3.0]
        points = geometric_grid(10, 1000, 3)
        assert points[0] == 10.0 and points[-1] == 1000.0
        assert points[1] == pytest.approx(100.0, rel=1e-15)

    def test_test_size_grid_matches_numpy(self):
        m_max = 123_457
        expected = np.unique(
            np.clip(np.round(np.geomspace(1, m_max, num=64)).astype(int), 1, m_max)
        ).tolist()
        assert sorted({min(max(round(v), 1), m_max)
                       for v in geometric_grid(1, m_max, 64)}) == expected

    def test_every_small_test_size_grid_matches_numpy(self):
        assert_test_size_grids_match_numpy(list(range(1, 20_001)))

    def test_log_uniform_test_size_grids_match_numpy(self):
        # Up to 2.5e11 test blocks: rate requests up to 1e12 signals.
        rng = random.Random(6)
        assert_test_size_grids_match_numpy(
            [round(math.exp(rng.uniform(0.0, math.log(2.5e11)))) for _ in range(100_000)])

    def test_sweep_n_totals_match_numpy(self):
        # sweep-n's rounding of the grid to even totals, over the
        # benchmark's ranges: lo in [1e3, 1e7], hi up to lo * 1e5 and 1e12.
        def totals(grid):
            return sorted({max(2, 2 * int(round(v / 2))) for v in grid})

        rng = random.Random(7)
        for case in range(5_000):
            lo = 2 * max(1, round(10 ** rng.uniform(3.0, 7.0) / 2))
            hi = min(10**12, 2 * round(10 ** rng.uniform(math.log10(lo * 100),
                                                         math.log10(lo * 1e5)) / 2))
            points = rng.randint(1, 1000) if case % 25 == 0 else 16
            assert totals(geometric_grid(lo, hi, points)) == totals(
                np.geomspace(lo, hi, num=points)), (lo, hi, points)


# n = 6e6 key blocks out of N = 1e7, so delta at eps = 1e-6 is well below
# the 0.01 of the references; qx is chosen to make qx + delta hit them.
N_REF, M_REF, EPS_REF = 10**7, 4 * 10**6, 1e-6
SCALE = (N_REF - M_REF) // 100


def ref_report(n_a: int, qx_plus_delta: float):
    params = ProtocolParams(1, N_REF, M_REF, EPS_REF)
    delta = delta_from_epsilon(N_REF, M_REF, EPS_REF)
    return key_length(params, NoiseModel(0.0, (0.0,)), n_a=n_a, qx=qx_plus_delta - delta)


class TestMinEntropyBound:
    def test_perfect_channel(self):
        # qx = 0 and n_a = n leave only the sampling deviation.
        params = ProtocolParams(1, N_REF, M_REF, EPS_REF)
        report = key_length(params, NoiseModel(0.0, (0.0,)))
        assert report.accepted == report.key_blocks and report.qx == 0.0
        assert report.hmin == report.key_blocks * (1.0 - binary_entropy(report.delta))

    def test_reference_point(self):
        # n = 100, n_a = 80, qx + delta = 0.03, scaled by SCALE.
        value = ref_report(80 * SCALE, 0.03).hmin / SCALE
        assert value == pytest.approx(BOUND_80_REF, rel=1e-12)
        assert value == pytest.approx(61.54, abs=0.01)

    def test_clamped_argument_gives_zero(self):
        # (100/50)*0.3 = 0.6 clamps to 1/2, where h = 1.
        assert ref_report(50 * SCALE, 0.3).hmin == 0.0

    def test_no_accepted_blocks(self):
        report = ref_report(0, 0.11)
        assert report.hmin == 0.0
        assert report.flags == ("no accepted blocks",)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n_a"):
            ref_report(100 * SCALE + 1, 0.1)
        with pytest.raises(ValueError, match="n_a"):
            ref_report(-1, 0.1)
        for qx_plus_delta in (-0.1, math.nan):
            with pytest.raises(ValueError, match="qx must be nonnegative"):
                ref_report(50 * SCALE, qx_plus_delta)
        # The cached noise-model terms are looked up where they are used, so
        # an unknown formula does not mask an earlier input error.
        params, noise = ProtocolParams(2, 10**6, 10**5, 1e-36), NoiseModel(0.02, (0.02, 0.01))
        for kwargs, message in (({"n_a": -1}, "^need 0 <= n_a <= n$"),
                                ({"n_a": 1.5}, "^n_a must be an integer, got 1.5$"),
                                ({"qx": -1.0}, "^qx must be nonnegative$")):
            with pytest.raises(ValueError, match=message):
                key_length(params, noise, error_formula="bogus", **kwargs)


    def test_accepted_count_must_be_an_integer(self):
        params = ProtocolParams(1, 10**6, 10**5, 1e-36)
        noise = NoiseModel(0.02, (0.02,))
        for n_a in (800000.5, 800000.0, "800000"):
            with pytest.raises(ValueError, match="n_a must be an integer"):
                key_length(params, noise, n_a=n_a)
        expect = key_length(params, noise, n_a=800000)
        for n_a in (np.int64(800000), np.uint32(800000)):
            assert key_length(params, noise, n_a=n_a) == expect


class TestLeakEc:
    def test_noiseless_is_log_term_only(self):
        for p, eps in ((1, 1e-36), (3, 1e-12)):
            params = ProtocolParams(p, 10**6, 10**5, eps)
            report = key_length(params, NoiseModel(0.0, (0.0,) * p), n_a=1000)
            assert report.leak_ec == pytest.approx(math.log2(2 * p / eps), rel=1e-12)

    def test_single_party_reference(self):
        params = ProtocolParams(1, 10**6, 10**5, 1e-36)
        report = key_length(params, NoiseModel(0.1, (0.1,)), n_a=1)
        assert report.pa == pytest.approx(0.82, rel=1e-15)
        expected = H_E_IND_REF + math.log2(2.0) - math.log2(1e-36)
        assert report.leak_ec == pytest.approx(expected, rel=1e-10)
        assert H_E_IND_REF == pytest.approx(0.0953, abs=5e-4)

    def test_two_party_formula_split(self):
        pa = analytic_pa((0.1, 0.025))
        params = ProtocolParams(2, 10**6, 10**5, 1e-36)
        cons, ind = (key_length(params, NoiseModel(0.1, (0.1, 0.025)), n_a=1000,
                                error_formula=formula).leak_ec
                     for formula in ("conservative", "independent"))
        assert cons > ind  # pooled error rate is the larger of the two
        assert cons - ind == pytest.approx(
            1000 * (binary_entropy(0.01 / pa) - binary_entropy(0.01 / 0.82)), rel=1e-9
        )

    def test_interleaved_formulas_keep_their_own_leak(self):
        # Interleaved formulas on one noise model: each report's leak_EC is
        # its own formula's n_a * h(max e_j) + log2(2p/eps), call after call.
        noise = NoiseModel(0.05, (0.1, 0.025))
        calls = [(ProtocolParams(2, 10**6, m, 1e-36), formula)
                 for m in (10**4, 10**5)
                 for formula in ("conservative", "independent", "conservative")]
        first = [key_length(params, noise, error_formula=formula) for params, formula in calls]
        again = [key_length(params, noise, error_formula=formula) for params, formula in calls]
        assert [repr(r) for r in again] == [repr(r) for r in first]
        for (_, formula), report in zip(calls, first):
            worst = binary_entropy(max(postcad_error_rates(noise.z_errors, formula)))
            assert report.leak_ec == report.accepted * worst + math.log2(4.0) - math.log2(1e-36)
        assert first[0].leak_ec > first[1].leak_ec and first[0] == first[2]
        searches = [optimize_m(2, 10**6, 1e-36, noise, error_formula=formula)
                    for formula in ("conservative", "independent", "conservative")]
        assert searches[0] == searches[2] and searches[0][1].leak_ec != searches[1][1].leak_ec

    def test_zero_acceptance_rejected(self):
        # 0.5**1075 underflows: no block is accepted under either formula.
        p = 1075
        noise = NoiseModel(0.1, (0.5,) * p)
        assert analytic_pa(noise.z_errors) == 0.0
        for formula in ("conservative", "independent"):
            with pytest.raises(ValueError, match=r"no blocks accepted \(pa = 0\)"):
                key_length(ProtocolParams(p, 10**6, 10**5, 1e-36), noise,
                           error_formula=formula)
            with pytest.raises(ValueError, match=r"no blocks accepted \(pa = 0\)"):
                optimize_m(p, 10**6, 1e-36, noise, error_formula=formula)


class TestKeyLength:
    def test_noiseless_closed_form(self):
        params = ProtocolParams(2, 5_000_000, 1_000_000, 1e-36)
        noise = NoiseModel(0.0, (0.0, 0.0))
        report = key_length(params, noise)
        n = params.key_blocks
        delta = delta_from_epsilon(5_000_000, 1_000_000, 1e-36)
        expected = (
            n * (1.0 - binary_entropy(delta))
            - math.log2(2 * 2 / 1e-36)
            - 2.0 * math.log2(1.0 / 1e-36)
        )
        assert report.ell == pytest.approx(expected, rel=1e-12)
        assert report.rate == report.ell / params.total_signals
        assert report.accepted == n and report.qx == 0.0

    def test_noiseless_rate_floor_with_optimized_m(self):
        _, report = optimize_m(1, 5_000_000, 1e-36, NoiseModel(0.0, (0.0,)))
        assert report.rate > 0.3

    def test_zero_rate_when_entropy_clamped(self):
        params = ProtocolParams(1, 100_000, 20_000, 1e-36)
        report = key_length(params, NoiseModel(0.3, (0.1,)))
        assert report.hmin == 0.0
        assert report.ell < 0.0  # raw margin kept for diagnostics
        assert report.rate == 0.0

    def test_simulated_inputs_accepted(self):
        params = ProtocolParams(2, 150_000, 50_000, 1e-36, seed=2)
        noise = NoiseModel(0.05, (0.05, 0.0125))
        t = run_trial(params, noise)
        report = key_length(params, noise, n_a=t.accepted, qx=t.qx_observed)
        assert report.accepted == t.accepted
        assert report.qx == t.qx_observed

    def test_agreement_between_simulated_and_analytic(self):
        # Monte Carlo fluctuations propagated to ell by finite differences.
        params = ProtocolParams(2, 150_000, 50_000, 1e-36, seed=6)
        noise = NoiseModel(0.05, (0.05, 0.0125))
        analytic = key_length(params, noise)
        t = run_trial(params, noise)
        simulated = key_length(params, noise, n_a=t.accepted, qx=t.qx_observed)

        n, m = params.key_blocks, params.test_size
        qx, n_a = analytic.qx, analytic.accepted
        dq = 1e-4
        d_ell_dqx = (
            key_length(params, noise, n_a=n_a, qx=qx + dq).ell
            - key_length(params, noise, n_a=n_a, qx=qx - dq).ell
        ) / (2 * dq)
        dn = 200
        d_ell_dna = (
            key_length(params, noise, n_a=n_a + dn, qx=qx).ell
            - key_length(params, noise, n_a=n_a - dn, qx=qx).ell
        ) / (2 * dn)
        sigma_qx = math.sqrt(qx * (1 - qx) / m)
        sigma_na = math.sqrt(analytic.pa * (1 - analytic.pa) * n)
        tol = 3 * (abs(d_ell_dqx) * sigma_qx + abs(d_ell_dna) * sigma_na) + 1.0
        assert abs(simulated.ell - analytic.ell) <= tol

    def test_noiseless_past_float_precision(self):
        # float(2**63 - 1) rounds up to 2**63; n_a must still not exceed n.
        params = ProtocolParams(1, 2**63 - 1 + 10**6, 10**6, 1e-36)
        report = key_length(params, NoiseModel(0.0, (0.0,)))
        assert report.accepted == report.key_blocks == 2**63 - 1

    def test_flags_no_accepted_blocks(self):
        params = ProtocolParams(1, 1000, 100, 1e-6)
        report = key_length(params, NoiseModel(0.1, (0.1,)), n_a=0)
        assert "no accepted blocks" in report.flags
        assert report.rate == 0.0

    def test_flags_default_to_empty(self):
        report = key_length(ProtocolParams(1, 1000, 100, 1e-6), NoiseModel(0.1, (0.1,)))
        assert report.flags == ()
        assert KeyRateReport(*report[:-1]) == report


class TestRateProperties:
    def test_monotone_nonincreasing_in_q(self):
        params = ProtocolParams(2, 1_000_000, 250_000, 1e-36)
        rates = [
            key_length(params, NoiseModel(q, (0.05, 0.05))).rate
            for q in np.arange(0.0, 0.1501, 0.01)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))

    def test_rate_bounded_by_key_fraction(self):
        for n_pop, m in ((10_000, 2_000), (1_000_000, 100_000)):
            for q in (0.0, 0.05, 0.1):
                params = ProtocolParams(1, n_pop, m, 1e-36)
                report = key_length(params, NoiseModel(q, (q,)))
                assert report.rate <= (n_pop - m) / (2 * n_pop)
                assert report.rate < 0.5


class TestOptimizeM:
    def test_interior_optimum(self):
        m_star, report = optimize_m(1, 5_000_000, 1e-36, NoiseModel(0.0, (0.0,)))
        assert 1 < m_star < 2_500_000
        assert report.test_size == m_star
        assert report.rate > 0.0

    def test_deterministic(self):
        noise = NoiseModel(0.05, (0.05,))
        assert optimize_m(1, 100_000, 1e-36, noise) == optimize_m(1, 100_000, 1e-36, noise)

    def test_doubling_signals_never_hurts(self):
        noise = NoiseModel(0.08, (0.08,))
        half = 100_000
        rates = []
        for _ in range(5):
            _, report = optimize_m(1, half, 1e-36, noise)
            rates.append(report.rate)
            half *= 2
        assert all(b >= a - 1e-15 for a, b in zip(rates, rates[1:]))

    def test_asymmetric_configuration_is_positive(self):
        _, report = optimize_m(2, 5_000_000, 1e-36, NoiseModel(0.1, (0.1, 0.025)))
        assert report.rate > 0.0

    def test_largest_grid_size(self):
        # 2**64 - 1025 is the largest N whose grid top, ceil(N/2) - 1 after
        # float division, still fits in int64; one more and it does not.
        half = 2**64 - 1025
        m_star, report = optimize_m(1, half, 1e-36, NoiseModel(0.0, (0.0,)))
        assert 1 <= m_star < half // 2
        assert 0.49 < report.rate < 0.5
        with pytest.raises(ValueError, match="too large"):
            optimize_m(1, half + 1, 1e-36, NoiseModel(0.0, (0.0,)))

    def test_no_positive_rate_flagged(self):
        noise = NoiseModel(0.25, (0.25,))
        m_star, report = optimize_m(1, 10_000, 1e-36, noise)
        assert report.rate == 0.0
        assert "no positive rate" in report.flags
        assert 1 <= m_star < 5_000
        # The midpoint of the 64-point grid, as key_length reports it, flagged.
        grid = sorted({min(max(round(v), 1), 4_999) for v in geometric_grid(1, 4_999, 64)})
        assert m_star == grid[len(grid) // 2]
        plain = key_length(ProtocolParams(1, 10_000, m_star, 1e-36), noise)
        assert report == plain._replace(flags=("no positive rate",))

    def test_beats_fixed_fractions(self):
        # The discrete golden-section lands on the optimum's plateau; allow
        # for its flatness (rates there agree to ~1e-7 relative).
        noise = NoiseModel(0.05, (0.05, 0.0125))
        _, best = optimize_m(2, 1_000_000, 1e-36, noise)
        for frac in (0.01, 0.1, 0.25, 0.49):
            m = max(1, int(500_000 * frac))
            report = key_length(ProtocolParams(2, 1_000_000, m, 1e-36), noise)
            assert best.rate >= report.rate * (1.0 - 1e-6)


# A reference engine that evaluates every term on every probe: one
# validated ProtocolParams and one full key-length body per probe of the
# same test-size search, so each probe and the answer must match bit for bit.
def reference_key_length(params, noise, n_a=None, qx=None, error_formula="conservative"):
    if len(noise.z_errors) != params.bobs:
        raise ValueError(
            f"noise model has {len(noise.z_errors)} Z rates for {params.bobs} parties"
        )
    n, eps = params.key_blocks, params.epsilon
    pa = analytic_pa(noise.z_errors)
    if qx is None:
        qx = analytic_qx(noise.x_error)
    if n_a is None:
        n_a = min(round(pa * n), n)
    elif not isinstance(n_a, numbers.Integral):
        raise ValueError(f"n_a must be an integer, got {n_a!r}")
    if not 0 <= n_a <= n:
        raise ValueError("need 0 <= n_a <= n")
    if not qx >= 0.0:
        raise ValueError("qx must be nonnegative")

    delta = delta_from_epsilon(params.half_signals, params.test_size, eps)
    hmin = n_a * (1.0 - binary_entropy(min(0.5, (n / n_a) * (qx + delta)))) if n_a else 0.0
    worst = binary_entropy(
        max(min(0.5, e) for e in postcad_error_rates(noise.z_errors, error_formula)))
    leak = n_a * worst + math.log2(2.0 * params.bobs) - math.log2(eps)
    ell = hmin - leak - 2.0 * math.log2(1.0 / eps)
    rate = ell / params.total_signals if ell > 0.0 else 0.0
    root = _cbrt(eps)
    flags = ("no accepted blocks",) if n_a == 0 else ()
    return KeyRateReport(
        params.bobs, params.half_signals, params.test_size, n, eps,
        noise.x_error, noise.z_errors, error_formula,
        delta, qx, pa, int(n_a), hmin, leak, ell, rate,
        4.0 * eps + 2.0 * root, 2.0 * root, 9.0 * eps + 2.0 * root,
        flags,
    )


def reference_optimize_m(bobs, half_signals, epsilon, noise, error_formula="conservative"):
    m_max = math.ceil(half_signals / 2) - 1
    if m_max < 1:
        raise ValueError("half_signals too small for any valid test size")
    if float(m_max) >= 2.0**63:
        raise ValueError(f"half_signals {half_signals} too large for the test-size grid")
    cache = {}

    def rate_at(m):
        if m not in cache:
            params = ProtocolParams(bobs, half_signals, m, epsilon)
            cache[m] = reference_key_length(params, noise, error_formula=error_formula)
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
        if x1 >= x2:
            break
        if rate_at(x1) < rate_at(x2):
            lo = x1
        else:
            hi = x2
    m_star = max(range(lo, hi + 1), key=lambda m: (rate_at(m), -m))
    return m_star, cache[m_star]


def outcome(fn, *args, **kwargs) -> str:
    """The repr of what ``fn`` returns, or the type and message of any
    exception it raises, so that errors are compared as closely as results."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


ORACLE_SIGNALS = (3, 4, 5, 7, 10, 33, 100, 1_001, 10**4, 123_457, 10**6, 10**8, 10**10,
                  10**12, 10**15, 2**62)


def oracle_noises(p: int, rng: random.Random) -> list:
    """A noiseless, a random, a zero-rate and a nearly all-rejecting model."""
    return [NoiseModel(0.0, (0.0,) * p),
            NoiseModel(rng.uniform(0.0, 0.12), [rng.uniform(0.0, 0.12) for _ in range(p)]),
            NoiseModel(0.25, [rng.uniform(0.1, 0.3) for _ in range(p)]),
            NoiseModel(0.5, (0.5,) * p)]


class TestMatchesPerProbeReference:
    """Bit-for-bit agreement with the per-probe engine, errors included."""

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_seeded_grid(self, p):
        rng = random.Random(3200 + p)
        seen = []
        for half, eps, formula in ((h, e, f) for h in ORACLE_SIGNALS
                                   for e in (1e-36, 1e-10, 0.5)
                                   for f in ("conservative", "independent")):
            for noise in oracle_noises(p, rng):
                args = (p, half, eps, noise)
                seen.append(outcome(optimize_m, *args, error_formula=formula))
                assert seen[-1] == outcome(
                    reference_optimize_m, *args, error_formula=formula), (args, formula)
                m_max = math.ceil(half / 2) - 1
                if m_max < 1:
                    continue
                m = rng.choice((1, m_max, rng.randint(1, m_max)))
                params = ProtocolParams(p, half, m, eps)
                n = half - m
                for kwargs in ({}, {"n_a": rng.randint(0, n)}, {"n_a": 0},
                               {"qx": rng.uniform(0.0, 0.6)},
                               {"n_a": np.int64(rng.randint(0, n)), "qx": rng.random()}):
                    kwargs["error_formula"] = formula
                    seen.append(outcome(key_length, params, noise, **kwargs))
                    assert seen[-1] == outcome(
                        reference_key_length, params, noise, **kwargs), (params, noise, kwargs)
        # The grid reaches positive rates, searches with no positive rate and
        # reports with no accepted block.
        for mark in ("'no positive rate'", "'no accepted blocks'", "flags=()"):
            assert any(mark in text for text in seen), mark

    def test_invalid_inputs(self):
        noise1, noise2 = NoiseModel(0.05, (0.05,)), NoiseModel(0.05, (0.05, 0.01))
        rejecting = NoiseModel(0.1, (0.5,) * 1075)  # pa underflows to 0
        searches = [
            (1, 1, 1e-36, noise1), (1, 2, 1e-36, noise1), (1, 2**64, 1e-36, noise1),
            (1, 2**64 - 1025, 1e-36, noise1), (0, 10**6, 1e-36, noise1),
            (0, 10**6, 1e-36, noise2), (2, 10**6, 1e-36, noise1), (1, 10**6, 1e-36, noise2),
            (1, 10**6, 0.0, noise1), (1, 10**6, 1.0, noise1), (1, 10**6, 5e-324, noise1),
            (1, 10**6, math.nan, noise1), (1075, 10**6, 1e-36, rejecting),
        ]
        for args in searches:
            for formula in ("conservative", "independent", "bogus"):
                assert outcome(optimize_m, *args, error_formula=formula) == outcome(
                    reference_optimize_m, *args, error_formula=formula), (args, formula)
        params1 = ProtocolParams(1, 10**6, 10**5, 1e-36)
        params2 = ProtocolParams(2, 10**6, 10**5, 1e-36)
        formulas = ("conservative", "independent", "bogus")
        points = [(params1, noise2, formulas), (params2, noise1, formulas),
                  (params1, noise1, formulas), (params2, noise2, formulas),
                  (ProtocolParams(1075, 10**6, 10**5, 1e-36), rejecting, formulas),
                  # m * N overflows; see test_input_error_before_float_overflow.
                  (ProtocolParams(1, 10**200, 10**150, 1e-36), noise1, formulas[:2])]
        bad = [{}, {"n_a": -1}, {"n_a": 900_001}, {"n_a": 1.5}, {"n_a": "3"}, {"n_a": 800_000.0},
               {"qx": -1.0}, {"qx": math.nan}, {"n_a": -1, "qx": -1.0}, {"n_a": 1.5, "qx": math.nan}]
        for params, noise, point_formulas in points:
            for kwargs in bad:
                for formula in point_formulas:
                    assert outcome(key_length, params, noise, error_formula=formula,
                                   **kwargs) == outcome(reference_key_length, params, noise,
                                                        error_formula=formula, **kwargs), (
                        params, noise, kwargs, formula)

    def test_input_error_before_float_overflow(self):
        # The formula and pa are checked once per evaluator, before any
        # probe, so an unknown formula is reported ahead of a test size
        # whose m * N overflows a float (the per-probe engine reported the
        # overflow).
        params = ProtocolParams(1, 10**200, 10**150, 1e-36)
        noise = NoiseModel(0.05, (0.05,))
        with pytest.raises(ValueError, match="^unknown post-sieve error formula 'bogus'$"):
            key_length(params, noise, error_formula="bogus")
        with pytest.raises(ValueError, match="^sample size times population overflows a float$"):
            key_length(params, noise)


class TestStructure:
    def test_one_protocol_params_per_search(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return ProtocolParams(*args, **kwargs)

        noise = NoiseModel(0.05, (0.05, 0.0125))
        expect = optimize_m(2, 10**7, 1e-36, noise)
        monkeypatch.setattr(keyrate, "ProtocolParams", counted)
        for _ in range(3):
            assert optimize_m(2, 10**7, 1e-36, noise) == expect
        assert len(built) == 3

    def test_no_lru_caches(self):
        cached = [name for name, value in vars(keyrate).items() if hasattr(value, "cache_info")]
        assert cached == []
