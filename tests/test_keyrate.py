"""Tests for the finite-key length engine and the test-size optimizer."""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcka_cad.bitcore import binary_entropy
from qcka_cad.keyrate import (
    KeyRateReport, _acceptance, _cbrt, _leak_entropy, geometric_grid, key_length, optimize_m,
)
from qcka_cad.protosim import NoiseModel, ProtocolParams, analytic_pa, run_trial
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

    def test_reports_match_with_a_cold_and_a_warm_cache(self):
        # Interleaved formulas on one noise model: a cache keyed on the Z
        # rates alone would hand one formula the other's leak entropy.
        noise = NoiseModel(0.05, (0.1, 0.025))
        calls = [(ProtocolParams(2, 10**6, m, 1e-36), formula)
                 for m in (10**4, 10**5)
                 for formula in ("conservative", "independent", "conservative")]
        cold = []
        for params, formula in calls:
            _acceptance.cache_clear()
            _leak_entropy.cache_clear()
            cold.append(key_length(params, noise, error_formula=formula))
        warm = [key_length(params, noise, error_formula=formula) for params, formula in calls]
        assert _leak_entropy.cache_info().currsize == 2 and _acceptance.cache_info().currsize == 1
        assert cold[0].leak_ec != cold[1].leak_ec
        assert [repr(r) for r in warm] == [repr(r) for r in cold]

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
