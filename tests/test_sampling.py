"""Tests for the subset-sampling deviation bounds and their exact oracle."""

import itertools
import math

import numpy as np
import pytest

from qcka_cad.bitcore import BitString
from qcka_cad.sampling import (
    delta_from_epsilon,
    empirical_sampling_failure,
    sampling_failure_log,
)
from qcka_cad.verify import _sampling_bound as sampling_bound

# 2*exp(-0.25^2 * 50 * 200 / 202) to 50 digits, rounded to double.
EPS0_200_50 = 0.09063523580417227
# sqrt((N+2) ln(2/eps^2) / (m N)) at N=5e6, m=1.25e6, eps=1e-36.
DELTA_5E6 = 0.011540514389500697


class TestSamplingParams:
    def test_validation(self):
        sampling_failure_log(200, 50, 0.25)
        with pytest.raises(ValueError, match="m < N/2"):
            sampling_failure_log(200, 100, 0.25)
        with pytest.raises(ValueError, match="positive"):
            sampling_failure_log(200, 0, 0.25)
        with pytest.raises(ValueError, match="delta"):
            sampling_failure_log(200, 50, 0.0)
        # Deviations above 1 stay legal: the delta inverse returns them.
        assert sampling_failure_log(200, 50, 1.5) < math.log(1e-40)


class TestEpsilonClBound:
    def test_vacuous_deviation_clamps_to_one(self):
        assert sampling_failure_log(200, 50, 1e-9) > 0.0
        assert sampling_bound(200, 50, 1e-9) == 1.0

    def test_reference_point(self):
        value = sampling_bound(200, 50, 0.25)
        assert value == pytest.approx(EPS0_200_50, rel=1e-12)
        assert value == pytest.approx(0.0907, abs=1e-4)

    def test_log_and_linear_agree(self):
        # 2 exp(-delta^2 m N / (N + 2)) evaluated directly.
        linear = 2.0 * math.exp(-0.1 * 0.1 * 100 * 1000 / 1002)
        assert math.exp(sampling_failure_log(1000, 100, 0.1)) == pytest.approx(
            linear, rel=1e-12
        )

    def test_tiny_epsilon_consistency(self):
        # At the delta returned for eps = 1e-36 the bound equals eps^2.
        delta = delta_from_epsilon(5_000_000, 1_250_000, 1e-36)
        log_bound = sampling_failure_log(5_000_000, 1_250_000, delta)
        assert log_bound == pytest.approx(2.0 * math.log(1e-36), rel=1e-12)


class TestDeltaFromEpsilon:
    def test_reference_point(self):
        delta = delta_from_epsilon(5_000_000, 1_250_000, 1e-36)
        assert delta == pytest.approx(DELTA_5E6, rel=1e-12)
        assert delta == pytest.approx(0.011541, abs=1e-6)

    def test_roundtrip_in_log_space(self):
        for eps in (1e-6, 1e-12, 1e-36):
            for n_pop in (1000, 1_000_000):
                for m in (n_pop // 10, n_pop // 4):
                    delta = delta_from_epsilon(n_pop, m, eps)
                    log_bound = sampling_failure_log(n_pop, m, delta)
                    target = 2.0 * math.log(eps)
                    assert abs(log_bound - target) <= 1e-12 * abs(target)

    def test_monotone_in_sample_size_and_population(self):
        eps = 1e-12
        deltas_m = [delta_from_epsilon(10_000, m, eps) for m in (100, 500, 1000, 4000)]
        assert all(a > b for a, b in zip(deltas_m, deltas_m[1:]))
        deltas_n = [delta_from_epsilon(n, n // 10, eps) for n in (10_000, 10**5, 10**6)]
        assert all(a > b for a, b in zip(deltas_n, deltas_n[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            delta_from_epsilon(100, 50, 1e-6)
        with pytest.raises(ValueError):
            delta_from_epsilon(100, 10, 0.0)
        with pytest.raises(ValueError):
            delta_from_epsilon(100, 10, 1.0)

    def test_product_past_the_float_range_rejected(self):
        # m * N = 5e349 cannot become a float; 1e154 * 1e154 still can.
        with pytest.raises(ValueError, match="^sample size times population overflows a float$"):
            delta_from_epsilon(5 * 10**199, 10**150, 1e-36)
        delta = delta_from_epsilon(10**154, 10**153, 1e-36)
        assert delta == math.sqrt((10**154 + 2.0) * (math.log(2.0) - 2.0 * math.log(1e-36))
                                  / (10**153 * 10**154))


def enumerated_failure(q, m, delta):
    """Fraction of all m-subsets whose weight gap exceeds delta, by enumeration."""
    bits = list(q)
    n_pop, weight = len(bits), sum(bits)
    failures = total = 0
    for subset in itertools.combinations(range(n_pop), m):
        k = sum(bits[i] for i in subset)
        failures += abs(k / m - (weight - k) / (n_pop - m)) > delta
        total += 1
    return failures / total


def comb_sum_failure(q, m, delta):
    """The hypergeometric failure sum with one math.comb call per term."""
    n_pop, weight = len(q), q.weight
    failing = sum(
        math.comb(weight, k) * math.comb(n_pop - weight, m - k)
        for k in range(m + 1)
        if abs(k / m - (weight - k) / (n_pop - m)) > delta
    )
    return failing / math.comb(n_pop, m)


class TestEmpiricalSamplingFailure:
    def test_all_zero_word_never_fails(self):
        q = BitString("0" * 20)
        assert empirical_sampling_failure(q, 5, 0.01) == 0.0

    def test_delta_one_never_fails(self):
        rng = np.random.default_rng(2)
        q = BitString(rng.integers(0, 2, size=20, dtype=np.uint8))
        assert empirical_sampling_failure(q, 5, 1.0) == 0.0

    def test_exhaustive_within_bound_small_instances(self):
        rng = np.random.default_rng(4)
        for n_pop, m in ((16, 4), (20, 5), (24, 6)):
            bound = sampling_bound(n_pop, m, 0.25)
            for q in (
                BitString("01" * (n_pop // 2)),
                BitString(rng.integers(0, 2, size=n_pop, dtype=np.uint8)),
                BitString("1" * (n_pop // 2) + "0" * (n_pop - n_pop // 2)),
            ):
                exact = empirical_sampling_failure(q, m, 0.25)
                assert exact <= bound

    def test_exact_within_bound_at_n200(self):
        q = BitString("01" * 100)
        exact = empirical_sampling_failure(q, 50, 0.25)
        assert exact == pytest.approx(0.0017477798285438092, rel=1e-12)
        assert exact <= sampling_bound(200, 50, 0.25)

    def test_exact_within_bound_at_n500(self):
        rng = np.random.default_rng(55)
        q = BitString(rng.integers(0, 2, size=500, dtype=np.uint8))
        exact = empirical_sampling_failure(q, 125, 0.2)
        assert exact <= sampling_bound(500, 125, 0.2)

    def test_matches_enumeration(self):
        # The battery's instances, plus a half-block word.
        rng = np.random.default_rng(3)
        for n_pop, m in ((16, 4), (20, 5), (24, 6)):
            for q in (
                BitString("01" * (n_pop // 2)),
                BitString(rng.integers(0, 2, size=n_pop, dtype=np.uint8)),
                BitString("1" * (n_pop // 2) + "0" * (n_pop - n_pop // 2)),
            ):
                for delta in (0.25, 0.4):
                    assert empirical_sampling_failure(q, m, delta) == enumerated_failure(q, m, delta)

    def test_matches_enumeration_on_random_words(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n_pop = int(rng.integers(3, 15))
            m = int(rng.integers(1, (n_pop + 1) // 2))
            q = BitString(rng.integers(0, 2, size=n_pop, dtype=np.uint8))
            delta = float(rng.uniform(0.0, 0.8))
            assert empirical_sampling_failure(q, m, delta) == enumerated_failure(q, m, delta)

    def test_gap_equal_to_delta_is_not_a_failure(self):
        # N=16, m=4, w=8: one sampled one gives the gap |1/4 - 7/12|.  At
        # that delta those subsets pass; just below it they fail.
        q = BitString("01" * 8)
        delta = abs(1 / 4 - 7 / 12)
        at_gap = empirical_sampling_failure(q, 4, delta)
        below = empirical_sampling_failure(q, 4, math.nextafter(delta, 0.0))
        assert at_gap == enumerated_failure(q, 4, delta)
        assert below == enumerated_failure(q, 4, math.nextafter(delta, 0.0))
        assert at_gap < below

    def test_matches_comb_sum_at_n200_and_n500(self):
        rng = np.random.default_rng(55)
        cases = (
            (BitString("01" * 100), 50, 0.25),
            (BitString(rng.integers(0, 2, size=500, dtype=np.uint8)), 125, 0.2),
            (BitString("0011" * 125), 200, 0.05),
        )
        for q, m, delta in cases:
            assert empirical_sampling_failure(q, m, delta) == comb_sum_failure(q, m, delta)

    def test_sample_size_validated(self):
        with pytest.raises(ValueError, match="m < N/2"):
            empirical_sampling_failure(BitString("0101"), 2, 0.1)
        with pytest.raises(ValueError, match="positive"):
            empirical_sampling_failure(BitString("0101"), 0, 0.1)
