"""Tests for the Monte Carlo protocol simulator."""

import itertools
import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from qcka_cad.keyrate import key_length
from qcka_cad.protosim import (
    FieldStats,
    NoiseModel,
    ProtocolParams,
    TrialOutcome,
    aggregate,
    analytic_pa,
    analytic_qx,
    postcad_error_rates,
    run_trial,
)
from qcka_cad.verify import CheckResult


def _params(bobs, n, m=None, seed=0):
    # Convenience: choose N so the key register has exactly n blocks.
    m = m or n // 2
    return ProtocolParams(bobs, n + m, m, 1e-36, seed=seed)


def _counts(t: TrialOutcome, m: int) -> tuple:
    """(QX error count, n_a, d_1.., all-equal count) recovered from a trial."""
    rates = t.postcad_error + (t.keys_equal_fraction,)
    tail = tuple(round(r * t.accepted) if t.accepted else 0 for r in rates)
    return (round(t.qx_observed * m), t.accepted) + tail


def _per_bit_counts(rng, m, n, q, z_errors) -> tuple:
    """Reference simulation drawing every bit of every block, as the counts of :func:`_counts`."""
    err_left = rng.random(m) < q
    err_right = rng.random(m) < q
    ref_left = rng.integers(0, 2, size=n, dtype=np.uint8)
    ref_right = rng.integers(0, 2, size=n, dtype=np.uint8)
    ref_parity = ref_left ^ ref_right
    accept = np.ones(n, dtype=bool)
    party_left = []
    for z in z_errors:
        left = ref_left ^ (rng.random(n) < z).astype(np.uint8)
        right = ref_right ^ (rng.random(n) < z).astype(np.uint8)
        party_left.append(left)
        accept &= (left ^ right) == ref_parity
    disagree = [left[accept] != ref_left[accept] for left in party_left]
    all_equal = ~np.logical_or.reduce(disagree)
    return ((int(np.sum(err_left ^ err_right)), int(accept.sum()))
            + tuple(int(d.sum()) for d in disagree) + (int(all_equal.sum()),))


def _exact_law(m, n, q, z_errors) -> dict:
    """Exact law of the :func:`_counts` tuple, by enumerating every flip of every block."""
    p = len(z_errors)
    rates = (q,) * (2 * m) + tuple(z for _ in range(n) for z in z_errors for _ in (0, 1))
    law = defaultdict(float)
    for flips in itertools.product((0, 1), repeat=len(rates)):
        prob = math.prod(r if f else 1.0 - r for f, r in zip(flips, rates))
        test, key = flips[:2 * m], flips[2 * m:]
        blocks = [key[2 * p * i:2 * p * (i + 1)] for i in range(n)]
        accepted = [b for b in blocks if all(b[2 * j] == b[2 * j + 1] for j in range(p))]
        qx = sum(test[2 * i] ^ test[2 * i + 1] for i in range(m))
        disagreements = tuple(sum(b[2 * j] for b in accepted) for j in range(p))
        equal = sum(not any(b[0::2]) for b in accepted)
        law[(qx, len(accepted)) + disagreements + (equal,)] += prob
    return law


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square law, from its closed forms for integer dof."""
    if dof % 2 == 0:
        term = total = math.exp(-x / 2)
        for i in range(1, dof // 2):
            term *= x / (2 * i)
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for i in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return total


class TestAnalytics:
    def test_qx(self):
        assert analytic_qx(0.0) == 0.0
        assert analytic_qx(0.5) == 0.5
        assert analytic_qx(0.1) == pytest.approx(0.18, rel=1e-12)

    def test_pa(self):
        assert analytic_pa((0.0,)) == 1.0
        assert analytic_pa((0.5,)) == 0.5
        assert analytic_pa((0.1, 0.025)) == pytest.approx(0.780025, rel=1e-12)
        with pytest.raises(ValueError):
            analytic_pa(())

    def test_postcad_error_rates(self):
        cons = postcad_error_rates((0.1, 0.025), "conservative")
        ind = postcad_error_rates((0.1, 0.025), "independent")
        assert cons[0] == pytest.approx(0.012820, abs=1e-6)
        assert ind[0] == pytest.approx(0.0121951, abs=1e-7)
        # Single party: the two formulas coincide.
        assert postcad_error_rates((0.1,), "conservative") == pytest.approx(
            postcad_error_rates((0.1,), "independent"), rel=1e-12
        )
        with pytest.raises(ValueError, match="formula"):
            postcad_error_rates((0.1,), "bogus")

    def test_postcad_error_rates_need_an_accepted_block(self):
        # 0.5**1075 underflows to 0: the conservative rates would divide by it.
        z_errors = (0.5,) * 1075
        assert analytic_pa(z_errors) == 0.0
        for formula in ("conservative", "independent"):
            with pytest.raises(ValueError, match=r"^no blocks accepted \(pa = 0\)$"):
                postcad_error_rates(z_errors, formula)
        assert postcad_error_rates((0.5,) * 1074, "conservative")[0] > 0.0


class TestValidation:
    def test_noise_model(self):
        with pytest.raises(ValueError, match=r"^x_error must lie in \[0, 0.5\]$"):
            NoiseModel(0.6, (0.1,))
        with pytest.raises(ValueError, match="^at least one Z-error rate is required$"):
            NoiseModel(0.1, ())
        with pytest.raises(ValueError, match=r"^every z_error must lie in \[0, 0.5\]$"):
            NoiseModel(0.1, (0.7,))
        with pytest.raises(ValueError, match="^x_error"):  # x_error is checked first
            NoiseModel(0.6, ())
        noise = NoiseModel(0.1, [np.float64(0.25), 0])
        assert noise.z_errors == (0.25, 0.0)
        assert [type(z) for z in noise.z_errors] == [float, float]
        with pytest.raises(ValueError, match="every z_error"):
            noise._replace(z_errors=(0.7,))  # copies are validated too

    def test_protocol_params(self):
        with pytest.raises(ValueError, match="m < N/2"):
            ProtocolParams(1, 100, 50, 1e-36)
        with pytest.raises(ValueError):
            ProtocolParams(0, 100, 10, 1e-36)
        with pytest.raises(ValueError):
            ProtocolParams(1, 100, 10, 0.0)
        p = ProtocolParams(2, 150, 50, 1e-36)
        assert p.key_blocks == 100
        assert p.total_signals == 300
        assert p.seed == 0
        assert p._replace(seed=5) == ProtocolParams(2, 150, 50, 1e-36, seed=5)
        with pytest.raises(ValueError, match="m < N/2"):
            p._replace(test_size=75)

    @pytest.mark.parametrize("record", [
        NoiseModel(0.1, (0.1,)),
        ProtocolParams(1, 100, 10, 1e-36),
        key_length(ProtocolParams(1, 100, 10, 1e-36), NoiseModel(0.1, (0.1,))),
        TrialOutcome(0.1, 7, 3, (0.1,), 0.9),
        FieldStats(0.5, None, None),
        CheckResult("name", "PASS", 0.0, "detail"),
    ], ids=lambda record: type(record).__name__)
    def test_records_are_immutable(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        # Records are named tuples: they unpack and compare as plain tuples.
        assert record == tuple(record) == type(record)(*record)

    def test_noise_length_must_match_parties(self):
        with pytest.raises(ValueError, match="Z rates"):
            run_trial(_params(2, 100), NoiseModel(0.1, (0.1,)))


class TestRunTrial:
    def test_noiseless(self):
        params = _params(2, 1000)
        t = run_trial(params, NoiseModel(0.0, (0.0, 0.0)))
        assert t.qx_observed == 0.0
        assert t.accepted == params.key_blocks
        assert t.rejected == 0
        assert t.postcad_error == (0.0, 0.0)
        assert t.keys_equal_fraction == 1.0

    def test_deterministic_per_trial_index(self):
        params = _params(2, 10_000, seed=77)
        noise = NoiseModel(0.1, (0.1, 0.025))
        assert run_trial(params, noise, 3) == run_trial(params, noise, 3)
        assert run_trial(params, noise, 3) != run_trial(params, noise, 4)

    def test_statistics_match_analytics(self):
        params = _params(2, 100_000, m=50_000, seed=123)
        noise = NoiseModel(0.1, (0.1, 0.025))
        t = run_trial(params, noise)
        m, n = params.test_size, params.key_blocks
        qx = analytic_qx(0.1)
        assert abs(t.qx_observed - qx) <= 3 * math.sqrt(qx * (1 - qx) / m)
        pa = analytic_pa(noise.z_errors)
        assert abs(t.accepted / n - pa) <= 3 * math.sqrt(pa * (1 - pa) / n)

    def test_symmetric_half_noise(self):
        params = _params(1, 100_000, seed=5)
        t = run_trial(params, NoiseModel(0.0, (0.5,)))
        n = params.key_blocks
        assert abs(t.accepted / n - 0.5) <= 3 * math.sqrt(0.25 / n)
        # Conditional kept-bit error at QZ = 1/2 is exactly 1/2.
        assert abs(t.postcad_error[0] - 0.5) <= 3 * math.sqrt(0.25 / t.accepted)

    def test_empirical_error_matches_independent_formula(self):
        # The kept-bit error converges to QZ^2/(QZ^2 + (1-QZ)^2), the exact
        # conditional rate for independent per-party noise; the pooled
        # expression QZ^2/pa overshoots once there are two or more parties.
        params = _params(2, 100_000, m=50_000, seed=31)
        noise = NoiseModel(0.1, (0.1, 0.025))
        outcomes = [run_trial(params, noise, i) for i in range(20)]
        ind = postcad_error_rates(noise.z_errors, "independent")
        cons = postcad_error_rates(noise.z_errors, "conservative")
        kept = sum(t.accepted for t in outcomes)
        for j in range(2):
            mean = float(np.mean([t.postcad_error[j] for t in outcomes]))
            sigma = math.sqrt(ind[j] * (1 - ind[j]) / kept)
            assert abs(mean - ind[j]) <= 3 * sigma
        # The first party's pooled prediction is distinguishably larger.
        mean1 = float(np.mean([t.postcad_error[0] for t in outcomes]))
        sigma1 = math.sqrt(ind[0] * (1 - ind[0]) / kept)
        assert cons[0] - mean1 > 3 * sigma1

    def test_acceptance_rate_converges_for_three_parties(self):
        params = _params(3, 100_000, m=50_000, seed=71)
        noise = NoiseModel(0.05, (0.1, 0.05, 0.02))
        trials = 20
        outcomes = [run_trial(params, noise, i) for i in range(trials)]
        n = params.key_blocks
        pa = analytic_pa(noise.z_errors)
        mean_acc = float(np.mean([t.accepted / n for t in outcomes]))
        sigma = math.sqrt(pa * (1 - pa) / (n * trials))
        assert abs(mean_acc - pa) <= 3 * sigma

    def test_quadratic_error_suppression_two_party(self):
        # Accepted-block error Q^2/(Q^2+(1-Q)^2) ~ Q^2 for small Q.
        for i, q in enumerate((0.05, 0.1, 0.2)):
            params = _params(1, 100_000, seed=900 + i)
            t = run_trial(params, NoiseModel(0.0, (q,)))
            predicted = q * q / (q * q + (1 - q) * (1 - q))
            sigma = math.sqrt(predicted * (1 - predicted) / t.accepted)
            assert abs(t.postcad_error[0] - predicted) <= 3 * sigma
            assert t.postcad_error[0] < q  # suppression below the raw rate


class TestCountLevelSampler:
    @pytest.mark.parametrize("z_errors", [(0.35,), (0.35, 0.25)])
    def test_joint_law_matches_exact_enumeration(self, z_errors):
        # n = 3 key blocks and m = 2 test blocks: every flip configuration
        # is enumerated, and the sampled joint counts must fit that law.
        m, n, trials = 2, 3, 20_000
        params = ProtocolParams(len(z_errors), n + m, m, 1e-36, seed=2025)
        noise = NoiseModel(0.2, z_errors)
        law = _exact_law(m, n, noise.x_error, z_errors)
        observed = Counter(_counts(run_trial(params, noise, i), m) for i in range(trials))
        assert set(observed) <= set(law)
        # Cells expected fewer than 5 times are pooled into one.
        small = [cell for cell, prob in law.items() if prob * trials < 5]
        cells = [([cell], prob) for cell, prob in law.items() if cell not in small]
        cells.append((small, sum(law[cell] for cell in small)))
        chi2 = sum((sum(observed[c] for c in group) - prob * trials) ** 2 / (prob * trials)
                   for group, prob in cells if prob > 0)
        dof = sum(prob > 0 for _, prob in cells) - 1
        assert _chi2_sf(chi2, dof) >= 1e-6, f"chi2 {chi2:.1f} over {dof} dof"

    def test_chi2_tail_reference_points(self):
        # Textbook 5% critical values, odd and even degrees of freedom.
        for x, dof in ((3.841459, 1), (5.991465, 2), (11.070498, 5), (18.307038, 10)):
            assert _chi2_sf(x, dof) == pytest.approx(0.05, rel=1e-5)

    def test_moments_match_per_bit_oracle(self):
        # Means and variances of every count against the per-bit reference,
        # each as a two-sample z-score.
        m, n, trials = 100, 200, 4000
        noise = NoiseModel(0.1, (0.35, 0.25))
        params = ProtocolParams(2, n + m, m, 1e-36, seed=17)
        sampled = np.array([_counts(run_trial(params, noise, i), m) for i in range(trials)],
                           dtype=float)
        rng = np.random.default_rng(18)
        oracle = np.array([_per_bit_counts(rng, m, n, noise.x_error, noise.z_errors)
                           for _ in range(trials)], dtype=float)
        for column in range(sampled.shape[1]):
            a, b = sampled[:, column], oracle[:, column]
            mean_z = (a.mean() - b.mean()) / math.sqrt((a.var() + b.var()) / trials)
            # The sample variance's standard error is sqrt((mu4 - var^2) / T).
            se = [math.sqrt(max(np.mean((x - x.mean()) ** 4) - x.var() ** 2, 0.0) / trials)
                  for x in (a, b)]
            var_z = (a.var(ddof=1) - b.var(ddof=1)) / math.hypot(*se)
            assert abs(mean_z) <= 5 and abs(var_z) <= 5, (column, mean_z, var_z)

    def test_memory_independent_of_signal_count(self):
        params = ProtocolParams(2, 5 * 10**12, 10**6, 1e-36, seed=3)
        noise = NoiseModel(0.1, (0.1, 0.025))
        tracemalloc.start()
        try:
            t = run_trial(params, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert t.accepted + t.rejected == params.key_blocks
        pa = analytic_pa(noise.z_errors)
        n = params.key_blocks
        assert abs(t.accepted / n - pa) <= 6 * math.sqrt(pa * (1 - pa) / n)

    def test_int64_count_limit(self):
        noise = NoiseModel(0.1, (0.1,))
        largest = run_trial(ProtocolParams(1, 2**63 + 9, 10, 1e-36), noise)
        assert largest.accepted + largest.rejected == 2**63 - 1
        for half, m in ((2**63 + 10, 10), (2**64 + 2, 2**63)):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                run_trial(ProtocolParams(1, half, m, 1e-36), noise)


class TestAggregate:
    def test_single_trial(self):
        params = _params(1, 1000)
        t = run_trial(params, NoiseModel(0.1, (0.1,)))
        stats = aggregate([t])
        assert stats["qx_observed"].mean == t.qx_observed
        assert stats["qx_observed"].std is None
        assert stats["qx_observed"].stderr is None

    def test_identical_trials_have_zero_spread(self):
        params = _params(1, 1000)
        t = run_trial(params, NoiseModel(0.1, (0.1,)))
        stats = aggregate([t, t, t])
        assert stats["qx_observed"].std == 0.0
        assert stats["accepted"].stderr == 0.0

    def test_identical_values_are_exact(self):
        # Three-decimal values whose plain mean of three copies is off by an
        # ulp, with a non-zero std (e.g. 0.182 -> 0.18200000000000002).
        values = [v for v in (k / 1000 for k in range(1, 501)) if (v + v + v) / 3 != v]
        assert len(values) == 112
        for v in values:
            stats = aggregate([TrialOutcome(v, 7, 3, (v,), v)] * 3)
            for name in ("qx_observed", "postcad_error_1", "keys_equal_fraction"):
                assert stats[name].mean == v
                assert stats[name].std == 0.0
                assert stats[name].stderr == 0.0

    def test_mean_converges(self):
        params = _params(1, 20_000, m=10_000, seed=8)
        noise = NoiseModel(0.1, (0.1,))
        stats = aggregate([run_trial(params, noise, i) for i in range(20)])
        qx = stats["qx_observed"]
        assert abs(qx.mean - 0.18) <= 3 * max(qx.stderr, 1e-6)

    def test_field_names_cover_all_parties(self):
        params = _params(3, 1000)
        noise = NoiseModel(0.05, (0.1, 0.05, 0.01))
        stats = aggregate([run_trial(params, noise, i) for i in range(2)])
        for key in ("postcad_error_1", "postcad_error_2", "postcad_error_3",
                    "keys_equal_fraction", "accepted", "rejected"):
            assert key in stats

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
