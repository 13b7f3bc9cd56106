"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with their margins.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from qcka_cad.bitcore import BitString
from qcka_cad.cli import main as cli_main
from qcka_cad.keyrate import key_length, optimize_m
from qcka_cad.protosim import (
    NoiseModel,
    ProtocolParams,
    analytic_pa,
    analytic_qx,
    postcad_error_rates,
    run_trial,
)
from qcka_cad.sampling import empirical_sampling_failure
from qcka_cad.verify import (
    _sampling_bound,
    check_key_min_entropy,
    check_parity_exact,
    check_sieve_equivalence,
)

EPSILON = 1e-36
SIGNALS = 10**7  # 2N used in the evaluation figures


def _emit(num, ok, name, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name} ({detail})")


def test_criterion_1_parity_exactness():
    """All-qubit Hadamard parity is a point mass on the phase bit."""
    start = time.perf_counter()
    result = check_parity_exact()
    elapsed = time.perf_counter() - start
    worst = result.margin
    ok = result.status == "PASS" and worst <= 1e-12 and elapsed < 1.0
    _emit(1, ok, "GHZ parity exactness",
          f"max deviation {worst:.3e} <= 1e-12, runtime {elapsed:.2f}s < 1s")
    assert result.status == "PASS"
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_delayed_measurement_equivalence():
    """Direct and delayed sieve measurements produce the same records."""
    start = time.perf_counter()
    result = check_sieve_equivalence()
    elapsed = time.perf_counter() - start
    worst = result.margin
    ok = result.status == "PASS" and worst <= 1e-9 and elapsed < 60.0
    _emit(2, ok, "delayed-measurement equivalence",
          f"max TV {worst:.3e} <= 1e-9 over every state of 2-6 blocks, "
          f"runtime {elapsed:.1f}s < 60s")
    assert result.status == "PASS"
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_min_entropy_bound():
    """First-qubit min-entropy equals n - log2|parity set|, so it dominates it."""
    start = time.perf_counter()
    result = check_key_min_entropy()
    elapsed = time.perf_counter() - start
    worst = result.margin
    ok = result.status == "PASS" and worst <= 1e-9 and elapsed < 60.0
    _emit(3, ok, "restricted-superposition min-entropy",
          f"max |hmin - bound| {worst:.3e} <= 1e-9 over 659 parity sets, "
          f"runtime {elapsed:.1f}s < 60s")
    assert result.status == "PASS"
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_4_sampling_oracle():
    """Exact subset-sampling failure stays below the analytic bound."""
    start = time.perf_counter()
    rng = np.random.default_rng(40)

    exhaustive_margin = math.inf
    for n_pop, m in ((16, 4), (20, 5), (24, 6)):
        bound = _sampling_bound(n_pop, m, 0.25)
        for q in (
            BitString("01" * (n_pop // 2)),
            BitString(rng.integers(0, 2, size=n_pop, dtype=np.uint8)),
            BitString("1" * (n_pop // 2) + "0" * (n_pop - n_pop // 2)),
        ):
            exact = empirical_sampling_failure(q, m, 0.25)
            exhaustive_margin = min(exhaustive_margin, bound - exact)

    bound200 = _sampling_bound(200, 50, 0.25)
    assert bound200 == pytest.approx(0.0907, abs=1e-4)
    n200_margin = math.inf
    for q in (BitString("01" * 100), BitString(rng.integers(0, 2, size=200, dtype=np.uint8))):
        exact = empirical_sampling_failure(q, 50, 0.25)
        n200_margin = min(n200_margin, bound200 - exact)

    elapsed = time.perf_counter() - start
    ok = exhaustive_margin >= 0.0 and n200_margin >= 0.0 and elapsed < 60.0
    _emit(4, ok, "sampling failure oracle",
          f"exhaustive margin {exhaustive_margin:.3e} >= 0, "
          f"N=200 margin {n200_margin:.3e} >= 0 (bound {bound200:.4f}), "
          f"runtime {elapsed:.1f}s < 60s")
    assert exhaustive_margin >= 0.0
    assert n200_margin >= 0.0
    assert elapsed < 60.0


def _simulation_agreement(params, noise, trials):
    """3-sigma agreement of QX, acceptance and post-sieve errors with the analytics."""
    outcomes = [run_trial(params, noise, i) for i in range(trials)]
    m, n = params.test_size, params.key_blocks

    qx = analytic_qx(noise.x_error)
    mean_qx = float(np.mean([t.qx_observed for t in outcomes]))
    sigma_qx = math.sqrt(qx * (1 - qx) / (m * trials))
    qx_ok = abs(mean_qx - qx) <= 3 * sigma_qx

    pa = analytic_pa(noise.z_errors)
    mean_acc = float(np.mean([t.accepted / n for t in outcomes]))
    sigma_acc = math.sqrt(pa * (1 - pa) / (n * trials))
    acc_ok = abs(mean_acc - pa) <= 3 * sigma_acc

    # Both candidate post-sieve error formulas, with the match documented.
    ind = postcad_error_rates(noise.z_errors, "independent")
    cons = postcad_error_rates(noise.z_errors, "conservative")
    kept = sum(t.accepted for t in outcomes)
    formula_ok = True
    for j in range(params.bobs):
        mean_err = float(np.mean([t.postcad_error[j] for t in outcomes]))
        sigma = math.sqrt(ind[j] * (1 - ind[j]) / kept)
        match_ind = abs(mean_err - ind[j]) <= 3 * sigma
        match_cons = abs(mean_err - cons[j]) <= 3 * sigma
        formula_ok &= match_ind
        print(
            f"  post-sieve error, party {j + 1}: empirical {mean_err:.6f}; "
            f"per-factor conditional {ind[j]:.6f} "
            f"({'matches' if match_ind else 'DOES NOT match'} within 3 sigma); "
            f"pooled {cons[j]:.6f} "
            f"({'matches' if match_cons else 'does not match'} within 3 sigma)"
        )
    detail = (f"{trials} trials at {params.total_signals:.0e} signals: "
              f"mean QX {mean_qx:.5f} vs {qx:.5f} (3 sigma {3 * sigma_qx:.2e}), "
              f"mean acceptance {mean_acc:.6f} vs {pa:.6f} (3 sigma {3 * sigma_acc:.2e})")
    return qx_ok, acc_ok, formula_ok, detail


def test_criterion_5_simulation_agreement():
    """Monte Carlo statistics match the analytic channel model."""
    start = time.perf_counter()
    noise = NoiseModel(0.1, (0.1, 0.025))
    qx_ok, acc_ok, formula_ok, detail = _simulation_agreement(
        ProtocolParams(2, 150_000, 50_000, EPSILON, seed=50), noise, 20)
    # Paper scale: 1e7 signals at the optimised test size.
    *paper_checks, paper_detail = _simulation_agreement(
        ProtocolParams(2, SIGNALS // 2, 731_304, EPSILON, seed=51), noise, 1000)
    elapsed = time.perf_counter() - start
    ok = qx_ok and acc_ok and formula_ok and all(paper_checks) and elapsed < 120.0
    _emit(5, ok, "analytic vs Monte Carlo agreement",
          f"{detail}; {paper_detail}; "
          f"per-factor error formula matches empirics, runtime {elapsed:.1f}s < 120s")
    assert qx_ok
    assert acc_ok
    assert formula_ok
    assert all(paper_checks)
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def figure_reports():
    """Key-rate evaluations behind criteria 6 and 7 (shared to stay in budget)."""
    start = time.perf_counter()
    half = SIGNALS // 2

    symmetric = []
    for q in np.arange(0.0, 0.1601, 0.02):
        _, report = optimize_m(1, half, EPSILON, NoiseModel(float(q), (float(q),)))
        symmetric.append(report)

    _, asymmetric = optimize_m(2, half, EPSILON, NoiseModel(0.1, (0.1, 0.025)))

    sweep_n = []
    for total in np.geomspace(10**5, SIGNALS, num=9):
        n_half = int(round(total / 2))
        _, report = optimize_m(2, n_half, EPSILON, NoiseModel(0.1, (0.1, 0.025)))
        sweep_n.append(report)

    elapsed = time.perf_counter() - start
    return {"symmetric": symmetric, "asymmetric": asymmetric,
            "sweep_n": sweep_n, "elapsed": elapsed}


def test_criterion_6_figure_reproduction(figure_reports):
    """Qualitative reproduction of the evaluation figures at eps=1e-36, 1e7 signals."""
    symmetric = figure_reports["symmetric"]
    asymmetric = figure_reports["asymmetric"]
    sweep_n = figure_reports["sweep_n"]
    elapsed = figure_reports["elapsed"]

    # (a) two-party symmetric: positive at low noise, zero beyond a finite cutoff.
    rates = [r.rate for r in symmetric]
    positive_low = rates[0] > 0.0
    cutoff_idx = next((i for i, r in enumerate(rates) if r == 0.0), None)
    has_cutoff = cutoff_idx is not None and all(r == 0.0 for r in rates[cutoff_idx:])
    q_grid = [r.x_error for r in symmetric]

    # (b) asymmetric configuration stays positive.
    asym_positive = asymmetric.rate > 0.0

    # (c) signal sweep crosses from zero to positive below 1e7 signals.
    n_rates = [r.rate for r in sweep_n]
    threshold_idx = next((i for i, r in enumerate(n_rates) if r > 0.0), None)
    crossing = (
        threshold_idx is not None
        and 0 < threshold_idx  # starts at zero rate
        and 2 * sweep_n[threshold_idx].half_signals < SIGNALS
        and all(r > 0.0 for r in n_rates[threshold_idx:])
    )

    ok = positive_low and has_cutoff and asym_positive and crossing and elapsed < 30.0
    detail = (
        f"symmetric rate(Q=0)={rates[0]:.3f}, cutoff at Q*={q_grid[cutoff_idx] if has_cutoff else None}; "
        f"asymmetric rate={asymmetric.rate:.4f} > 0; "
        f"positive-rate threshold at {2 * sweep_n[threshold_idx].half_signals:.2e} signals < 1e7; "
        f"runtime {elapsed:.1f}s < 30s"
    )
    _emit(6, ok, "figure-parameter reproduction", detail)
    assert positive_low
    assert has_cutoff
    assert asym_positive
    assert crossing
    assert elapsed < 30.0


def test_criterion_7_epsilon_bookkeeping(figure_reports):
    """Failure-parameter accounting at eps = 1e-36."""
    every = figure_reports["symmetric"] + [figure_reports["asymmetric"]] + figure_reports["sweep_n"]
    # Every report carries the same eps triple; it is a function of eps alone.
    (eps_prime, eps_fail, eps_pa), = {
        (r.epsilon_prime, r.epsilon_fail, r.epsilon_pa) for r in every}
    fail_exact = eps_fail == 2e-12
    pa_close = abs(eps_pa - 2e-12) < 1e-20

    reports = [r for r in every if r.rate > 0.0]
    worst = 0.0
    for report in reports:
        # Leftover hash lemma: the extracted key lies within this of ideal.
        bound = 2.0 ** ((report.ell - report.hmin) / 2.0) + 2.0 * report.epsilon
        worst = max(worst, bound)
    pa_ok = worst <= eps_pa

    ok = fail_exact and pa_close and pa_ok
    _emit(7, ok, "epsilon bookkeeping",
          f"eps_fail == 2e-12 exactly: {fail_exact}; |eps_PA - 2e-12| < 1e-20: {pa_close}; "
          f"max extraction bound {worst:.3e} <= eps_PA over {len(reports)} positive-rate points")
    assert fail_exact
    assert pa_close
    assert pa_ok


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    """Any command repeated with the same seed writes identical bytes."""
    commands = {
        "rate": ["rate", "--p", "1", "--signals", "1e6", "--q", "0.02", "--qz", "0.02",
                 "--seed", "8"],
        "sweep-q": ["sweep-q", "--p", "1", "--signals", "1e6", "--q-min", "0",
                    "--q-max", "0.04", "--q-step", "0.02", "--seed", "8"],
        "sweep-n": ["sweep-n", "--p", "1", "--signals-min", "1e5", "--signals-max", "4e5",
                    "--points", "3", "--q", "0.02", "--qz", "0.02", "--seed", "8"],
        "simulate": ["simulate", "--p", "2", "--signals", "3e4", "--m", "5000",
                     "--q", "0.1", "--qz", "0.1,0.025", "--trials", "3", "--seed", "8"],
        "selftest": ["selftest", "--quick", "--seed", "8"],
        "selftest-full": ["selftest", "--seed", "8"],
    }
    all_ok = True
    for name, argv in commands.items():
        contents = []
        for rep in ("x", "y"):
            out_file = tmp_path / f"{name}-{rep}.out"
            code = cli_main(argv + ["--out", str(out_file)])
            capsys.readouterr()
            assert code in (0, 2)
            contents.append(out_file.read_bytes())
        same = contents[0] == contents[1]
        all_ok &= same
        assert same, f"{name} output changed between identical runs"
    _emit(8, all_ok, "deterministic outputs",
          f"{len(commands)} commands re-run with fixed seed, all byte-identical")
    assert all_ok


def test_criterion_9_counting_bound():
    """log2|B(n, k)| <= n h(k/n) for every n <= 600 and k <= n/2, in integers."""
    # That is |B(n, k)| k^k (n-k)^(n-k) <= n^n (Python's 0 ** 0 is 1); h
    # increases on [0, 1/2], so integer k covers every radius up to n/2.
    start = time.perf_counter()
    checked, violations = 0, []
    for n in range(1, 601):
        ball, binom, top = 0, 1, n**n
        for k in range(n // 2 + 1):
            ball += binom  # sum_{j <= k} C(n, j)
            binom = binom * (n - k) // (k + 1)
            checked += 1
            if ball * k**k * (n - k) ** (n - k) > top:
                violations.append((n, k))
    elapsed = time.perf_counter() - start
    ok = not violations and checked == 90_600 and elapsed < 60.0
    _emit(9, ok, "Hamming-ball counting bound",
          f"{len(violations)} violations over {checked} (n, k) with n <= 600 and k <= n/2, "
          f"runtime {elapsed:.1f}s < 60s")
    assert violations == []
    assert checked == 90_600
    assert elapsed < 60.0
