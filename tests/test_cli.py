"""Tests for the command-line front end: schemas, exit codes, reproducibility."""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import random
import sys
import weakref

import numpy as np
import pytest

from qcka_cad import cli, ghzsim, sampling, verify
from qcka_cad.cli import EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, EXIT_ZERO_RATE, REPORT_FIELDS, main, simulate_fields
from qcka_cad.protosim import NoiseModel, ProtocolParams, run_trial

GOLDEN_REPORT_HEADER = (
    "p,signals,half_signals,m,n,epsilon,q,qz,error_formula,delta,qx,pa,n_a,"
    "hmin,leak_ec,ell,rate,epsilon_prime,epsilon_fail,epsilon_pa,flags"
)

GOLDEN_SIMULATE_HEADER_P2 = (
    "trial,qx_observed,n_a,n_r,accepted_fraction,postcad_error_1,postcad_error_2,"
    "keys_equal_fraction,qx_analytic,pa_analytic,postcad_conservative_1,"
    "postcad_conservative_2,postcad_independent_1,postcad_independent_2"
)


# `selftest` stdout, byte for byte, in CSV and in JSON (whose margins keep
# every bit).  Every check is exact, so both are the same at every seed,
# with or without --quick.  The key-min-entropy and sampling-exhaustive
# margins were taken from the single-input functions over the same sets
# and weights, before the battery changed to them.
GOLDEN_SELFTEST_CSV = (
    "PASS ghz-parity-exact margin=6.661338e-16  (max deviation of the announced parity from the phase bit)\n"
    "PASS ghz-orthonormality margin=2.220446e-16  (max deviation of pairwise inner products from identity)\n"
    "PASS hadamard-expansion margin=0.000000e+00  (GHZ states failing the all-Hadamard expansion identity)\n"
    "PASS sieve-equivalence margin=0.000000e+00  (max TV distance over every state: direct and delayed cell maps equal entry for entry at 2/3/4/6 blocks)\n"
    "PASS key-min-entropy margin=8.881784e-16  (max |hmin - bound| over all 546 parity sets at n <= 3 and 113 at n = 4)\n"
    "PASS sampling-exhaustive margin=3.973168e-01  (min (bound - exact failure probability) over every weight at N=16/20/24; 8.888746e-02 at N=200, m=50, delta=0.25)\n"
    "PASS sampling-roundtrip margin=1.714360e-16  (max relative log-space error of the delta inverse)\n"
)

GOLDEN_SELFTEST_JSON = """\
[
  {
    "name": "ghz-parity-exact",
    "status": "PASS",
    "margin": 6.661338147750939e-16,
    "detail": "max deviation of the announced parity from the phase bit"
  },
  {
    "name": "ghz-orthonormality",
    "status": "PASS",
    "margin": 2.220446049250313e-16,
    "detail": "max deviation of pairwise inner products from identity"
  },
  {
    "name": "hadamard-expansion",
    "status": "PASS",
    "margin": 0.0,
    "detail": "GHZ states failing the all-Hadamard expansion identity"
  },
  {
    "name": "sieve-equivalence",
    "status": "PASS",
    "margin": 0.0,
    "detail": "max TV distance over every state: direct and delayed cell maps equal entry for entry at 2/3/4/6 blocks"
  },
  {
    "name": "key-min-entropy",
    "status": "PASS",
    "margin": 8.881784197001252e-16,
    "detail": "max |hmin - bound| over all 546 parity sets at n <= 3 and 113 at n = 4"
  },
  {
    "name": "sampling-exhaustive",
    "status": "PASS",
    "margin": 0.39731682146542824,
    "detail": "min (bound - exact failure probability) over every weight at N=16/20/24; 8.888746e-02 at N=200, m=50, delta=0.25"
  },
  {
    "name": "sampling-roundtrip",
    "status": "PASS",
    "margin": 1.7143599405391772e-16,
    "detail": "max relative log-space error of the delta inverse"
  }
]
"""

SELFTEST_SEEDS = ("0", "1", "3", "8", "77", "12345")


# `rate` and `sweep-n` stdout, byte for byte: the README examples, a fixed
# test size under the independent error formula, and a zero-rate run.
GOLDEN_RATE_README_CSV = """\
p,signals,half_signals,m,n,epsilon,q,qz,error_formula,delta,qx,pa,n_a,hmin,leak_ec,ell,rate,epsilon_prime,epsilon_fail,epsilon_pa,flags
2,10000000,5000000,731304,4268696,1e-36,0.1,"0.1,0.025",conservative,0.015087983446,0.18,0.780025,3329690,627832.655986,329616.125553,297977.35161,0.029797735161,2e-12,2e-12,2e-12,
"""

GOLDEN_RATE_README_JSON = """\
{
  "p": 2,
  "signals": 10000000,
  "half_signals": 5000000,
  "m": 731304,
  "n": 4268696,
  "epsilon": 1e-36,
  "q": 0.1,
  "qz": [
    0.1,
    0.025
  ],
  "error_formula": "conservative",
  "delta": 0.015087983446014228,
  "qx": 0.18000000000000002,
  "pa": 0.780025,
  "n_a": 3329690,
  "hmin": 627832.6559859458,
  "leak_ec": 329616.125552812,
  "ell": 297977.35161030194,
  "rate": 0.029797735161030195,
  "epsilon_prime": 2e-12,
  "epsilon_fail": 2e-12,
  "epsilon_pa": 2e-12,
  "flags": ""
}
"""

GOLDEN_SWEEP_N_README_CSV = """\
p,signals,half_signals,m,n,epsilon,q,qz,error_formula,delta,qx,pa,n_a,hmin,leak_ec,ell,rate,epsilon_prime,epsilon_fail,epsilon_pa,flags
2,100000,50000,278,49722,1e-36,0.1,"0.1,0.025",conservative,0.773867083393,0.18,0.780025,38784,0,3959.51909547,-4198.6979183,0,2e-12,2e-12,2e-12,no positive rate
2,135936,67968,329,67639,1e-36,0.1,"0.1,0.025",conservative,0.711358503042,0.18,0.780025,52760,0,5342.53542345,-5581.71424629,0,2e-12,2e-12,2e-12,no positive rate
2,184784,92392,38954,53438,1e-36,0.1,"0.1,0.025",conservative,0.0653745567104,0.18,0.780025,41683,4235.77203999,4246.39404788,-249.80083072,0,2e-12,2e-12,2e-12,
2,251188,125594,62776,62818,1e-36,0.1,"0.1,0.025",conservative,0.0514975685741,0.18,0.780025,49000,6011.37089905,4970.45890705,801.733169166,0.00319176540745,2e-12,2e-12,2e-12,
2,341454,170727,85238,85489,1e-36,0.1,"0.1,0.025",conservative,0.0441942740843,0.18,0.780025,66684,8978.21573188,6720.40601238,2018.63089667,0.00591186776747,2e-12,2e-12,2e-12,
2,464158,232079,104117,127962,1e-36,0.1,"0.1,0.025",conservative,0.0399872128867,0.18,0.780025,99814,14154.1413435,9998.83553055,3916.12699012,0.00843705589503,2e-12,2e-12,2e-12,
2,630958,315479,125592,189887,1e-36,0.1,"0.1,0.025",conservative,0.0364083061891,0.18,0.780025,148117,21930.9610649,14778.7323315,6913.04991059,0.0109564343595,2e-12,2e-12,2e-12,
2,857696,428848,151056,277792,1e-36,0.1,"0.1,0.025",conservative,0.0331980144046,0.18,0.780025,216685,33328.1626254,21563.9830168,11525.0007858,0.013437162801,2e-12,2e-12,2e-12,
2,1165914,582957,183723,399234,1e-36,0.1,"0.1,0.025",conservative,0.0301022575572,0.18,0.780025,311413,49659.6556965,30937.9362736,18482.5406001,0.0158524047229,2e-12,2e-12,2e-12,
2,1584894,792447,223221,569226,1e-36,0.1,"0.1,0.025",conservative,0.027309459816,0.18,0.780025,444011,73114.0103658,44059.3729548,28815.4585882,0.018181315967,2e-12,2e-12,2e-12,
2,2154434,1077217,270933,806284,1e-36,0.1,"0.1,0.025",conservative,0.0247884594253,0.18,0.780025,628922,106566.897045,62357.5220836,43970.1961387,0.0204091636776,2e-12,2e-12,2e-12,
2,2928644,1464322,328828,1135494,1e-36,0.1,"0.1,0.025",conservative,0.0225006978384,0.18,0.780025,885714,153977.773674,87768.7648494,65969.8300023,0.022525725217,2e-12,2e-12,2e-12,
2,3981072,1990536,402231,1588305,1e-36,0.1,"0.1,0.025",conservative,0.0203442898786,0.18,0.780025,1238918,220594.959739,122720.603652,97635.177264,0.0245248458867,2e-12,2e-12,2e-12,
2,5411696,2705848,489763,2216085,1e-36,0.1,"0.1,0.025",conservative,0.0184368728567,0.18,0.780025,1728602,314303.506981,171178.028348,142886.29981,0.0264032384321,2e-12,2e-12,2e-12,
2,7356422,3678211,598791,3079420,1e-36,0.1,"0.1,0.025",conservative,0.0166741065541,0.18,0.780025,2402025,445216.578912,237817.625131,207159.774958,0.0281603984869,2e-12,2e-12,2e-12,
2,10000000,5000000,731304,4268696,1e-36,0.1,"0.1,0.025",conservative,0.015087983446,0.18,0.780025,3329690,627832.655986,329616.125553,297977.35161,0.029797735161,2e-12,2e-12,2e-12,
"""

GOLDEN_RATE_FIXED_M_INDEPENDENT_JSON = """\
{
  "p": 2,
  "signals": 300000,
  "half_signals": 150000,
  "m": 50000,
  "n": 100000,
  "epsilon": 1e-36,
  "q": 0.1,
  "qz": [
    0.1,
    0.025
  ],
  "error_formula": "independent",
  "delta": 0.05770294508944633,
  "qx": 0.18000000000000002,
  "pa": 0.780025,
  "n_a": 78002,
  "hmin": 8813.636326902835,
  "leak_ec": 7533.1246082512425,
  "ell": 1041.3328958197026,
  "rate": 0.0034711096527323417,
  "epsilon_prime": 2e-12,
  "epsilon_fail": 2e-12,
  "epsilon_pa": 2e-12,
  "flags": ""
}
"""

GOLDEN_RATE_ZERO_CSV = """\
p,signals,half_signals,m,n,epsilon,q,qz,error_formula,delta,qx,pa,n_a,hmin,leak_ec,ell,rate,epsilon_prime,epsilon_fail,epsilon_pa,flags
1,10000,5000,99,4901,1e-36,0.2,0.2,conservative,1.29702793746,0.32,0.68,3333,0,1196.33835542,-1435.51717825,0,2e-12,2e-12,2e-12,no positive rate
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--signals", "1e6", "--q", "0", "--qz", "0", "--nope")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "rate")
        assert code == EXIT_USAGE

    def test_odd_signal_count(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--signals", "101", "--q", "0", "--qz", "0")
        assert code == EXIT_USAGE
        assert "even" in err

    @pytest.mark.parametrize("argv", [
        ("rate", "--signals", "1e400", "--q", "0", "--qz", "0"),
        ("rate", "--signals", "inf", "--q", "0", "--qz", "0"),
        ("rate", "--signals", "1e6", "--q", "0", "--qz", "0", "--m", "1e400"),
        ("simulate", "--signals", "1e4", "--m", "100", "--q", "0", "--qz", "0",
         "--trials", "inf"),
    ])
    def test_non_finite_integers_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("rate", "--signals", "1e20", "--q", "0", "--qz", "0"),
        ("sweep-n", "--signals-min", "1e4", "--signals-max", "1e6", "--points", "1e9",
         "--q", "0", "--qz", "0"),
        ("sweep-q", "--signals", "1e6", "--q-max", "1e9", "--q-step", "1e-9", "--qz", "0"),
        ("simulate", "--signals", "1e20", "--m", "10", "--q", "0.1", "--qz", "0.1"),
        ("rate", "--signals", "1e6", "--q", "0.01", "--qz", "0.01", "--p", "1e9"),
        ("rate", "--signals", "1e6", "--q", "0.01", "--qz", "0.01", "--p", "1001"),
        ("rate", "--signals", "1e6", "--q", "0.01", "--qz", "0.01", "--p", "-1"),
        ("simulate", "--signals", "1e4", "--m", "100", "--q", "0", "--qz", "0",
         "--trials", "1e9"),
        ("simulate", "--signals", "1e4", "--m", "100", "--q", "0", "--qz", "0",
         "--p", "2", "--trials", "500001"),
        # m * N past the float range, in the sampling deviation.
        ("rate", "--signals", "1e200", "--m", "1e150", "--q", "0.05", "--qz", "0.05"),
        ("sweep-q", "--signals", "1e300", "--q-max", "0.02", "--m", "1e200", "--qz", "0.01"),
        ("sweep-n", "--signals-min", "1e300", "--signals-max", "1e301", "--points", "2",
         "--m", "1e200", "--q", "0.05", "--qz", "0.05"),
    ])
    def test_unbounded_sizes_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seeded_extreme_argvs_end_in_an_exit_code(self, capsys):
        # Every input ends in exit 0-3 with at most one stderr line.  A large
        # --m goes with a large signal count on purpose: random draws pair
        # them only about once in 4,000 argvs.
        extremes = ["0", "-1", "nan", "inf", "5e-324", "1e19", "1e200", "1e308"]
        typical = {
            "--signals": ["1e4", "1e6", "1e7"], "--signals-min": ["1e4", "1e5"],
            "--signals-max": ["1e6", "1e7"], "--m": ["10", "1000", "1e5"],
            "--q": ["0.02", "0.05", "0.5"], "--qz": ["0.02", "0.01,0.05", "0.5"],
            "--q-min": ["0", "0.01"], "--q-max": ["0.02", "0.1"], "--q-step": ["0.01", "0.05"],
            "--qz-factors": ["1", "0.5,2"], "--p": ["1", "2", "3"], "--epsilon": ["1e-36", "0.5"],
            "--points": ["1", "4"], "--trials": ["1", "2"],
        }
        flags = {
            "rate": ("--signals", "--m", "--q", "--qz", "--p", "--epsilon"),
            "sweep-q": ("--signals", "--m", "--q-min", "--q-max", "--q-step", "--qz",
                        "--qz-factors", "--p", "--epsilon"),
            "sweep-n": ("--signals-min", "--signals-max", "--points", "--m", "--q", "--qz",
                        "--p", "--epsilon"),
            "simulate": ("--signals", "--m", "--q", "--qz", "--p", "--epsilon", "--trials"),
        }
        rng = random.Random(25)
        codes = set()
        for _ in range(300):
            command = rng.choice(sorted(flags))
            argv = [command, "--format", rng.choice(["csv", "json"])]
            for flag in flags[command]:
                if rng.random() < 0.9:
                    argv += [flag, rng.choice(extremes if rng.random() < 0.15 else typical[flag])]
            if command != "simulate" and rng.random() < 0.25:
                signals = "--signals-max" if command == "sweep-n" else "--signals"
                argv += [signals, rng.choice(["1e200", "1e300", "1e308"]),
                         "--m", rng.choice(["1e150", "1e200"])]
            code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_ZERO_RATE, EXIT_SELFTEST), argv
            assert err.count("\n") <= 1, argv
            codes.add(code)
        assert codes == {EXIT_OK, EXIT_USAGE, EXIT_ZERO_RATE}

    @pytest.mark.parametrize("argv", [
        ("rate", "--signals", "1e7", "--q", "0.05", "--qz", "0.05"),
        ("sweep-q", "--signals", "1e7", "--q-max", "0.02"),
        ("sweep-n", "--signals-min", "1e6", "--signals-max", "1e7", "--points", "3",
         "--q", "0.05", "--qz", "0.05"),
        ("simulate", "--signals", "1e6", "--q", "0.05", "--qz", "0.05"),
    ])
    def test_subnormal_epsilon_rejected(self, capsys, argv):
        # 2 log2(1/epsilon) overflows below the smallest normal float.
        for eps in ("1e-320", "5e-324", "1e-308"):
            code, out, err = run_cli(capsys, *argv, "--epsilon", eps, "--format", "json")
            assert code == EXIT_USAGE
            assert out == ""
            assert err == "error: epsilon must lie in [2.2250738585072014e-308, 1)\n"
        code, out, _ = run_cli(capsys, *argv, "--epsilon", repr(sys.float_info.min),
                               "--format", "json")
        assert code in (EXIT_OK, EXIT_ZERO_RATE)
        assert "Infinity" not in out

    def test_unwritable_out_writes_nothing(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rate", "--signals", "1e6", "--q", "0.02", "--qz", "0.02",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("rate", "--signals", "1e6", "--q", "0.02", "--qz", "0.02"),
        ("sweep-q", "--signals", "1e6", "--q-max", "0.02"),
        ("sweep-n", "--signals-min", "1e5", "--signals-max", "1e6", "--q", "0.02", "--qz", "0.02"),
        ("simulate", "--signals", "1e4", "--m", "100", "--q", "0.02", "--qz", "0.02"),
        ("selftest", "--quick"),
    ])
    def test_negative_seed_rejected(self, capsys, tmp_path, argv):
        message = "argument --seed: seed must be a non-negative integer, got -1\n"
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: " + message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {cfg}:1: " + message)

    @pytest.mark.parametrize("argv, message", [
        (("rate", "--signals", "1e6", "--q", "0.1", "--qz", "0.1", "--p", "two"),
         "argument --bobs/--p/-p: expected an integer, got two"),
        (("rate", "--signals", "1e6", "--q", "0.1", "--qz", "0.1", "--m", "1e3x"),
         "argument --m: expected an integer, got 1e3x"),
        (("rate", "--signals", "x", "--q", "0.1", "--qz", "0.1"),
         "argument --signals: signals must be a positive integer, got x"),
        (("sweep-n", "--signals-min", "1e4", "--signals-max", "1e6", "--points", "nan",
          "--q", "0", "--qz", "0"), "argument --points: expected an integer, got nan"),
        (("selftest", "--seed", "1.5"), "argument --seed: expected an integer, got 1.5"),
        (("rate", "--signals", "1e6", "--q", "0.1", "--qz", "two"),
         "argument --qz: expected a comma list of numbers, got two"),
        (("sweep-q", "--signals", "1e6", "--q-max", "0.04", "--qz-factors", "1,x"),
         "argument --qz-factors: expected a comma list of numbers, got 1,x"),
        (("sweep-n", "--signals-min", "1e4", "--signals-max", "1e6", "--q", "0", "--qz", ","),
         "argument --qz: expected a comma list of numbers, got ,"),
        # An infinite step would make the first grid point 0 * inf = nan.
        (("sweep-q", "--signals", "1e6", "--q-max", "0.1", "--q-step", "inf", "--qz", "0"),
         "need q-min <= q-max and a positive q-step"),
    ], ids=["p", "m", "signals", "points", "seed", "qz", "qz-factors", "qz-empty", "q-step-inf"])
    def test_non_number_wording(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_odd_count_past_float_precision_rejected(self, capsys):
        # 2**53 + 1 is odd; a float parse would round it to the even 2**53.
        code, out, err = run_cli(capsys, "rate", "--signals", "9007199254740993",
                                 "--q", "0.01", "--qz", "0.01")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: argument --signals: signals must be even (two-round blocks)\n"
        code, out, _ = run_cli(capsys, "rate", "--signals", "9007199254740994",
                               "--q", "0.01", "--qz", "0.01", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["signals"] == 2**53 + 2

    @pytest.mark.parametrize("text, value", [
        ("12", 12), ("+7", 7), ("-0", 0), ("1e6", 10**6), ("1E13", 10**13), ("2.5e3", 2500),
        (".2e7", 2 * 10**6), ("1.", 1), ("1_000", 1000), (" 8 ", 8), ("0e999999999", 0),
        ("120e-1", 12), ("1e30", 10**30), ("99999999999999999999999999999", 10**29 - 1),
    ])
    def test_integer_values_are_exact(self, text, value):
        assert cli._parse_int(text) == value
        assert type(cli._parse_int(text)) is int

    @pytest.mark.parametrize("text", [
        "1.5", "1e-1", "1e-999999999", "125e-2", "1e400", "inf", "-inf", "nan", "", "e5",
        "1e", "0x10", "1__0", "two",
    ])
    def test_non_integers_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="expected an integer"):
            cli._parse_int(text)

    def test_exponent_seed_is_exact(self, capsys):
        outputs = {}
        for seed in ("1e30", "1000000000000000000000000000000",
                     str(int(float("1e30")))):  # the seed a float parse would run
            code, outputs[seed], _ = run_cli(capsys, "simulate", "--p", "1", "--signals", "1e4",
                                             "--m", "2000", "--q", "0.1", "--qz", "0.1",
                                             "--trials", "2", "--seed", seed)
            assert code == EXIT_OK
        first, second, rounded = outputs.values()
        assert first == second != rounded

    @pytest.mark.parametrize("argv, line, message", [
        (("rate", "--p", "3", "--signals", "1e6", "--q", "0.1", "--qz", "0.1,0.2"), "",
         "--qz needs 1 or 3 values, got 2"),
        (("sweep-q", "--signals", "1e6", "--q-max", "0.04", "--qz-factors", "1,0.25"), "",
         "--qz-factors needs 1 or 1 values, got 2"),
        (("rate", "--signals", "1e6", "--q", "0.1", "--qz", "0.1,0.2"), "p = 3",
         "--qz needs 1 or 3 values, got 2"),
        (("sweep-q", "--p", "2", "--signals", "1e6", "--q-max", "0.04"), "qz_factors = 1,2,3",
         "--qz-factors needs 1 or 2 values, got 3"),
    ])
    def test_rate_list_length_checked_after_config(self, capsys, tmp_path, argv, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_qz_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--p", "3", "--signals", "1e6", "--q", "0.1", "--qz", "0.1,0.2"
        )
        assert code == EXIT_USAGE


class TestRate:
    def test_golden_header_and_positive_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.0", "--qz", "0.0"
        )
        assert code == EXIT_OK
        header, row = out.strip().split("\n")
        assert header == GOLDEN_REPORT_HEADER
        record = dict(zip(header.split(","), next(csv.reader(io.StringIO(row)))))
        assert float(record["rate"]) > 0.0

    def test_zero_rate_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.5", "--qz", "0.25"
        )
        assert code == EXIT_ZERO_RATE
        row = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert float(row["rate"]) == 0.0

    def test_json_mirrors_csv_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "2", "--signals", "1e6", "--q", "0.05",
            "--qz", "0.05,0.0125", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload.keys()) == REPORT_FIELDS

    def test_fixed_m_respected(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.0",
            "--qz", "0.0", "--m", "123456",
        )
        record = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert record["m"] == "123456"

    def test_single_qz_broadcasts(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "3", "--signals", "1e6", "--q", "0.02", "--qz", "0.02"
        )
        record = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert record["qz"] == "0.02,0.02,0.02"

    def test_single_qz_broadcasts_to_the_configured_p(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 3\n")
        code, out, _ = run_cli(capsys, "rate", "--signals", "1e6", "--q", "0.02",
                               "--qz", "0.02", "--config", str(cfg))
        record = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert (code, record["p"], record["qz"]) == (EXIT_OK, "3", "0.02,0.02,0.02")


README_RATE_ARGV = ("rate", "--p", "2", "--signals", "1e7", "--q", "0.1", "--qz", "0.1,0.025")


class TestRatePathStdoutIsPinned:
    @pytest.mark.parametrize("argv, code, stdout", [
        (README_RATE_ARGV, EXIT_OK, GOLDEN_RATE_README_CSV),
        (README_RATE_ARGV + ("--format", "json"), EXIT_OK, GOLDEN_RATE_README_JSON),
        (("sweep-n", "--p", "2", "--signals-min", "1e5", "--signals-max", "1e7",
          "--q", "0.1", "--qz", "0.1,0.025"), EXIT_OK, GOLDEN_SWEEP_N_README_CSV),
        (("rate", "--p", "2", "--signals", "3e5", "--m", "50000", "--q", "0.1",
          "--qz", "0.1,0.025", "--error-formula", "independent", "--format", "json"),
         EXIT_OK, GOLDEN_RATE_FIXED_M_INDEPENDENT_JSON),
        (("rate", "--p", "1", "--signals", "1e4", "--q", "0.2", "--qz", "0.2"),
         EXIT_ZERO_RATE, GOLDEN_RATE_ZERO_CSV),
    ], ids=["rate-csv", "rate-json", "sweep-n-csv", "fixed-m-independent-json", "zero-rate-csv"])
    def test_stdout_and_exit_code(self, capsys, argv, code, stdout):
        assert run_cli(capsys, *argv) == (code, stdout, "")


class TestSweepQ:
    def test_rate_peaks_at_zero_noise(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-q", "--p", "1", "--signals", "1e6",
            "--q-min", "0.0", "--q-max", "0.1", "--q-step", "0.02",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        rates = [float(r["rate"]) for r in rows]
        assert len(rows) == 6
        assert rates[0] == max(rates)
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_scaled_z_noise(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-q", "--p", "2", "--signals", "1e6",
            "--q-min", "0.08", "--q-max", "0.08", "--q-step", "0.01",
            "--qz-factors", "1,0.25",
        )
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["qz"] == "0.08,0.02"

    @pytest.mark.parametrize("argv", [
        # 0.058 + 13 * 0.034 and 0.085 + 9 * 0.035 each land an ulp past q-max:
        # Q itself past 0.5, or a QZ of 1.25 * Q past 0.5.
        ("--q-min", "0.058", "--q-max", "0.5", "--q-step", "0.034", "--qz", "0.01"),
        ("--q-min", "0.085", "--q-max", "0.4", "--q-step", "0.035", "--qz-factors", "1.25"),
    ])
    def test_last_point_clamped_to_q_max(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep-q", "--signals", "1e7", *argv)
        assert (code, err) == (EXIT_OK, "")
        last = list(csv.DictReader(io.StringIO(out)))[-1]
        assert last["q"] == argv[3]
        assert all(float(z) <= 0.5 for z in last["qz"].split(","))


class TestSweepN:
    def test_rates_nondecreasing_in_signals(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-n", "--p", "1", "--signals-min", "1e5",
            "--signals-max", "1e6", "--points", "5", "--q", "0.05", "--qz", "0.05",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        rates = [float(r["rate"]) for r in rows]
        signals = [int(r["signals"]) for r in rows]
        assert signals == sorted(signals)
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    # Above 2**53 a float grid end falls off the flag value; the rows stay
    # inside [signals-min, signals-max], exactly.
    @pytest.mark.parametrize("lo, hi, points, totals", [
        ("1e3", "18014398509481990", "2", [1000, 18014398509481990]),
        ("18014398509481990", "18014398509481990", "3", [18014398509481990]),
    ])
    def test_rows_stay_inside_the_range(self, capsys, lo, hi, points, totals):
        code, out, err = run_cli(capsys, "sweep-n", "--signals-min", lo, "--signals-max", hi,
                                 "--points", points, "--q", "0.05", "--qz", "0.05")
        assert (code, err) == (EXIT_OK, "")
        assert [int(r["signals"]) for r in csv.DictReader(io.StringIO(out))] == totals

    def test_past_float_range_end_is_the_flag_value(self, capsys):
        code, out, err = run_cli(capsys, "sweep-n", "--signals-min", "1e3", "--signals-max",
                                 "1e30", "--points", "2", "--q", "0.05", "--qz", "0.05")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: half_signals 500000000000000000000000000000 too large "
                       "for the test-size grid\n")


class TestJsonShape:
    """``rate`` prints one object; a sweep prints a list, even of one row."""

    @pytest.mark.parametrize("argv, kind", [
        (("rate", "--signals", "1e6", "--q", "0.05", "--qz", "0.05"), dict),
        (("sweep-q", "--signals", "1e6", "--q-min", "0.05", "--q-max", "0.05",
          "--qz-factors", "1"), list),
        (("sweep-n", "--signals-min", "1e6", "--signals-max", "1e6", "--points", "3",
          "--q", "0.05", "--qz", "0.05"), list),
    ], ids=["rate", "sweep-q", "sweep-n"])
    def test_one_row(self, capsys, argv, kind):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert (code, type(payload)) == (EXIT_OK, kind)
        record = payload if kind is dict else payload[0]
        assert (list(record), record["signals"]) == (REPORT_FIELDS, 1_000_000)
        assert kind is dict or len(payload) == 1


class TestSimulate:
    def test_golden_header_and_footer(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "2", "--signals", "3e4", "--m", "5000",
            "--q", "0.1", "--qz", "0.1,0.025", "--trials", "3", "--seed", "4",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == GOLDEN_SIMULATE_HEADER_P2
        assert simulate_fields(2) == lines[0].split(",")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "mean", "std", "stderr"]

    def test_noiseless_keys_always_equal(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--p", "2", "--signals", "3e4", "--m", "5000",
            "--q", "0.0", "--qz", "0.0", "--trials", "2",
        )
        for row in list(csv.DictReader(io.StringIO(out)))[:2]:
            assert float(row["keys_equal_fraction"]) == 1.0
            assert row["n_r"] == "0"

    def test_nan_fields_serialize_as_null(self, capsys):
        # At QZ = 1/2 a 3-block register loses every block to the sieve with
        # probability 1/8; at the first seed where trial 0 does, the
        # error-rate fields are undefined.
        noise = NoiseModel(0.0, (0.5,))
        seed = next(s for s in range(64)
                    if run_trial(ProtocolParams(1, 5, 2, 1e-36, seed=s), noise).accepted == 0)
        _, out, _ = run_cli(
            capsys, "simulate", "--p", "1", "--signals", "10", "--m", "2",
            "--q", "0.0", "--qz", "0.5", "--trials", "1", "--seed", str(seed),
            "--format", "json",
        )
        assert "NaN" not in out  # bare NaN is not valid JSON
        payload = json.loads(out)
        assert payload["trials"][0]["n_a"] == 0
        assert payload["trials"][0]["postcad_error_1"] is None
        assert payload["trials"][0]["keys_equal_fraction"] is None

    def test_signal_count_past_memory_scale(self, capsys):
        # A per-bit simulation of 5e12 key blocks would need terabytes.
        code, out, err = run_cli(
            capsys, "simulate", "--signals", "1e13", "--m", "10", "--q", "0.1", "--qz", "0.1",
        )
        assert code == EXIT_OK
        assert err == ""
        row = next(csv.DictReader(io.StringIO(out)))
        assert int(row["n_a"]) + int(row["n_r"]) == 5 * 10**12 - 10

    def test_json_structure(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--p", "1", "--signals", "1e4", "--m", "2000",
            "--q", "0.1", "--qz", "0.1", "--trials", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert set(payload) == {"config", "trials", "aggregate"}
        assert len(payload["trials"]) == 2
        assert payload["aggregate"]["qx_observed"]["stderr"] is not None


class TestSelftest:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(item["status"] == "PASS" for item in payload)
        assert all(type(item["margin"]) is float for item in payload)

    @staticmethod
    def _runs(capsys, seeds, *argv) -> set:
        """Exit code and output of ``selftest`` at each seed."""
        return {run_cli(capsys, "selftest", "--seed", seed, *argv) for seed in seeds}

    # Together these pin both formats at every seed of SELFTEST_SEEDS, with
    # and without --quick.
    def test_full_csv_stdout_is_pinned(self, capsys):
        for quick in ((), ("--quick",)):
            runs = self._runs(capsys, SELFTEST_SEEDS, *quick)
            assert runs == {(EXIT_OK, GOLDEN_SELFTEST_CSV, "")}

    def test_full_json_stdout_is_pinned(self, capsys):
        runs = self._runs(capsys, ("0", "8", "12345"), "--format", "json")
        assert runs == {(EXIT_OK, GOLDEN_SELFTEST_JSON, "")}

    def test_quick_json_stdout_is_pinned(self, capsys):
        runs = self._runs(capsys, SELFTEST_SEEDS, "--quick", "--format", "json")
        assert runs == {(EXIT_OK, GOLDEN_SELFTEST_JSON, "")}

    @pytest.mark.parametrize("seed", ["1", "3", "77"])
    def test_full_json_stdout_is_pinned_at_more_seeds(self, capsys, seed):
        argv = ("selftest", "--seed", seed, "--format", "json")
        assert run_cli(capsys, *argv) == (EXIT_OK, GOLDEN_SELFTEST_JSON, "")

    def test_sieve_line_ignores_seed_and_quick(self, capsys):
        # The sieve check compares two fixed maps, so it draws nothing.
        sieve = GOLDEN_SELFTEST_CSV.splitlines()[3]
        for argv in (("--seed", "1"), ("--seed", "77", "--quick"), ("--quick",)):
            code, out, _ = run_cli(capsys, "selftest", *argv)
            assert (code, out.splitlines()[3]) == (EXIT_OK, sieve)

    def test_battery_draws_nothing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the battery drew from a random stream")

        for name in ("SeedSequence", "Generator", "Philox", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        assert run_cli(capsys, "selftest", "--seed", "5") == (EXIT_OK, GOLDEN_SELFTEST_CSV, "")

    # Each id names the single-input function whose fact the check decides;
    # the sieve check compares the delayed order's cell map with the direct one.
    @pytest.mark.parametrize("target, check", [
        pytest.param("_delayed_cells", "sieve-equivalence",
                     id="cad_delayed_measurement_equivalence-sieve-equivalence"),
        pytest.param("key_min_entropy_checks", "key-min-entropy",
                     id="key_min_entropy_check-key-min-entropy"),
    ])
    def test_raising_check_fails_the_battery(self, capsys, monkeypatch, target, check):
        original = getattr(ghzsim, target)

        def raise_on_two(first, *args):  # 2 blocks or n == 2
            if first == 2:
                raise ValueError("state not normalized")
            return original(first, *args)

        monkeypatch.setattr(ghzsim, target, raise_on_two)
        code, out, err = run_cli(capsys, "selftest", "--quick")
        assert code == EXIT_SELFTEST
        assert out == ""
        assert err == f"error: check {check} raised ValueError: state not normalized\n"

    @pytest.mark.parametrize("target, nan_kernel, check, margin", [
        # A NaN entry equals no source, so the maps differ: TV 1.
        ("_delayed_cells", lambda blocks: np.full((1 << blocks,) * 2, math.nan),
         "sieve-equivalence", "1.000000e+00"),
        ("key_min_entropy_checks",
         lambda n, p, word_sets: [(math.nan, 0.0) for _ in word_sets], "key-min-entropy", "nan"),
    ], ids=["sieve-equivalence", "key-min-entropy"])
    def test_nan_kernel_fails_the_battery(self, capsys, monkeypatch, target, nan_kernel, check,
                                          margin):
        # Python's max and min skip a NaN: max(0.0, nan) is 0.0.
        monkeypatch.setattr(ghzsim, target, nan_kernel)
        code, out, err = run_cli(capsys, "selftest", "--quick")
        assert code == EXIT_SELFTEST
        assert err == ""
        failed = [line for line in out.splitlines() if not line.startswith("PASS")]
        assert len(failed) == 1 and failed[0].startswith(f"FAIL {check} margin={margin}  (")

    # The GHZ checks run the batched kernels on stacked GHZ families.
    @pytest.mark.parametrize("module, target, nan_kernel, run_check", [
        (ghzsim, "x_basis_parity_distributions",
         lambda states: np.full((len(states), 2), np.nan),
         lambda: verify.check_parity_exact()),
        (ghzsim, "ghz_states",
         lambda p, words, ys: np.full((len(words), 2 ** (p + 1)), np.nan),
         lambda: verify.check_orthonormality()),
        (sampling, "empirical_sampling_failure", lambda q, m, delta: math.nan,
         lambda: verify.check_sampling_exhaustive()),
        (sampling, "sampling_failure_log", lambda n_pop, m, delta: math.nan,
         lambda: verify.check_sampling_roundtrip()),
    ], ids=["parity", "orthonormality", "sampling-exhaustive", "sampling-roundtrip"])
    def test_nan_value_fails_its_check(self, monkeypatch, module, target, nan_kernel, run_check):
        monkeypatch.setattr(module, target, nan_kernel)
        result = run_check()
        assert result.status == "FAIL"
        assert math.isnan(result.margin)

    def test_fold_keeps_the_first_of_tied_zeros(self):
        rng = np.random.default_rng(4)
        mixed = np.where(rng.random(1000) < 0.5, -0.0, 0.0)
        for worst, values in ((0.0, [-0.0]), (-0.0, [0.0]), (math.inf, [0.0, -0.0]),
                              (math.inf, [-0.0, 0.0]), (0.0, mixed), (-0.0, mixed)):
            for pick, fold in ((np.argmax, max), (np.argmin, min)):
                got, expect = verify._fold(pick, worst, values), fold([worst, *values])
                assert (got, math.copysign(1.0, got)) == (expect, math.copysign(1.0, expect))
        assert math.isnan(verify._fold(np.argmin, 1.0, [0.5, math.nan, -1.0]))
        assert math.isnan(verify._fold(np.argmax, math.nan, mixed))


class TestReproducibility:
    def test_simulate_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "simulate", "--p", "2", "--signals", "3e4", "--m", "5000",
                "--q", "0.1", "--qz", "0.1,0.025", "--trials", "3", "--seed", "11",
                "--out", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "rate.csv"
        _, out, _ = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.02",
            "--qz", "0.02", "--out", str(path),
        )
        assert path.read_text() == out

    def test_different_seed_changes_simulation(self, capsys, tmp_path):
        outputs = []
        for seed in ("1", "2"):
            _, out, _ = run_cli(
                capsys, "simulate", "--p", "1", "--signals", "1e4", "--m", "2000",
                "--q", "0.1", "--qz", "0.1", "--trials", "1", "--seed", seed,
            )
            outputs.append(out)
        assert outputs[0] != outputs[1]


RATE_ARGV = ("rate", "--p", "1", "--signals", "1e6", "--q", "0.1", "--qz", "0.1")


class TestParserGarbage:
    """A call's parser, cyclic garbage once parsed, dies in the youngest generation."""

    def test_no_collection_outlives_the_parser(self, capsys, monkeypatch):
        refs, survived = [], []
        init = cli._Parser.__init__

        def tracked_init(self, *args, **kwargs):  # the top parser and each command's
            init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        def watch(phase, info):
            if phase == "stop" and any(ref() is not None for ref in refs):
                survived.append(info["generation"])

        monkeypatch.setattr(cli._Parser, "__init__", tracked_init)
        threshold = gc.get_threshold()
        gc.set_threshold(1, 1, 1)  # collect at almost every allocation
        gc.callbacks.append(watch)
        try:
            code, _, _ = run_cli(capsys, *RATE_ARGV)
        finally:
            gc.callbacks.remove(watch)
            gc.set_threshold(*threshold)
        assert code == EXIT_OK and len(refs) == 6 and all(ref() is None for ref in refs)
        assert survived == []  # so it was never promoted out of the youngest generation

    @pytest.mark.parametrize("argv", [RATE_ARGV, ("rate", "--nope"), ("rate", "--help")])
    def test_collector_left_as_found(self, capsys, argv):
        enabled = gc.isenabled()
        try:
            for state in (False, True):
                (gc.enable if state else gc.disable)()
                with contextlib.suppress(SystemExit):
                    main(list(argv))
                assert gc.isenabled() == state
        finally:
            (gc.enable if enabled else gc.disable)()
        capsys.readouterr()


class TestConfigFile:
    def test_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# point overrides\nq = 0.05\nm = 100000\n")
        _, out, _ = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.4",
            "--qz", "0.05", "--config", str(cfg),
        )
        record = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert record["q"] == "0.05"
        assert record["m"] == "100000"

    @pytest.mark.parametrize("argv, line", [
        (RATE_ARGV, "format = xml"),
        (RATE_ARGV, "error_formula = both"),
        (("selftest", "--quick"), "quick = maybe"),
    ])
    def test_invalid_value_rejected(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# bad value\n{line}\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {cfg}:2: ")

    def test_config_supplies_required_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("signals = 1e6\nq = 0.05\nqz = 0.02\n")
        code, out, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == EXIT_OK
        record = dict(zip(REPORT_FIELDS, next(csv.reader(io.StringIO(out.split(chr(10))[1])))))
        assert (record["signals"], record["q"], record["qz"]) == ("1000000", "0.05", "0.02")

    def test_flags_missing_after_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.05\n")
        code, out, err = run_cli(capsys, "rate", "--signals", "1e6", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: the following arguments are required: --qz\n"

    @pytest.mark.parametrize("argv, line, message", [
        (RATE_ARGV, "format = xml",
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (RATE_ARGV, "m = 1.5", "argument --m: expected an integer, got 1.5"),
        (RATE_ARGV, "q = -0.5 0.1", "argument --q: invalid float value: '-0.5 0.1'"),
        (RATE_ARGV, "signals = 101", "argument --signals: signals must be even (two-round blocks)"),
        (RATE_ARGV, "help = 1", "unknown option 'help'"),
        (RATE_ARGV, "config = other.cfg", "unknown option 'config'"),
        (RATE_ARGV, "quick = true", "unknown option 'quick'"),
        (("selftest",), "p = 2", "unknown option 'p'"),
        (("selftest",), "quick = maybe", "expected a boolean, got maybe"),
        (RATE_ARGV, "q 0.1", "expected 'key = value'"),
        (RATE_ARGV, "p = two", "argument --bobs/--p/-p: expected an integer, got two"),
        (RATE_ARGV, "signals = x", "argument --signals: signals must be a positive integer, got x"),
        (RATE_ARGV, "signals = 9007199254740993",
         "argument --signals: signals must be even (two-round blocks)"),
        (RATE_ARGV, "qz = two", "argument --qz: expected a comma list of numbers, got two"),
        (("sweep-q", "--signals", "1e6", "--q-max", "0.04"), "qz_factors = x",
         "argument --qz-factors: expected a comma list of numbers, got x"),
    ])
    def test_error_wording(self, capsys, tmp_path, argv, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {cfg}:1: {message}\n")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run_cli(
            capsys, "rate", "--p", "1", "--signals", "1e6", "--q", "0.1",
            "--qz", "0.1", "--config", str(cfg),
        )
        assert code == EXIT_USAGE
        assert "nonsense" in err


# A value for every option that differs from its default and from the
# values the required flags get below; keyed by argparse dest.
CONFIG_SAMPLES = {
    "signals": "2e6", "signals_min": "2e4", "signals_max": "4e6", "points": "5",
    "q": "0.03", "q_min": "0.01", "q_max": "0.12", "q_step": "0.02",
    "qz": "0.04", "qz_factors": "0.5", "bobs": "2", "epsilon": "1e-12", "m": "1000",
    "error_formula": "independent", "seed": "7", "trials": "3", "format": "json",
    "out": "report.csv",
}
REQUIRED_VALUES = {"--signals": "1e6", "--q": "0.1", "--qz": "0.1", "--q-max": "0.1",
                   "--signals-min": "1e4", "--signals-max": "1e6"}


def _config_cases():
    """(command, flag argv, argv before --config, config line) per option spelling."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subs.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option in ("-h", "--help", "--config"):
                    continue
                name = option.lstrip("-")
                if action.nargs == 0:  # a switch
                    yield pytest.param(command, [option], [], f"{name} = true",
                                       id=f"{command}:{option}:true")
                    yield pytest.param(command, [], [option], f"{name} = false",
                                       id=f"{command}:{option}:false")
                    continue
                value = CONFIG_SAMPLES[action.dest]
                for key in sorted({name, name.replace("-", "_")}):
                    yield pytest.param(command, [option, value], [], f"{key} = {value}",
                                       id=f"{command}:{option}:{key}")


class TestConfigMatchesFlags:
    """A config line leaves the namespace exactly as the flag it names does."""

    @pytest.mark.parametrize("command, flag_argv, config_argv, line", _config_cases())
    def test_config_line_equals_flag(self, monkeypatch, tmp_path, command, flag_argv,
                                     config_argv, line):
        seen = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                            lambda args: seen.append(vars(args)) or EXIT_OK)
        base = [command]
        for flag in cli.REQUIRED_FLAGS.get(command, ()):
            base += [flag, REQUIRED_VALUES[flag]]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(base) == EXIT_OK
        assert main(base + flag_argv) == EXIT_OK
        assert main(base + config_argv + ["--config", str(cfg)]) == EXIT_OK
        default, by_flag, by_config = (
            {k: v for k, v in ns.items() if k not in ("config", "parser")} for ns in seen)
        assert by_config == by_flag
        assert by_flag != default or line.endswith("false")
