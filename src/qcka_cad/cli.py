"""Command-line front end: rates, sweeps, simulation, self-test.

Commands
--------
rate       one key-rate report for a single parameter point
sweep-q    rate vs X-error at fixed signal count (CSV table)
sweep-n    rate vs total signal count at fixed noise (CSV table)
simulate   Monte Carlo trials with analytic columns for comparison
selftest   the verification battery of :mod:`qcka_cad.verify`

Exit codes: 0 success / positive rate, 1 usage error, 2 zero rate,
3 self-test failure (a failing or a raising check).  Every command
accepts ``--seed`` and produces byte-identical output for identical
invocations.  CSV output is RFC-4180-style with an LF line ending and
floats printed to 12 significant digits; ``--format json`` emits the
same fields as JSON.
A ``--config FILE`` of flat ``key = value`` lines overrides flags and
may supply required ones.  A key is any flag name of the command without
its dashes, ``-`` and ``_`` alike; the flag's own parser action converts
and checks the value, and a switch such as ``quick`` takes a boolean.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import numbers
import sys

# protosim and verify are the package's lazy modules: only simulate and
# selftest execute them, and with them numpy.
from . import protosim, verify
from .keyrate import KeyRateReport, geometric_grid, key_length, optimize_m
from .model import NoiseModel, ProtocolParams, analytic_pa, analytic_qx, postcad_error_rates

__all__ = ["main", "REPORT_FIELDS", "simulate_fields"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ZERO_RATE = 2
EXIT_SELFTEST = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# Report column -> the KeyRateReport attribute it prints, or its conversion.
_REPORT_COLUMNS = {
    "p": "bobs", "signals": lambda r: 2 * r.half_signals, "half_signals": "half_signals",
    "m": "test_size", "n": "key_blocks", "epsilon": "epsilon",
    "q": "x_error", "qz": lambda r: list(r.z_errors), "error_formula": "error_formula",
    "delta": "delta", "qx": "qx", "pa": "pa", "n_a": "accepted", "hmin": "hmin",
    "leak_ec": "leak_ec", "ell": "ell", "rate": "rate",
    "epsilon_prime": "epsilon_prime", "epsilon_fail": "epsilon_fail", "epsilon_pa": "epsilon_pa",
    "flags": lambda r: ";".join(r.flags),
}
REPORT_FIELDS = list(_REPORT_COLUMNS)


def report_record(report: KeyRateReport) -> dict:
    """A key-rate report as an ordered field -> value mapping."""
    return {col: getattr(report, get) if isinstance(get, str) else get(report)
            for col, get in _REPORT_COLUMNS.items()}


def _csv_text(fields, records) -> str:
    import csv  # imported here, so that a command loads only its format's module

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for rec in records:
        writer.writerow([_fmt(rec[f]) for f in fields])
    return buf.getvalue()


def _json_text(payload) -> str:
    import json  # imported here, as csv is in _csv_text

    return json.dumps(_null_nan(payload), indent=2) + "\n"


def _null_nan(value):
    """NaN fields (e.g. error rates with no surviving block) become null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _null_nan(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nan(v) for v in value]
    return value


def _emit(text: str, out_path: str | None) -> None:
    # Open the file first, so that a bad --out fails before stdout is written.
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not 2
        raise _CliError(message)


FORMATS = ("csv", "json")
ERROR_FORMULAS = ("conservative", "independent")
MAX_SWEEP_POINTS = 1000  # sweep grid size; each point is one test-size search
MAX_PARTIES = 1000  # --p; per-party lists and columns are built from it
MAX_TRIAL_PARTIES = 10**6  # simulate --trials x --p; every row is held in memory

# Flags a command needs, checked once --config has been applied so that a
# config file may supply them; listed in the order the parser adds them.
REQUIRED_FLAGS = {
    "rate": ("--signals", "--q", "--qz"),
    "sweep-q": ("--signals", "--q-max"),
    "sweep-n": ("--signals-min", "--signals-max", "--q", "--qz"),
    "simulate": ("--signals", "--q", "--qz"),
}


def _parse_int(text: str) -> int:
    """The integer a flag value denotes, exactly.

    A value is spelled as ``float`` reads it, infinities and NaN aside, and
    must denote an integer: ``12``, ``1e6`` and ``2.5e3`` do, ``1.5`` does
    not.  It is parsed from its digits, so no value is rounded.
    """
    try:
        if math.isfinite(float(text)):
            mantissa, _, exponent = text.strip().lower().replace("_", "").partition("e")
            whole, _, fraction = mantissa.partition(".")
            digits, scale = int(whole + fraction), int(exponent or 0) - len(fraction)
            # A finite value with nonzero digits has scale <= 308; a negative
            # scale beyond the digit count leaves a fraction.
            if digits == 0:
                return 0
            if scale >= 0:
                return digits * 10**scale
            if -scale <= len(whole + fraction) and digits % 10**-scale == 0:
                return digits // 10**-scale
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text}")


def _parse_signals(text: str) -> int:
    try:
        total = _parse_int(text)
    except argparse.ArgumentTypeError:
        total = 0
    if total <= 0:
        raise argparse.ArgumentTypeError(f"signals must be a positive integer, got {text}")
    if total % 2:
        raise argparse.ArgumentTypeError("signals must be even (two-round blocks)")
    return total


def _parse_seed(text: str) -> int:
    seed = _parse_int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text}")
    return seed


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text}")


def _apply_config(command: argparse.ArgumentParser, args: argparse.Namespace, path: str) -> None:
    # A key is any option string of the command without its dashes, with
    # '-' and '_' interchangeable; the command's own action converts the value.
    options = {}
    for action in command._actions:
        if action.dest not in ("help", "config"):
            for option in action.option_strings:
                options.setdefault(option.lstrip("-").replace("_", "-"), (option, action))
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.replace("_", "-") not in options:
                raise _CliError(f"{path}:{lineno}: unknown option {key!r}")
            option, action = options[key.replace("_", "-")]
            try:
                if action.nargs == 0:  # a store-true switch such as --quick
                    setattr(args, action.dest, _parse_bool(value))
                else:  # "--option=value", so that a value starting with '-' is not a flag
                    command.parse_args([f"{option}={value}"], namespace=args)
            except (_CliError, argparse.ArgumentTypeError) as exc:
                raise _CliError(f"{path}:{lineno}: {exc}") from exc


def _parse_floats(text: str) -> tuple:
    """A comma list of numbers; ``_check_args`` broadcasts one value to every party."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text}")
    return values


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_parse_seed, default=0, help="reproducibility seed")
    sub.add_argument("--out", default=None, help="also write the output to this file")
    sub.add_argument("--format", choices=FORMATS, default="csv")
    sub.add_argument("--config", default=None, help="flat key=value file overriding flags")


def _add_protocol(sub: argparse.ArgumentParser, *, with_q: bool = True) -> None:
    sub.add_argument("--bobs", "--p", "-p", dest="bobs", type=_parse_int, default=1,
                     help="number of non-reference parties")
    sub.add_argument("--epsilon", type=float, default=1e-36, help="security parameter")
    sub.add_argument("--m", type=_parse_int, default=None,
                     help="test size (default: optimized)")
    sub.add_argument("--error-formula", choices=ERROR_FORMULAS, default="conservative",
                     help="post-sieve error rate used inside leak_EC")
    if with_q:
        sub.add_argument("--q", type=float, help="X-basis flip rate per half")
        sub.add_argument("--qz", type=_parse_floats,
                         help="Z flip rates: one value or a comma list, one per party")


def build_parser() -> _Parser:
    parser = _Parser(prog="qcka-cad", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    rate = subs.add_parser("rate", help="single-point key-rate report")
    rate.add_argument("--signals", type=_parse_signals,
                      help="total signal count 2N (e.g. 1e7)")
    _add_protocol(rate)
    _add_common(rate)
    rate.set_defaults(func=cmd_rate, parser=rate)

    sweep_q = subs.add_parser("sweep-q", help="rate vs X-error at fixed signals")
    sweep_q.add_argument("--signals", type=_parse_signals)
    sweep_q.add_argument("--q-min", type=float, default=0.0)
    sweep_q.add_argument("--q-max", type=float)
    sweep_q.add_argument("--q-step", type=float, default=0.01)
    _add_protocol(sweep_q, with_q=False)
    sweep_q.add_argument("--qz", type=_parse_floats,
                         help="fixed Z flip rates (otherwise scaled from Q)")
    sweep_q.add_argument("--qz-factors", type=_parse_floats, default="1",
                         help="per-party multipliers applied to Q (comma list)")
    _add_common(sweep_q)
    sweep_q.set_defaults(func=cmd_sweep_q, parser=sweep_q)

    sweep_n = subs.add_parser("sweep-n", help="rate vs total signals at fixed noise")
    sweep_n.add_argument("--signals-min", type=_parse_signals)
    sweep_n.add_argument("--signals-max", type=_parse_signals)
    sweep_n.add_argument("--points", type=_parse_int, default=16,
                         help="geometric grid size")
    _add_protocol(sweep_n)
    _add_common(sweep_n)
    sweep_n.set_defaults(func=cmd_sweep_n, parser=sweep_n)

    simulate = subs.add_parser("simulate", help="Monte Carlo protocol trials")
    simulate.add_argument("--signals", type=_parse_signals)
    simulate.add_argument("--trials", type=_parse_int, default=1)
    _add_protocol(simulate)
    _add_common(simulate)
    simulate.set_defaults(func=cmd_simulate, parser=simulate)

    selftest = subs.add_parser("selftest", help="verification battery")
    selftest.add_argument("--quick", action="store_true",
                          help="accepted and ignored: every check is exact and has one size")
    _add_common(selftest)
    selftest.set_defaults(func=cmd_selftest, parser=selftest)

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _point_report(args, half_signals: int, noise: NoiseModel) -> KeyRateReport:
    if args.m is not None:
        params = ProtocolParams(args.bobs, half_signals, args.m, args.epsilon)
        return key_length(params, noise, error_formula=args.error_formula)
    _, report = optimize_m(args.bobs, half_signals, args.epsilon, noise,
                           error_formula=args.error_formula)
    return report


def _emit_reports(args, reports) -> int:
    records = [report_record(r) for r in reports]
    if args.format == "json":
        _emit(_json_text(records[0] if args.command == "rate" else records), args.out)
    else:
        _emit(_csv_text(REPORT_FIELDS, records), args.out)
    return EXIT_OK if any(r.rate > 0.0 for r in reports) else EXIT_ZERO_RATE


def cmd_rate(args) -> int:
    noise = NoiseModel(args.q, args.qz)
    report = _point_report(args, args.signals // 2, noise)
    return _emit_reports(args, [report])


def cmd_sweep_q(args) -> int:
    if not (0 < args.q_step < math.inf and args.q_min <= args.q_max):
        raise _CliError("need q-min <= q-max and a positive q-step")
    steps = (args.q_max - args.q_min) / args.q_step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise _CliError(f"the q grid has more than {MAX_SWEEP_POINTS} points")
    # The last point can land an ulp past q-max (0.058 + 13 * 0.034 > 0.5).
    qs = [min(args.q_min + i * args.q_step, args.q_max) for i in range(math.floor(steps) + 1)]
    if args.qz is None:
        noises = [NoiseModel(q, tuple(f * q for f in args.qz_factors)) for q in qs]
    else:
        noises = [NoiseModel(q, args.qz) for q in qs]
    reports = [_point_report(args, args.signals // 2, noise) for noise in noises]
    return _emit_reports(args, reports)


def cmd_sweep_n(args) -> int:
    if args.signals_max < args.signals_min or not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise _CliError(f"need signals-min <= signals-max and 1 <= points <= {MAX_SWEEP_POINTS}")
    grid = geometric_grid(args.signals_min, args.signals_max, args.points)
    # Above 2**53 a float grid point can fall off the range; clamp it back.
    totals = sorted({min(max(2 * round(v / 2), args.signals_min), args.signals_max) for v in grid})
    noise = NoiseModel(args.q, args.qz)
    # A total needs a test size m >= 1 (or the given --m) with 2m < N; with
    # none left, the first total raises its own error.
    smallest = 1 if args.m is None else args.m
    kept = [total for total in totals if total // 2 > 2 * smallest] or totals
    reports = [_point_report(args, total // 2, noise) for total in kept]
    if len(kept) < len(totals):
        print(f"note: skipped {len(totals) - len(kept)} of {len(totals)} signal totals "
              "too small for a valid test size", file=sys.stderr)
    return _emit_reports(args, reports)


def simulate_fields(bobs: int) -> list:
    """Column order of the simulate command for a given party count."""
    fields = ["trial", "qx_observed", "n_a", "n_r", "accepted_fraction"]
    fields += [f"postcad_error_{j + 1}" for j in range(bobs)]
    fields += ["keys_equal_fraction", "qx_analytic", "pa_analytic"]
    fields += [f"postcad_conservative_{j + 1}" for j in range(bobs)]
    fields += [f"postcad_independent_{j + 1}" for j in range(bobs)]
    return fields


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise _CliError("trials must be at least 1")
    if args.trials * args.bobs > MAX_TRIAL_PARTIES:
        raise _CliError(f"trials x p must be at most {MAX_TRIAL_PARTIES}")
    noise = NoiseModel(args.q, args.qz)
    half = args.signals // 2
    m = args.m if args.m is not None else optimize_m(
        args.bobs, half, args.epsilon, noise, error_formula=args.error_formula)[0]
    params = ProtocolParams(args.bobs, half, m, args.epsilon, seed=args.seed)
    outcomes = [protosim.run_trial(params, noise, trial_index=i) for i in range(args.trials)]

    qx_a = analytic_qx(noise.x_error)
    pa_a = analytic_pa(noise.z_errors)
    cons = postcad_error_rates(noise.z_errors, "conservative")
    indep = postcad_error_rates(noise.z_errors, "independent")
    n = params.key_blocks

    records = []
    for i, t in enumerate(outcomes):
        rec = {
            "trial": i,
            "qx_observed": t.qx_observed,
            "n_a": t.accepted,
            "n_r": t.rejected,
            "accepted_fraction": t.accepted / n,
            "keys_equal_fraction": t.keys_equal_fraction,
            "qx_analytic": qx_a,
            "pa_analytic": pa_a,
        }
        for j in range(args.bobs):
            rec[f"postcad_error_{j + 1}"] = t.postcad_error[j]
            rec[f"postcad_conservative_{j + 1}"] = cons[j]
            rec[f"postcad_independent_{j + 1}"] = indep[j]
        records.append(rec)

    stats = protosim.aggregate(outcomes)
    fields = simulate_fields(args.bobs)
    sources = {"n_a": "accepted", "n_r": "rejected", "accepted_fraction": "accepted"}
    summary = {}
    for col in fields[1:fields.index("keys_equal_fraction") + 1]:  # the simulated columns
        scale = 1.0 / n if col == "accepted_fraction" else 1.0
        summary[col] = {stat: None if value is None else value * scale
                        for stat, value in stats[sources.get(col, col)]._asdict().items()}

    if args.format == "json":
        payload = {
            "config": {
                "p": args.bobs, "signals": args.signals, "m": m, "n": n,
                "epsilon": args.epsilon, "q": noise.x_error,
                "qz": list(noise.z_errors), "trials": args.trials, "seed": args.seed,
            },
            "trials": records,
            "aggregate": summary,
        }
        _emit(_json_text(payload), args.out)
    else:
        footer = []
        for stat in ("mean", "std", "stderr"):
            row = dict.fromkeys(fields, "")
            row["trial"] = stat
            row.update((col, values[stat]) for col, values in summary.items()
                       if values[stat] is not None)
            footer.append(row)
        _emit(_csv_text(fields, records + footer), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    try:
        results = verify.selftest_checks()
    except verify.CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELFTEST
    if args.format == "json":
        text = _json_text([r._asdict() for r in results])
    else:
        text = "".join(f"{r.status} {r.name} margin={r.margin:.6e}  ({r.detail})\n"
                       for r in results)
    _emit(text, args.out)
    return EXIT_SELFTEST if any(r.status == "FAIL" for r in results) else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _check_args(args: argparse.Namespace) -> None:
    missing = [flag for flag in REQUIRED_FLAGS.get(args.command, ())
               if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        raise _CliError(f"the following arguments are required: {', '.join(missing)}")
    bobs = getattr(args, "bobs", 1)
    if not 1 <= bobs <= MAX_PARTIES:
        raise _CliError(f"--p must be between 1 and {MAX_PARTIES}")
    for flag in ("--qz", "--qz-factors"):  # one value per party
        dest = flag[2:].replace("-", "_")
        values = getattr(args, dest, None)
        if values is not None and len(values) == 1:
            setattr(args, dest, values * bobs)
        elif values is not None and len(values) != bobs:
            raise _CliError(f"{flag} needs 1 or {bobs} values, got {len(values)}")


def _parse(argv) -> argparse.Namespace:
    # A parser is cyclic garbage once parsed (argparse links each action to
    # its group and back).  Parsed with the collector paused, it dies young,
    # and a minor collection frees it rather than a full one.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            _apply_config(args.parser, args, args.config)
        del args.parser
        return args
    finally:
        if collecting:
            gc.enable()


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        _check_args(args)
        return args.func(args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
