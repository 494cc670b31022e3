"""Command-line interface.

Subcommands: estimate (signal count from a CSV of eigenvalues or
snapshots), sweep (Monte Carlo misdetection runs), tw (Tracy-Widom CDF /
quantile queries), trace (decision-trace dump for one sequential
estimator).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import DataError, EigencountError, InvalidInputError, SolverError
from .estimators import METHOD_ORDER, EstimatorConfig, estimate
from .simulation import (PRESET_NAMES, ScenarioSpec, _parse_methods, parse_scenario,
                         preset_scenario, run_sweep)
from .spectral import Spectrum, eig_sym_desc, sample_covariance
from .tracy_widom import DEFAULT_BETA, tw_cdf, tw_quantile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_eigenvalues(path: str) -> np.ndarray:
    try:
        with open(path) as handle:
            values = [float(line.strip()) for line in handle
                      if line.strip() and not line.lstrip().startswith("#")]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed eigenvalue file {path}: {exc}") from exc
    if not values:
        raise DataError(f"no eigenvalues found in {path}")
    return np.asarray(values)


def _read_snapshots(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed snapshot CSV {path}: {exc}") from exc
    return data


def _load_spectrum(args) -> Spectrum:
    if args.input_kind == "eigs":
        if args.n is None:
            raise InvalidInputError("--n is required with --input-kind eigs")
        values = _read_eigenvalues(args.input)
        try:
            return Spectrum.from_values(values, args.n)
        except InvalidInputError as exc:
            raise DataError(f"{args.input}: {exc}") from exc
    snapshots = _read_snapshots(args.input)
    try:
        return eig_sym_desc(sample_covariance(snapshots), snapshots.shape[1])
    except InvalidInputError as exc:
        raise DataError(f"{args.input}: {exc}") from exc


def _config_from(args) -> EstimatorConfig:
    return EstimatorConfig(alpha=args.alpha, alpha0=args.alpha0)


def _cmd_estimate(args) -> int:
    spectrum = _load_spectrum(args)
    config = _config_from(args)
    for method in METHOD_ORDER if args.method == "all" else (args.method,):
        print(f"{method},{estimate(spectrum, method, config).q_hat}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    spectrum = _load_spectrum(args)
    result = estimate(spectrum, args.method, _config_from(args))
    if result.trace is None:
        raise InvalidInputError(f"method {args.method!r} records no trace")
    if args.out:
        with open(args.out, "w") as handle:
            result.trace.to_csv(handle)
    else:
        sys.stdout.write(result.trace.to_csv_string())
    return EXIT_OK


def _scenario_from(args) -> ScenarioSpec:
    if args.preset:
        spec = preset_scenario(args.preset, full_scale=args.full_scale)
    elif args.scenario:
        try:
            with open(args.scenario) as handle:
                text = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read {args.scenario}: {exc}") from exc
        spec = parse_scenario(text)
    else:
        raise InvalidInputError("need a scenario file or --preset")
    overrides = dict(trials=args.trials, base_seed=args.seed,
                     methods=None if args.methods is None else _parse_methods(args.methods))
    return replace(spec, **{name: value for name, value in overrides.items() if value is not None})


def _cmd_sweep(args) -> int:
    spec = _scenario_from(args)
    result = run_sweep(spec, jobs=args.jobs)
    csv_text = result.to_csv_string()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(csv_text)
    print(f"{'value':>8} {'method':>8} {'P_under':>9} {'P_over':>9} {'P_e':>9}")
    for row in result.rows:
        print(f"{row.sweep_value:>8} {row.method:>8} "
              f"{row.p_under:>9.4f} {row.p_over:>9.4f} {row.p_e:>9.4f}")
    return EXIT_OK


def _cmd_tw(args) -> int:
    if (args.alpha is None) == (args.x is None):
        raise InvalidInputError("pass exactly one of --alpha or --x")
    if args.alpha is not None:
        print(f"{tw_quantile(args.alpha, args.beta):.6f}")
    else:
        print(f"{tw_cdf(args.x, args.beta):.6f}")
    return EXIT_OK


def _add_estimate_flags(parser, with_method_all: bool):
    parser.add_argument("input", help="input CSV path")
    parser.add_argument("--input-kind", choices=("eigs", "snapshots"),
                        default="eigs",
                        help="eigs: one eigenvalue per line; snapshots: p rows x n columns")
    parser.add_argument("--n", type=int, default=None,
                        help="sample count behind an eigenvalue file")
    choices = METHOD_ORDER + ("all",) if with_method_all else METHOD_ORDER
    default = "all" if with_method_all else "sns"
    parser.add_argument("--method", choices=choices, default=default)
    parser.add_argument("--alpha", type=float, default=EstimatorConfig.alpha,
                        help="false-alarm level of the TW test")
    parser.add_argument("--alpha0", type=float, default=EstimatorConfig.alpha0,
                        help="target detection probability of the signal-search test")


def build_parser() -> _Parser:
    parser = _Parser(prog="eigencount",
                     description="Eigenvalue-based estimation of the number of signals")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the signal count from a CSV")
    _add_estimate_flags(est, with_method_all=True)
    est.set_defaults(func=_cmd_estimate)

    trace = sub.add_parser("trace", help="dump one sequential estimator's decision trace")
    _add_estimate_flags(trace, with_method_all=False)
    trace.add_argument("--out", default=None, help="trace CSV path (default: stdout)")
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    sweep.add_argument("scenario", nargs="?", default=None,
                       help="scenario file (key=value lines)")
    sweep.add_argument("--preset", choices=PRESET_NAMES, default=None)
    sweep.add_argument("--full-scale", action="store_true",
                       help="full trial budget and sweep grid for presets")
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--methods", default=None,
                       help="comma-separated method subset")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="processes counting trials, this one included "
                            "(jobs - 1 worker processes)")
    sweep.add_argument("--out", default=None, help="result CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    tw = sub.add_parser("tw", help="Tracy-Widom CDF / quantile values")
    tw.add_argument("--alpha", type=float, default=None,
                    help="print s(alpha) with F_beta(s) = 1 - alpha")
    tw.add_argument("--x", type=float, default=None, help="print F_beta(x)")
    tw.add_argument("--beta", type=int, choices=(1, 2), default=DEFAULT_BETA)
    tw.set_defaults(func=_cmd_tw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"eigencount: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"eigencount: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidInputError as exc:
        print(f"eigencount: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EigencountError as exc:
        print(f"eigencount: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
