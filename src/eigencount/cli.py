"""Command-line interface.

Subcommands: estimate (signal count from a CSV of eigenvalues or
snapshots), sweep (Monte Carlo misdetection runs), tw (Tracy-Widom CDF /
quantile queries), trace (decision-trace dump for one sequential
estimator).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from dataclasses import replace

import numpy as np

from .errors import DataError, EigencountError, InvalidInputError
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


def _read_table(path: str, kind: str) -> np.ndarray:
    """The numbers of an input file, one row per line and at least one row;
    '#' starts a comment.  Eigenvalue lines hold one value, snapshot lines
    comma-separated ones."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "no data": DataError says it
        try:
            table = np.loadtxt(path, delimiter="," if kind == "snapshots" else None, ndmin=2)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"malformed {kind} file {path}: {exc}") from exc
    if table.size == 0:
        raise DataError(f"no values found in {path}")
    return table


def _open_out(path: str):
    """--out opened for writing.  Commands call it before their work, so an
    unwritable path fails first; like a shell redirect, it creates or
    empties the file at once."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _load_spectrum(args) -> Spectrum:
    if args.input_kind == "snapshots":
        if args.n is not None:
            raise InvalidInputError("--n goes only with --input-kind eigs: "
                                    "a snapshot file's columns are its samples")
    elif args.n is None or args.n < 1:
        raise InvalidInputError(f"--input-kind eigs needs --n of at least 1, got {args.n}")
    table = _read_table(args.input, args.input_kind)
    try:
        if args.input_kind == "snapshots":
            return eig_sym_desc(sample_covariance(table), table.shape[1])
        if table.shape[1] != 1:
            raise InvalidInputError(f"one eigenvalue per line, got {table.shape[1]} on a line")
        return Spectrum.from_values(table[:, 0], args.n)
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
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as handle:
        estimate(spectrum, args.method, _config_from(args)).trace.to_csv(handle)
    return EXIT_OK


def _scenario_from(args) -> ScenarioSpec:
    if args.preset:
        spec = preset_scenario(args.preset, full_scale=args.full_scale)
    elif args.full_scale:
        raise InvalidInputError("--full-scale needs --preset: a scenario file sets its own grid")
    else:
        try:
            with open(args.scenario) as handle:
                text = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read {args.scenario}: {exc}") from exc
        spec = parse_scenario(text)
    overrides = dict(trials=args.trials, base_seed=args.seed,
                     methods=None if args.methods is None else _parse_methods(args.methods))
    return replace(spec, **{name: value for name, value in overrides.items() if value is not None})


def _cmd_sweep(args) -> int:
    spec = _scenario_from(args)
    with _open_out(args.out) if args.out else contextlib.nullcontext() as handle:
        result = run_sweep(spec, jobs=args.jobs)
        if handle:
            handle.write(result.to_csv_string())
    print(f"{'value':>8} {'method':>8} {'P_under':>9} {'P_over':>9} {'P_e':>9}")
    for row in result.rows:
        print(f"{row.sweep_value:>8} {row.method:>8} "
              f"{row.p_under:>9.4f} {row.p_over:>9.4f} {row.p_e:>9.4f}")
    return EXIT_OK


def _cmd_tw(args) -> int:
    if args.alpha is not None:
        print(f"{tw_quantile(args.alpha, args.beta):.6f}")
    else:
        print(f"{tw_cdf(args.x, args.beta):.6f}")
    return EXIT_OK


def _add_estimate_flags(parser, methods: tuple[str, ...], default: str):
    parser.add_argument("input", help="input CSV path")
    parser.add_argument("--input-kind", choices=("eigs", "snapshots"),
                        default="eigs",
                        help="eigs: one eigenvalue per line; snapshots: p rows x n columns")
    parser.add_argument("--n", type=int, default=None,
                        help="sample count behind an eigenvalue file (at least 1)")
    parser.add_argument("--method", choices=methods, default=default)
    parser.add_argument("--alpha", type=float, default=EstimatorConfig.alpha,
                        help="false-alarm level of the TW test")
    parser.add_argument("--alpha0", type=float, default=EstimatorConfig.alpha0,
                        help="target detection probability of the signal-search test")


def build_parser() -> _Parser:
    parser = _Parser(prog="eigencount",
                     description="Eigenvalue-based estimation of the number of signals")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the signal count from a CSV")
    _add_estimate_flags(est, METHOD_ORDER + ("all",), "all")
    est.set_defaults(func=_cmd_estimate)

    trace = sub.add_parser("trace", help="dump one sequential estimator's decision trace")
    # Only the sequential scans record a decision trace.
    _add_estimate_flags(trace, ("rmt", "srmt", "sns"), "sns")
    trace.add_argument("--out", default=None, help="trace CSV path (default: stdout)")
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("scenario", nargs="?", default=None,
                        help="scenario file (key=value lines); give it or --preset")
    source.add_argument("--preset", choices=PRESET_NAMES, default=None)
    sweep.add_argument("--full-scale", action="store_true",
                       help="full trial budget and sweep grid of a --preset")
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
    query = tw.add_mutually_exclusive_group(required=True)
    query.add_argument("--alpha", type=float, default=None,
                       help="print s(alpha) with F_beta(s) = 1 - alpha")
    query.add_argument("--x", type=float, default=None, help="print F_beta(x)")
    tw.add_argument("--beta", type=int, choices=(1, 2), default=DEFAULT_BETA)
    tw.set_defaults(func=_cmd_tw)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"eigencount: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidInputError as exc:
        print(f"eigencount: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EigencountError as exc:
        print(f"eigencount: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
