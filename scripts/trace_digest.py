#!/usr/bin/env python3
"""One sha256 over the sequential scans' decision traces on seeded draws.

    python scripts/trace_digest.py [--draws N]

Draws N spectra per point of every preset's desk grid, on the streams a
sweep uses (trial_rng(BASE_SEED, i) for draw i, BASE_SEED = 77), and runs
rmt, srmt and sns on each under two configs: the default EstimatorConfig,
and alpha = 0.05, alpha0 = 0.9, beta = 2.  The digest covers each
estimate's q_hat, degenerate flag and trace CSV, or the class of the
EigencountError it raised.

A change meant to keep the scans' arithmetic and trace output as they are
must leave the digest as it is.  CI pins the digest at --draws 2.  To
compare two checkouts, run this script with PYTHONPATH pointing at each
one's src.  eigencount must be importable (installed, or PYTHONPATH=src).
"""

import argparse
import hashlib

from eigencount.errors import EigencountError
from eigencount.estimators import EstimatorConfig, estimate
from eigencount.simulation import (PRESET_NAMES, generate_snapshots,
                                   preset_scenario, trial_rng)
from eigencount.spectral import eig_sym_desc, sample_covariance

SCAN_METHODS = ("rmt", "srmt", "sns")
CONFIGS = (EstimatorConfig(), EstimatorConfig(alpha=0.05, alpha0=0.9, beta=2))
BASE_SEED = 77


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=50, help="draws per sweep point (50)")
    args = parser.parse_args()
    if args.draws < 1:
        parser.error(f"--draws must be at least 1, got {args.draws}")

    digest = hashlib.sha256()
    spectra = rows = 0
    for name in PRESET_NAMES:
        spec = preset_scenario(name)
        for _, p, n in spec.sweep_points():
            model = spec.model(p)
            for draw in range(args.draws):
                snapshots = generate_snapshots(model, n, trial_rng(BASE_SEED, draw))
                spectrum = eig_sym_desc(sample_covariance(snapshots.data), n)
                spectra += 1
                for c, config in enumerate(CONFIGS):
                    for method in SCAN_METHODS:
                        digest.update(f"{name} {p} {n} {draw} {c} {method}\n".encode())
                        try:
                            result = estimate(spectrum, method, config)
                        except EigencountError as exc:
                            digest.update(f"error {type(exc).__name__}\n".encode())
                            continue
                        digest.update(f"{result.q_hat} {int(result.degenerate)}\n".encode())
                        digest.update(result.trace.to_csv_string().encode())
                        rows += len(result.trace.rows)
    print(f"{digest.hexdigest()}  {spectra} spectra, {rows} trace rows, "
          f"--draws {args.draws}")


if __name__ == "__main__":
    main()
