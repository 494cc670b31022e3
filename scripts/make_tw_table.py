#!/usr/bin/env python3
"""Regenerate the embedded Tracy-Widom CDF table.

Integrates the Hastings-McLeod solution of Painleve II,

    q''(s) = s*q(s) + 2*q(s)**3,      q(s) ~ Ai(s)  as s -> +inf,

downward from s0 (where the Airy asymptotics hold to machine precision)
together with the auxiliary integrals

    J(s) = int_s^inf q(x)^2 dx
    I(s) = int_s^inf (x - s) q(x)^2 dx
    R(s) = int_s^inf q(x) dx

which give the two distribution functions

    F2(s) = exp(-I(s))
    F1(s) = exp(-(I(s) + R(s)) / 2)

Downward integration is the numerically stable direction: the unwanted
Bi-type component decays as s decreases.

Usage:
    python scripts/make_tw_table.py            # rewrites src/eigencount/_tw_data.py
    python scripts/make_tw_table.py --csv      # prints x,F1,F2 as CSV to stdout

The script also prints reference values (means, variances, selected
quantiles) used as frozen constants in the test suite, and checks the
moments against published high-precision values.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import airy

# Start where the Airy asymptotics for the Hastings-McLeod solution are
# accurate to ~1e-17 relative but q is still large enough (~2.6e-9) that a
# tight absolute tolerance keeps the *relative* solver error small.
S_START = 9.0
X_MIN = -10.0
X_MAX = 10.0
STEP = 0.025

# Published moments (Bornemann, "On the numerical evaluation of
# distributions in random matrix theory", 2010).
PUBLISHED = {
    1: {"mean": -1.2065335745820, "var": 1.607781034581},
    2: {"mean": -1.7710868074110, "var": 0.8131947928329},
}


def rhs(s, y):
    q, dq, J, I, R = y
    return [dq, s * q + 2.0 * q**3, -q * q, -J, -q]


def initial_state(s0):
    ai, aip, _, _ = airy(s0)
    J0 = aip**2 - s0 * ai**2
    # int_s^inf x Ai^2 dx has antiderivative (x^2 Ai^2 - x Ai'^2 + Ai Ai')/3.
    I0 = (2.0 / 3.0) * (s0**2 * ai**2 - s0 * aip**2) - ai * aip / 3.0
    R0 = quad(lambda t: airy(t)[0], s0, s0 + 30.0)[0]
    return [ai, aip, J0, I0, R0]


def solve(dense_step=1e-3):
    sol = solve_ivp(
        rhs,
        (S_START, X_MIN - 0.5),
        initial_state(S_START),
        method="DOP853",
        rtol=1e-12,
        atol=1e-22,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"Painleve II integration failed: {sol.message}")
    return sol


def cdfs_at(sol, x):
    x = np.asarray(x, dtype=float)
    q, dq, J, I, R = sol.sol(x)
    # I(s) picks up the -s*J shift relative to the integrated variable:
    # d/ds int (x-s) q^2 = -J, which is exactly what was integrated, so I
    # is already int (x-s) q^2 at each s.
    f2 = np.exp(-I)
    f1 = np.exp(-0.5 * (I + R))
    return f1, f2


def moments(sol, beta):
    xs = np.arange(X_MIN - 0.4, X_MAX, 1e-3)
    f1, f2 = cdfs_at(sol, xs)
    F = f1 if beta == 1 else f2
    pdf = np.gradient(F, xs)
    m0 = np.trapezoid(pdf, xs)
    m1 = np.trapezoid(xs * pdf, xs)
    m2 = np.trapezoid(xs**2 * pdf, xs)
    return m0, m1, m2 - m1**2


def quantile(sol, beta, prob):
    lo, hi = X_MIN, X_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f1, f2 = cdfs_at(sol, [mid])
        val = (f1 if beta == 1 else f2)[0]
        if val < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", action="store_true", help="print CSV instead of writing _tw_data.py")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "src" / "eigencount" / "_tw_data.py"),
    )
    args = parser.parse_args(argv)

    sol = solve()
    grid = np.round(np.arange(X_MIN, X_MAX + STEP / 2, STEP), 6)
    f1, f2 = cdfs_at(sol, grid)

    if args.csv:
        print("x,cdf_beta1,cdf_beta2")
        for x, a, b in zip(grid, f1, f2):
            print(f"{x:.6f},{a:.12e},{b:.12e}")
        return 0

    for beta in (1, 2):
        m0, mean, var = moments(sol, beta)
        ref = PUBLISHED[beta]
        print(f"beta={beta}: total mass {m0:.9f}  mean {mean:.9f}  var {var:.9f}")
        print(f"          published    mean {ref['mean']:.9f}  var {ref['var']:.9f}")
        if abs(mean - ref["mean"]) > 5e-6 or abs(var - ref["var"]) > 5e-6:
            print("ERROR: moments disagree with published values", file=sys.stderr)
            return 1

    print()
    for beta in (1, 2):
        for alpha in (0.05, 0.01, 0.005, 0.001):
            s = quantile(sol, beta, 1.0 - alpha)
            print(f"s(alpha={alpha}, beta={beta}) = {s:.8f}")
    for x in (-3.0, -1.2065, 0.0, 1.0, 2.0):
        a, b = cdfs_at(sol, [x])
        print(f"F1({x}) = {a[0]:.10f}   F2({x}) = {b[0]:.10f}")

    lines = [
        '"""Tracy-Widom CDF table for beta in {1, 2}.',
        "",
        "Generated by scripts/make_tw_table.py (Painleve II / Hastings-McLeod",
        "integration); do not edit by hand.  The CDF columns are tabulated on the",
        "grid np.round(np.arange(X_MIN, X_MAX + STEP / 2, STEP), 6).",
        '"""',
        "",
        f"X_MIN = {X_MIN!r}",
        f"X_MAX = {X_MAX!r}",
        f"STEP = {STEP!r}",
        "",
    ]

    def fmt(arr, name):
        body = ",\n    ".join(
            ", ".join(f"{v:.17e}" for v in arr[i : i + 4]) for i in range(0, len(arr), 4)
        )
        return f"{name} = (\n    {body},\n)\n"

    lines.append(fmt(f1, "CDF_BETA1"))
    lines.append(fmt(f2, "CDF_BETA2"))
    Path(args.out).write_text("\n".join(lines))
    print(f"\nwrote {args.out} ({len(grid)} grid points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
