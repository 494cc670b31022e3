"""Joint noise-level / spike-strength estimation under a k-signal hypothesis.

The noise level and the k spike eigenvalues solve a coupled nonlinear
system: each spike solves a quadratic given the noise level, and the noise
level is the trailing-eigenvalue average corrected by the spike excesses.
The system is iterated to a fixed point from the plain trailing-mean
initialiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spectral import Spectrum

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class NoiseFit:
    """Solver output for one hypothesised signal count k."""

    k: int
    sigma2_hat: float
    rho_hat: np.ndarray
    lambda_hat: np.ndarray
    converged: bool
    iterations: int
    degenerate_roots: np.ndarray
    p: int
    n: int

    @property
    def any_degenerate(self) -> bool:
        return bool(self.degenerate_roots.any())


def mle_noise(spectrum: Spectrum, k: int) -> float:
    """Average of the trailing p - k eigenvalues."""
    if not 0 <= k <= spectrum.p - 1:
        raise InvalidInputError(f"k must lie in 0..{spectrum.p - 1}, got {k}")
    return float(spectrum.eigenvalues[k:].mean())


def _spike_roots(leading, sigma2: float, shift: float) -> tuple[list[float], list[bool]]:
    """Larger root of the spike quadratic for each eigenvalue l in leading.

    rho solves rho^2 - b rho + l sigma2 = 0 with b = l + sigma2 * shift and
    shift = 1 - (p - k) / n.  A negative discriminant means the eigenvalue is
    too small to support a spike under this noise level; the root is then
    clamped to the quadratic vertex and flagged rather than raised, so
    sequential scans can continue.  Python floats throughout: for the few
    roots of a scan step this beats array code.
    """
    if sigma2 <= 0.0 or min(leading) <= 0.0:
        raise InvalidInputError("need l > 0 and sigma2 > 0")
    bias = sigma2 * shift
    roots, degenerate = [], []
    for l in leading:
        b = l + bias
        disc = b * b - 4.0 * l * sigma2
        if disc < 0.0:
            roots.append(b / 2.0)
            degenerate.append(True)
        else:
            roots.append((b + math.sqrt(disc)) / 2.0)
            degenerate.append(False)
    return roots, degenerate


def solve_rho(l: float, sigma2: float, p: int, k: int, n: int) -> tuple[float, bool]:
    """Larger root of the spike quadratic; (value, degenerate_flag).

    A negative discriminant clamps the root to the quadratic vertex and sets
    the flag (see _spike_roots).
    """
    roots, degenerate = _spike_roots([l], sigma2, 1.0 - (p - k) / n)
    return roots[0], degenerate[0]


def estimate_noise_and_spikes(spectrum: Spectrum, k: int,
                              tol: float = DEFAULT_TOL,
                              max_iter: int = DEFAULT_MAX_ITER) -> NoiseFit:
    """Fixed-point solve of the coupled noise/spike system for hypothesis k.

    Starts from the trailing-mean noise estimate; on non-convergence or a
    non-positive noise iterate the initialiser is returned with
    converged=False rather than raising, so estimator scans degrade
    gracefully.

    The fit is memoised on the spectrum per (k, tol, max_iter), so every
    estimator scanning the same spectrum shares one solve per k; its arrays
    are read-only.
    """
    return spectrum._memoised(("noise_fit", k, tol, max_iter),
                              lambda: _fixed_point(spectrum, k, tol, max_iter))


def _fixed_point(spectrum: Spectrum, k: int, tol: float, max_iter: int) -> NoiseFit:
    p, n = spectrum.p, spectrum.n
    if not 0 <= k <= min(p, n) - 1:
        raise InvalidInputError(f"k must lie in 0..{min(p, n) - 1}, got {k}")
    vals = spectrum.eigenvalues
    sigma2_init = mle_noise(spectrum, k)

    def fit(sigma2, rho, degenerate, converged, iterations):
        rho = np.asarray(rho, dtype=float)
        lambda_hat = rho - sigma2
        degenerate = np.asarray(degenerate, dtype=bool)
        for array in (rho, lambda_hat, degenerate):
            array.flags.writeable = False
        return NoiseFit(k=k, sigma2_hat=sigma2, rho_hat=rho,
                        lambda_hat=lambda_hat, converged=converged,
                        iterations=iterations, degenerate_roots=degenerate,
                        p=p, n=n)

    if k == 0:
        return fit(sigma2_init, [], [], True, 0)

    leading = vals[:k]
    tail_sum = float(vals[k:].sum())
    leading_values = leading.tolist()
    shift = 1.0 - (p - k) / n

    def solve_all(sigma2):
        return _spike_roots(leading_values, sigma2, shift)

    sigma2 = sigma2_init
    for iteration in range(1, max_iter + 1):
        rho, degenerate = solve_all(sigma2)
        sigma2_new = (tail_sum + float((leading - np.array(rho)).sum())) / (p - k)
        if sigma2_new <= 0.0:
            return fit(sigma2_init, *solve_all(sigma2_init), False, iteration)
        if abs(sigma2_new - sigma2) < tol * sigma2_new:
            rho, degenerate = solve_all(sigma2_new)
            return fit(sigma2_new, rho, degenerate, True, iteration)
        sigma2 = sigma2_new

    return fit(sigma2_init, *solve_all(sigma2_init), False, max_iter)
