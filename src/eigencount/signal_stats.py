"""Interaction term, scale factor and decision statistic for the
signal-search test, together with the statistic's standard deviation.  The
test's detection threshold lives with the other thresholds in
probabilities.py."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .noise import NoiseFit
from .spectral import Spectrum

# Pairwise strength gaps below TIE_CLAMP_SCALE * max(lambda_hat, sigma2) are
# replaced by a sign-preserving clamp: the interaction sum is singular at
# exact ties, which the solver can emit for repeated population strengths.
TIE_CLAMP_SCALE = 1e-6
# Floor for the variance radicand once a strength falls below the
# fluctuation threshold; the delta_valid flag records the clamp.
RADICAND_FLOOR = 1e-12
# Values whose squares are normal floats.  Outside this range a square would
# overflow (raising OverflowError) or lose precision down to zero, so the
# variance ratio is formed from sigma2 / lambda instead.
SQUARE_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


@dataclass(frozen=True)
class SignalStat:
    """Decision statistic z and its ingredients for one tested index."""

    z: float
    v: float
    kappa: float
    delta: float
    delta_valid: bool


def interaction_term(i: int, lambda_hat: np.ndarray, sigma2: float, n: int) -> float:
    """Pairwise eigenvalue-interaction bias on the i-th (1-based) strength."""
    lam = np.asarray(lambda_hat, dtype=float)
    q = lam.size
    if not 1 <= i <= q:
        raise InvalidInputError(f"index must lie in 1..{q}, got {i}")
    if q == 1:
        return 0.0
    lam_i = lam[i - 1]
    clamp = TIE_CLAMP_SCALE * max(float(lam.max()), sigma2)
    total = 0.0
    for j in range(q):
        if j == i - 1:
            continue
        gap = lam_i - lam[j]
        if abs(gap) < clamp:
            # Sign-preserving clamp; an exact tie takes its sign from the
            # descending sort order, so the pair stays antisymmetric.
            gap = -clamp if j < i - 1 else clamp
        total += (lam[j] + sigma2) * (lam_i + sigma2) / gap
    return total / n


def kappa_factor(lambda_hat_i: float, sigma2: float, p: int, q: int, n: int) -> float:
    """Finite-sample inflation factor 1 + (p - q) sigma^2 / (n lambda)."""
    if lambda_hat_i <= 0.0:
        raise InvalidInputError("signal strength must be positive")
    return 1.0 + (p - q) * sigma2 / (n * lambda_hat_i)


def stat_std_dev(lambda_hat_i: float, sigma2: float, p: int, q: int, n: int,
                 beta: int = 1) -> tuple[float, bool]:
    """Standard deviation of the decision statistic; (value, valid_flag).

    For strengths at or below the fluctuation threshold the radicand is
    clamped to RADICAND_FLOOR and the flag is False.
    """
    kappa = kappa_factor(lambda_hat_i, sigma2, p, q, n)
    lo, hi = SQUARE_RANGE
    if lo < lambda_hat_i < hi and lo < sigma2 < hi:
        radicand = 1.0 - (p - q) / n * sigma2**2 / lambda_hat_i**2
    else:
        ratio = sigma2 / lambda_hat_i
        radicand = 1.0 - (p - q) / n * (ratio * ratio)
    valid = radicand > 0.0
    if not valid:
        radicand = RADICAND_FLOOR
    delta = (lambda_hat_i + sigma2) / kappa * math.sqrt(2.0 / (beta * n) * radicand)
    return delta, valid


def decision_statistic(i: int, spectrum: Spectrum, fit: NoiseFit,
                       beta: int = 1) -> SignalStat:
    """z = (l_i - v_i) / kappa_i - sigma2: an estimate of the i-th strength."""
    if not 1 <= i <= fit.k:
        raise InvalidInputError(f"fit provides {fit.k} spikes, cannot test index {i}")
    sigma2 = fit.sigma2_hat
    lam_i = float(fit.lambda_hat[i - 1])
    v = interaction_term(i, fit.lambda_hat, sigma2, spectrum.n)
    kappa = kappa_factor(lam_i, sigma2, spectrum.p, fit.k, spectrum.n)
    delta, valid = stat_std_dev(lam_i, sigma2, spectrum.p, fit.k, spectrum.n, beta)
    z = (float(spectrum.eigenvalues[i - 1]) - v) / kappa - sigma2
    return SignalStat(z=z, v=v, kappa=kappa, delta=delta, delta_valid=valid)

