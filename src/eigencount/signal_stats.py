"""Interaction term, scale factor and decision statistic for the
signal-search test, together with the statistic's standard deviation and
the population-level mean (Lawley's expectation) that the statistic
inverts.  The test's detection threshold lives with the other thresholds in
probabilities.py."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import DegenerateModelError, InvalidInputError
from .noise import FLOAT_MIN, SQUARE_RANGE, NoiseFit
from .spectral import PopulationModel, Spectrum, _check_integer
from .tracy_widom import DEFAULT_BETA

# Pairwise strength gaps below TIE_CLAMP_SCALE * max(lambda_hat, sigma2) are
# replaced by a sign-preserving clamp: the interaction sum is singular at
# exact ties, which the solver can emit for repeated population strengths.
# lawley_expectation rejects such gaps instead.
TIE_CLAMP_SCALE = 1e-6
# Floor for the variance radicand once a strength falls below the
# fluctuation threshold; the delta_valid flag records the clamp.
RADICAND_FLOOR = 1e-12


class SignalStat(NamedTuple):
    """Decision statistic z and its ingredients for one tested index."""

    z: float
    v: float
    kappa: float
    delta: float
    delta_valid: bool


def _tie_clamp(max_strength: float, sigma2: float) -> float:
    """The strength gap below which interaction_term clamps a pair.

    The floor keeps it a positive float when every strength and the noise
    level sit in the subnormal range.
    """
    return max(TIE_CLAMP_SCALE * max(max_strength, sigma2), FLOAT_MIN)


def interaction_term(i: int, lambda_hat: Sequence[float], sigma2: float, n: int) -> float:
    """Pairwise eigenvalue-interaction bias on the i-th (1-based) strength.

    The sum runs on the strengths as given, Python floats for a fit.
    """
    q = len(lambda_hat)
    if not 1 <= i <= q:
        raise InvalidInputError(f"index must lie in 1..{q}, got {i}")
    if q == 1:
        return 0.0
    lam_i = lambda_hat[i - 1]
    clamp = _tie_clamp(max(lambda_hat), sigma2)
    lo, hi = SQUARE_RANGE
    tested = lam_i + sigma2
    total = 0.0
    for j, lam_j in enumerate(lambda_hat):
        if j == i - 1:
            continue
        gap = lam_i - lam_j
        if abs(gap) < clamp:
            # Sign-preserving clamp; an exact tie takes its sign from the
            # descending sort order, so the pair stays antisymmetric.
            gap = -clamp if j < i - 1 else clamp
        other = lam_j + sigma2
        if lo < abs(other) < hi and lo < abs(tested) < hi:
            total += other * tested / gap
        else:
            # The product would overflow or underflow: divide first.
            total += other * (tested / gap)
    return total / n


def kappa_factor(lambda_hat_i: float, sigma2: float, p: int, q: int, n: int) -> float:
    """Finite-sample inflation factor 1 + (p - q) sigma^2 / (n lambda)."""
    if lambda_hat_i <= 0.0:
        raise InvalidInputError("signal strength must be positive")
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    return 1.0 + (p - q) * sigma2 / (n * lambda_hat_i)


def stat_std_dev(lambda_hat_i: float, sigma2: float, p: int, q: int, n: int,
                 beta: int = DEFAULT_BETA) -> tuple[float, bool]:
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


def fluctuation_params(lam: float, sigma2: float, p: int, n: int, q: int,
                       beta: int = DEFAULT_BETA) -> tuple[float, float]:
    """Mean (lam + sigma2) kappa and standard deviation kappa stat_std_dev of a
    supercritical spike eigenvalue: the test's formulas at population values."""
    if lam <= 0.0 or sigma2 <= 0.0:
        raise InvalidInputError("need lam > 0 and sigma2 > 0")
    kappa = kappa_factor(lam, sigma2, p, q, n)
    delta, valid = stat_std_dev(lam, sigma2, p, q, n, beta)
    if not valid:
        raise InvalidInputError(
            f"strength {lam:g} is at or below the fluctuation threshold "
            f"{sigma2 * math.sqrt((p - q) / n):g}")
    return (lam + sigma2) * kappa, delta * kappa


def lawley_expectation(j: int, model: PopulationModel, n: int) -> float:
    """Finite-sample expectation (lam_j + sigma2) kappa_j + v_j of the j-th
    (1-based) spike eigenvalue: the mean that decision_statistic inverts.

    Strengths closer than the interaction term's tie clamp are rejected, so
    the clamp never alters the value.
    """
    _check_integer("j", j, 1)
    _check_integer("n", n, 1)
    lam, sigma2, q = model.signal_strengths.tolist(), model.noise_variance, model.q
    if not j <= q:
        raise InvalidInputError(f"index must lie in 1..{q}, got {j}")
    # The strengths are sorted descending, so adjacent gaps are the smallest.
    clamp = _tie_clamp(lam[0], sigma2)
    if any(a - b < clamp for a, b in zip(lam, lam[1:])):
        raise DegenerateModelError("signal strengths must be distinct")
    lam_j = lam[j - 1]
    return ((lam_j + sigma2) * kappa_factor(lam_j, sigma2, model.p, q, n)
            + interaction_term(j, lam, sigma2, n))


def decision_statistic(i: int, spectrum: Spectrum, fit: NoiseFit,
                       beta: int = DEFAULT_BETA) -> SignalStat:
    """z = (l_i - v_i) / kappa_i - sigma2: an estimate of the i-th strength.

    The fit must be one of spectrum's: its (p, n) must be the spectrum's.
    """
    if fit.p != spectrum.p or fit.n != spectrum.n:
        raise InvalidInputError(f"the fit's (p, n) = ({fit.p}, {fit.n}) is not the "
                                f"spectrum's ({spectrum.p}, {spectrum.n})")
    if not 1 <= i <= fit.k:
        raise InvalidInputError(f"fit provides {fit.k} spikes, cannot test index {i}")
    sigma2 = fit.sigma2_hat
    lam_i = fit.lambda_hat[i - 1]
    v = interaction_term(i, fit.lambda_hat, sigma2, spectrum.n)
    kappa = kappa_factor(lam_i, sigma2, spectrum.p, fit.k, spectrum.n)
    delta, valid = stat_std_dev(lam_i, sigma2, spectrum.p, fit.k, spectrum.n, beta)
    z = (float(spectrum.eigenvalues[i - 1]) - v) / kappa - sigma2
    return SignalStat(z=z, v=v, kappa=kappa, delta=delta, delta_valid=valid)

