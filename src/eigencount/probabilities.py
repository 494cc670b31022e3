"""Closed-form miss/over-detection scores for the two sequential tests.

These scores drive the adaptive criterion selection: at each step k they
approximate how likely each test is to misclassify the k-th eigenvalue,
under the hypothesis that it comes from a signal (step 1) or from noise
(step 2, the "barred" variants).  The p_total of a score pair is a
comparison score, not a probability, and is never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InvalidInputError
from .noise import NoiseFit
from .normal import norm_cdf, normal_tail_inv
from .signal_stats import SignalStat, decision_statistic
from .spectral import Spectrum
from .tracy_widom import centering_mu, scaling_sigma, tw_cdf, tw_quantile


@lru_cache(maxsize=64)
def _s_alpha(alpha: float, beta: int) -> float:
    return tw_quantile(alpha, beta)


@lru_cache(maxsize=64)
def _q_inv(alpha0: float) -> float:
    """Q^{-1}(alpha0): a per-config constant, computed once per process."""
    return normal_tail_inv(alpha0)


def _z_threshold(sigma2: float, gamma: float, delta: float, alpha0: float) -> float:
    """The signal-search threshold on z: sigma2 sqrt(gamma) - delta Q^{-1}(alpha0).

    Q^{-1} is the upper-tail inverse, so for alpha0 > 0.5 the threshold sits
    above the raw detection limit by |Q^{-1}(alpha0)| standard deviations.
    """
    return sigma2 * math.sqrt(gamma) - delta * _q_inv(alpha0)


def _tw_edge(fit: NoiseFit) -> tuple[float, float, float]:
    """(noise level, TW centering, TW scaling) of the p - k noise eigenvalues
    that the fit's hypothesis k leaves."""
    m = fit.p - fit.k
    return fit.sigma2_hat, centering_mu(fit.n, m), scaling_sigma(fit.n, m)


def _tw_threshold(fit: NoiseFit, alpha: float, beta: int) -> float:
    """The TW threshold sigma2 (mu + s(alpha) sc) at the fit's noise edge."""
    sigma2, mu, sc = _tw_edge(fit)
    return sigma2 * (mu + _s_alpha(alpha, beta) * sc)


@dataclass(frozen=True)
class ProbPair:
    """Miss/false probabilities of one test variant at one step."""

    p_miss: float
    p_false: float
    saturated: bool = False

    def __post_init__(self):
        if not (0.0 <= self.p_miss <= 1.0 and 0.0 <= self.p_false <= 1.0):
            raise InvalidInputError("probabilities must lie in [0, 1]")

    @property
    def p_total(self) -> float:
        return self.p_miss + self.p_false


@dataclass(frozen=True)
class ThresholdContext:
    """Everything step k of the adaptive scan needs to score both tests."""

    k: int
    fit_k: NoiseFit
    fit_km1: NoiseFit
    spectrum: Spectrum
    gamma: float
    alpha: float
    alpha0: float
    beta: int = 1

    def __post_init__(self):
        if self.fit_k.k != self.k or self.fit_km1.k != self.k - 1:
            raise InvalidInputError("fits do not match the step index")
        if float(self.fit_k.lambda_hat[self.k - 1]) <= 0.0:
            raise InvalidInputError("tested strength must be positive")

    @cached_property
    def stat(self) -> SignalStat:
        """The signal-search statistic z_k and its ingredients."""
        return decision_statistic(self.k, self.spectrum, self.fit_k, self.beta)

    @property
    def v_k(self) -> float:
        return self.stat.v

    @property
    def kappa_k(self) -> float:
        return self.stat.kappa

    @property
    def delta_k(self) -> float:
        return self.stat.delta

    @property
    def delta_valid(self) -> bool:
        return self.stat.delta_valid

    def _fit(self, assume_signal: bool) -> NoiseFit:
        """The fit whose noise edge the requested variant uses: hypothesis k
        under the signal assumption, hypothesis k-1 under the noise one."""
        return self.fit_k if assume_signal else self.fit_km1


def theta_rmt(ctx: ThresholdContext, assume_signal: bool = True) -> float:
    """Tracy-Widom threshold on l_k for the noise-eigenvalue test."""
    return _tw_threshold(ctx._fit(assume_signal), ctx.alpha, ctx.beta)


def theta_srmt(ctx: ThresholdContext) -> float:
    """Threshold on l_k equivalent to the signal-search test on z."""
    sigma2 = ctx.fit_k.sigma2_hat
    return (sigma2 * (1.0 + math.sqrt(ctx.gamma))
            - ctx.delta_k * _q_inv(ctx.alpha0)) * ctx.kappa_k


def pe_rmt(ctx: ThresholdContext, with_interaction: bool,
           assume_signal: bool = True) -> ProbPair:
    """Misdetection score of the noise-eigenvalue (TW-threshold) test."""
    theta = theta_rmt(ctx, assume_signal)
    v = ctx.v_k if with_interaction else 0.0
    if not ctx.delta_valid:
        # Subcritical strength: the test cannot detect such a spike.
        p_miss, saturated = 1.0, True
    else:
        arg = -((theta + v) / ctx.kappa_k
                - (1.0 + math.sqrt(ctx.gamma)) * ctx.fit_k.sigma2_hat) / ctx.delta_k
        p_miss, saturated = norm_cdf(arg), False

    if with_interaction:
        sigma2, _, sc = _tw_edge(ctx._fit(assume_signal))
        p_false = 1.0 - tw_cdf(_s_alpha(ctx.alpha, ctx.beta) - ctx.v_k / (sigma2 * sc),
                               ctx.beta)
    else:
        p_false = ctx.alpha
    return ProbPair(p_miss=p_miss, p_false=p_false, saturated=saturated)


def pe_srmt(ctx: ThresholdContext, with_interaction: bool,
            assume_signal: bool = True) -> ProbPair:
    """Misdetection score of the signal-search test."""
    if not ctx.delta_valid:
        # Subcritical strength: neither test can detect such a spike, so
        # both miss variants saturate.
        p_miss, saturated = 1.0, True
    elif not with_interaction:
        p_miss, saturated = 1.0 - ctx.alpha0, False
    else:
        p_miss = norm_cdf(_q_inv(ctx.alpha0)
                          + ctx.v_k / (ctx.kappa_k * ctx.delta_k))
        saturated = False

    theta = theta_srmt(ctx)
    v = ctx.v_k if with_interaction else 0.0
    sigma2, mu, sc = _tw_edge(ctx._fit(assume_signal))
    p_false = 1.0 - tw_cdf(((theta + v) / sigma2 - mu) / sc, ctx.beta)
    return ProbPair(p_miss=p_miss, p_false=p_false, saturated=saturated)
