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
from functools import lru_cache

from .errors import InvalidInputError
from .noise import NoiseFit
from .normal import norm_cdf, normal_tail_inv
from .signal_stats import decision_statistic
from .spectral import Spectrum, detection_limit
from .tracy_widom import DEFAULT_BETA, _edge_constants, tw_cdf, tw_quantile


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
    return detection_limit(sigma2, gamma) - delta * _q_inv(alpha0)


def _quotient(a: float, b: float) -> float:
    """a / b for b >= 0; at b = 0, IEEE's +-inf, or NaN for 0 / 0 and NaN / 0.

    The statistic's deviation underflows to zero on spectra of subnormal
    eigenvalues at large n.  The score it divides then saturates, or turns
    NaN, which ProbPair rejects, as float64 arithmetic would have it.
    """
    return a / b if b else a * math.inf


def _tw_edge(fit: NoiseFit) -> tuple[float, float, float]:
    """(noise level, TW centering, TW scaling) of the p - k noise eigenvalues
    that the fit's hypothesis k leaves."""
    mu, sc = _edge_constants(fit.n, fit.p - fit.k)
    return fit.sigma2_hat, mu, sc


def _tw_threshold(fit: NoiseFit, alpha: float, beta: int) -> float:
    """The TW threshold sigma2 (mu + s(alpha) sc) at the fit's noise edge."""
    sigma2, mu, sc = _tw_edge(fit)
    return sigma2 * (mu + _s_alpha(alpha, beta) * sc)


@dataclass(frozen=True, init=False)
class ProbPair:
    """Miss/false probabilities of one test variant at one step."""

    p_miss: float
    p_false: float

    def __init__(self, p_miss: float, p_false: float):
        # Sets the fields directly: the frozen-dataclass __init__ routes each
        # through object.__setattr__, and the scores build several per step.
        if not (0.0 <= p_miss <= 1.0 and 0.0 <= p_false <= 1.0):
            raise InvalidInputError("probabilities must lie in [0, 1]")
        self.__dict__.update(p_miss=p_miss, p_false=p_false)

    @property
    def p_total(self) -> float:
        return self.p_miss + self.p_false


@dataclass(frozen=True, init=False)
class ThresholdContext:
    """Everything step k of the adaptive scan needs to score both tests.

    What the scores read is computed once, at construction: the
    signal-search statistic (stat), theta_srmt, and the TW edge and
    threshold of each hypothesis (_edges).  The pe_* and theta_* functions
    only read these.  gamma must be spectrum.gamma, and both fits must have
    the spectrum's (p, n).
    """

    k: int
    fit_k: NoiseFit
    fit_km1: NoiseFit
    spectrum: Spectrum
    gamma: float
    alpha: float
    alpha0: float
    beta: int = DEFAULT_BETA

    def __init__(self, k: int, fit_k: NoiseFit, fit_km1: NoiseFit, spectrum: Spectrum,
                 gamma: float, alpha: float, alpha0: float, beta: int = DEFAULT_BETA):
        shape = (spectrum.p, spectrum.n)
        if (gamma != spectrum.gamma or (fit_k.p, fit_k.n) != shape
                or (fit_km1.p, fit_km1.n) != shape):
            raise InvalidInputError("gamma and the fits must be those of the spectrum")
        if fit_k.k != k or fit_km1.k != k - 1:
            raise InvalidInputError("fits do not match the step index")
        if fit_k.lambda_hat[k - 1] <= 0.0:
            raise InvalidInputError("tested strength must be positive")
        stat = decision_statistic(k, spectrum, fit_k, beta)
        # The bulk edge (1 + sqrt(gamma)) sigma2 of hypothesis k, and the
        # threshold on l_k equivalent to the signal-search test on z.
        bulk_edge = (1.0 + math.sqrt(gamma)) * fit_k.sigma2_hat
        theta_srmt = (bulk_edge - stat.delta * _q_inv(alpha0)) * stat.kappa
        # (sigma2, mu, sc, TW threshold) at the noise edge each variant uses,
        # indexed by assume_signal: hypothesis k-1 under the noise
        # assumption, hypothesis k under the signal one.
        edges = tuple([(*_tw_edge(fit), _tw_threshold(fit, alpha, beta))
                       for fit in (fit_km1, fit_k)])
        # Set directly, as ProbPair does; the context stays frozen.
        self.__dict__.update(k=k, fit_k=fit_k, fit_km1=fit_km1, spectrum=spectrum,
                             gamma=gamma, alpha=alpha, alpha0=alpha0, beta=beta,
                             stat=stat, _bulk_edge=bulk_edge, _theta_srmt=theta_srmt,
                             _edges=edges)

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


def theta_rmt(ctx: ThresholdContext, assume_signal: bool = True) -> float:
    """Tracy-Widom threshold on l_k for the noise-eigenvalue test."""
    return ctx._edges[assume_signal][3]


def theta_srmt(ctx: ThresholdContext) -> float:
    """Threshold on l_k equivalent to the signal-search test on z."""
    return ctx._theta_srmt


def pe_rmt(ctx: ThresholdContext, with_interaction: bool,
           assume_signal: bool = True) -> ProbPair:
    """Misdetection score of the noise-eigenvalue (TW-threshold) test."""
    stat = ctx.stat
    sigma2, _, sc, theta = ctx._edges[assume_signal]
    v = stat.v if with_interaction else 0.0
    if not stat.delta_valid:
        # Subcritical strength: the test cannot detect such a spike.
        p_miss = 1.0
    else:
        arg = -_quotient((theta + v) / stat.kappa - ctx._bulk_edge, stat.delta)
        p_miss = norm_cdf(arg)

    if with_interaction:
        edge_scale = sigma2 * sc
        # A subnormal noise level can take sigma2 * sc down to zero.
        offset = v / edge_scale if edge_scale else v / sigma2 / sc
        p_false = 1.0 - tw_cdf(_s_alpha(ctx.alpha, ctx.beta) - offset, ctx.beta)
    else:
        p_false = ctx.alpha
    return ProbPair(p_miss=p_miss, p_false=p_false)


def pe_srmt(ctx: ThresholdContext, with_interaction: bool,
            assume_signal: bool = True) -> ProbPair:
    """Misdetection score of the signal-search test."""
    stat = ctx.stat
    if not stat.delta_valid:
        # Subcritical strength: neither test can detect such a spike, so
        # both miss variants saturate.
        p_miss = 1.0
    elif not with_interaction:
        p_miss = 1.0 - ctx.alpha0
    else:
        p_miss = norm_cdf(_q_inv(ctx.alpha0) + _quotient(stat.v, stat.kappa * stat.delta))

    v = stat.v if with_interaction else 0.0
    sigma2, mu, sc, _ = ctx._edges[assume_signal]
    p_false = 1.0 - tw_cdf(((ctx._theta_srmt + v) / sigma2 - mu) / sc, ctx.beta)
    return ProbPair(p_miss=p_miss, p_false=p_false)
