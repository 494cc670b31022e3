"""The six signal-count estimators.

Information-criterion estimators (AIC, MDL, modified AIC) minimise a
penalised likelihood over the hypothesised count k.  The sequential
estimators scan k upward and stop at the first rejected eigenvalue:

* rmt  -- Tracy-Widom threshold on l_k, calibrated to false-alarm alpha;
* srmt -- detection-limit threshold on the interaction-corrected statistic
          z_k, calibrated to detection probability alpha0;
* sns  -- per-step adaptive choice between the two tests driven by the
          closed-form misdetection scores.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .noise import DEFAULT_MAX_ITER, DEFAULT_TOL, NoiseFit, estimate_noise_and_spikes
from .probabilities import (ThresholdContext, _tw_threshold, _z_threshold,
                            pe_rmt, pe_srmt, theta_rmt, theta_srmt)
from .signal_stats import SignalStat, decision_statistic
from .spectral import Spectrum

LOG_CLAMP = -700.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared knobs for every estimator."""

    alpha: float = 0.005
    alpha0: float = 0.995
    beta: int = 1
    solver_tol: float = DEFAULT_TOL
    solver_max_iter: int = DEFAULT_MAX_ITER
    modified_aic_c: float = 2.0
    # Off by default: halves the eigenstructure parameter count in the
    # information criteria, the real-data degrees-of-freedom convention.
    real_dof: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if not 0.5 < self.alpha0 < 1.0:
            raise InvalidInputError("alpha0 must lie in (0.5, 1)")
        if self.beta not in (1, 2):
            raise InvalidInputError("beta must be 1 or 2")


class TraceRow(NamedTuple):
    """Per-step record of a sequential scan; unused fields stay None."""

    k: int
    l_k: float
    criterion: str
    accepted: bool
    sigma2_hat: float | None = None
    lambda_hat: tuple[float, ...] | None = None
    v_k: float | None = None
    kappa_k: float | None = None
    delta_k: float | None = None
    delta_valid: bool | None = None
    theta_rmt: float | None = None
    theta_rmt_noise: float | None = None
    theta_srmt: float | None = None
    z_k: float | None = None
    z_threshold: float | None = None
    pe_srmt_plain: float | None = None
    pe_rmt_inter: float | None = None
    pe_rmt_plain: float | None = None
    pe_srmt_inter: float | None = None
    pbar_rmt_inter: float | None = None
    pbar_rmt_plain: float | None = None
    pbar_srmt_inter: float | None = None
    pbar_srmt_plain: float | None = None
    degenerate: bool = False


TRACE_COLUMNS = TraceRow._fields


@dataclass
class DecisionTrace:
    """Ordered per-k rows from one sequential estimator run."""

    method: str
    rows: list[TraceRow] = field(default_factory=list)

    def to_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in self.rows:
            record = []
            for value in row:
                if value is None:
                    record.append("")
                elif isinstance(value, bool):
                    record.append(str(int(value)))
                elif isinstance(value, tuple):
                    record.append(";".join(f"{v:.10g}" for v in value))
                elif isinstance(value, float):
                    record.append(f"{value:.10g}")
                else:
                    record.append(str(value))
            writer.writerow(record)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class ModelOrderEstimate:
    """Estimated signal count plus the evidence that produced it."""

    q_hat: int
    method: str
    trace: DecisionTrace | None = None
    degenerate: bool = False


def _clamped_log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(np.maximum(x, 0.0)), LOG_CLAMP)


def _likelihood_terms(spectrum: Spectrum) -> tuple[np.ndarray, bool]:
    """n (p-k) ln(arithmetic/geometric mean of trailing eigenvalues), all k.

    Memoised on the spectrum, so the three information criteria share one
    evaluation; the returned array is read-only.
    """
    return spectrum._memoised(("likelihood_terms",),
                              lambda: _compute_likelihood_terms(spectrum))


def _compute_likelihood_terms(spectrum: Spectrum) -> tuple[np.ndarray, bool]:
    vals = spectrum.eigenvalues
    p, n, kmax = spectrum.p, spectrum.n, spectrum.kmax
    degenerate = bool(np.any(vals <= 0.0))
    tail_sum = np.cumsum(vals[::-1])[::-1][:kmax + 1]
    tail_log = np.cumsum(_clamped_log(vals)[::-1])[::-1][:kmax + 1]
    m = p - np.arange(kmax + 1)
    terms = n * m * (_clamped_log(tail_sum / m) - tail_log / m)
    terms.flags.writeable = False
    return terms, degenerate


def _information_criterion(spectrum: Spectrum, config: EstimatorConfig,
                           method: str) -> ModelOrderEstimate:
    """q_hat = argmin over k of factor * likelihood term + coefficient * dof.

    (factor, coefficient) is (2, 2) for aic, (1, ln(n) / 2) for mdl and
    (2, 2 c) for maic, with c = config.modified_aic_c.
    """
    if method == "aic":
        factor, coefficient = 2.0, 2.0
    elif method == "mdl":
        factor, coefficient = 1.0, 0.5 * math.log(spectrum.n)
    else:
        factor, coefficient = 2.0, 2.0 * config.modified_aic_c
    terms, degenerate = _likelihood_terms(spectrum)
    k = np.arange(terms.size)
    dof = k * (2 * spectrum.p - k)
    dof = dof / 2.0 if config.real_dof else dof.astype(float)
    scores = factor * terms + coefficient * dof
    return ModelOrderEstimate(q_hat=int(np.argmin(scores)), method=method,
                              degenerate=degenerate)


def estimate_aic(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Akaike information criterion."""
    return _information_criterion(spectrum, config or EstimatorConfig(), "aic")


def estimate_mdl(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Minimum description length (Rissanen's criterion)."""
    return _information_criterion(spectrum, config or EstimatorConfig(), "mdl")


def estimate_modified_aic(spectrum: Spectrum,
                          config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """AIC with its penalty scaled by config.modified_aic_c."""
    return _information_criterion(spectrum, config or EstimatorConfig(), "maic")


def _stat_columns(stat: SignalStat) -> dict:
    return {"v_k": stat.v, "kappa_k": stat.kappa, "delta_k": stat.delta,
            "delta_valid": stat.delta_valid}


def _always(criterion: str):
    """The policy that applies one test at every step."""
    return lambda spectrum, fit, config: (criterion, {}, None)


def _adaptive(spectrum: Spectrum, fit: NoiseFit, config: EstimatorConfig):
    """The sns policy: pick the test whose misdetection score wins.

    Step 1 compares the four signal-assumption scores; if either plain score
    beats its interacted counterpart the eigenvalue is treated as noise and
    the TW test applies.  Otherwise step 2 compares the noise-assumption
    scores, with the comparison orientation depending on whether gamma < 1.
    """
    k = fit.k
    if fit.lambda_hat[k - 1] <= 0.0:
        # No usable strength estimate: the scores are undefined, fall back
        # to the TW test and flag the step.
        return "rmt", {"degenerate": True}, None
    fit_km1 = estimate_noise_and_spikes(spectrum, k - 1, config.solver_tol,
                                        config.solver_max_iter)
    ctx = ThresholdContext(k=k, fit_k=fit, fit_km1=fit_km1, spectrum=spectrum,
                           gamma=spectrum.gamma, alpha=config.alpha,
                           alpha0=config.alpha0, beta=config.beta)
    row = {
        "pe_srmt_plain": pe_srmt(ctx, with_interaction=False).p_total,
        "pe_rmt_inter": pe_rmt(ctx, with_interaction=True).p_total,
        "pe_rmt_plain": pe_rmt(ctx, with_interaction=False).p_total,
        "pe_srmt_inter": pe_srmt(ctx, with_interaction=True).p_total,
        "theta_rmt": theta_rmt(ctx, assume_signal=True),
        "theta_srmt": theta_srmt(ctx),
        **_stat_columns(ctx.stat),
    }
    if (row["pe_srmt_plain"] > row["pe_rmt_inter"]
            or row["pe_rmt_plain"] > row["pe_srmt_inter"]):
        return "rmt", row, ctx.stat
    row.update(
        pbar_rmt_inter=pe_rmt(ctx, with_interaction=True, assume_signal=False).p_total,
        pbar_rmt_plain=pe_rmt(ctx, with_interaction=False, assume_signal=False).p_total,
        pbar_srmt_inter=pe_srmt(ctx, with_interaction=True, assume_signal=False).p_total,
        pbar_srmt_plain=pe_srmt(ctx, with_interaction=False, assume_signal=False).p_total,
        theta_rmt_noise=theta_rmt(ctx, assume_signal=False))
    if spectrum.gamma < 1.0:
        pick_srmt = row["pbar_rmt_inter"] > row["pbar_srmt_plain"]
    else:
        pick_srmt = row["pbar_srmt_inter"] > row["pbar_rmt_plain"]
    return ("srmt" if pick_srmt else "rmt"), row, ctx.stat


def _scan(spectrum: Spectrum, config: EstimatorConfig, method: str,
          choose) -> ModelOrderEstimate:
    """The sequential scan shared by rmt, srmt and sns.

    At each k = 1, 2, ... the policy choose(spectrum, fit_k, config) names
    the test for l_k and returns extra trace columns, plus the step's
    decision statistic if it computed one (else None); the scan stops at
    the first rejection, so q_hat = k - 1, or spectrum.kmax if nothing
    rejects.

    * rmt:  l_k > the TW threshold at false-alarm alpha;
    * srmt: z_k > the signal-search threshold at detection probability
      alpha0.  A non-positive estimated strength cannot be a signal and has
      no defined statistic; it is rejected outright and flagged.

    The estimate is degenerate if any step's fit or test was.
    """
    trace = DecisionTrace(method=method)
    values = spectrum.eigenvalues.tolist()
    q_hat = kmax = spectrum.kmax
    for k in range(1, kmax + 1):
        fit = estimate_noise_and_spikes(spectrum, k, config.solver_tol,
                                        config.solver_max_iter)
        criterion, extra, stat = choose(spectrum, fit, config)
        l_k = values[k - 1]
        row = {"k": k, "l_k": l_k, "criterion": criterion,
               "sigma2_hat": fit.sigma2_hat, "lambda_hat": fit.lambda_hat,
               "degenerate": fit.any_degenerate, **extra}
        if criterion == "rmt":
            row["theta_rmt"] = _tw_threshold(fit, config.alpha, config.beta)
            accepted = l_k > row["theta_rmt"]
        elif fit.lambda_hat[k - 1] <= 0.0:
            accepted, row["degenerate"] = False, True
        else:
            if stat is None:
                stat = decision_statistic(k, spectrum, fit, config.beta)
            threshold = _z_threshold(fit.sigma2_hat, spectrum.gamma, stat.delta,
                                     config.alpha0)
            accepted = stat.z > threshold
            row.update(_stat_columns(stat), z_k=stat.z, z_threshold=threshold)
        row["accepted"] = accepted
        trace.rows.append(TraceRow(**row))
        if not accepted:
            q_hat = k - 1
            break
    return ModelOrderEstimate(q_hat=q_hat, method=method, trace=trace,
                              degenerate=any(r.degenerate for r in trace.rows))


def estimate_rmt(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Sequential Tracy-Widom test: stop at the first sub-threshold l_k."""
    return _scan(spectrum, config or EstimatorConfig(), "rmt", _always("rmt"))


def estimate_signal_search(spectrum: Spectrum,
                           config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Sequential detection-limit test on the corrected statistic z_k."""
    return _scan(spectrum, config or EstimatorConfig(), "srmt", _always("srmt"))


def estimate_sns(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Adaptive scan: per step, the test whose misdetection score wins."""
    return _scan(spectrum, config or EstimatorConfig(), "sns", _adaptive)


ESTIMATORS = {
    "aic": estimate_aic,
    "mdl": estimate_mdl,
    "maic": estimate_modified_aic,
    "rmt": estimate_rmt,
    "srmt": estimate_signal_search,
    "sns": estimate_sns,
}

METHOD_ORDER = tuple(ESTIMATORS)


def estimate(spectrum: Spectrum, method: str,
             config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    if method not in ESTIMATORS:
        raise InvalidInputError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_ORDER)}")
    return ESTIMATORS[method](spectrum, config)
