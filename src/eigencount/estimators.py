"""The six signal-count estimators.

Information-criterion estimators (AIC, MDL, modified AIC) minimise a
penalised likelihood over the hypothesised count k.  The sequential
estimators scan k upward and stop at the first rejected eigenvalue:

* rmt  -- Tracy-Widom threshold on l_k, calibrated to false-alarm alpha;
* srmt -- detection-limit threshold on the interaction-corrected statistic
          z_k, calibrated to detection probability alpha0;
* sns  -- per-step adaptive choice between the two tests driven by the
          closed-form misdetection scores.

The three share one scan engine, _scan_pass: sweeps count any subset of them
in one untraced pass, and each estimator runs the same pass on its own method
with a decision trace.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .noise import DEFAULT_MAX_ITER, DEFAULT_TOL, NoiseFit, estimate_noise_and_spikes
from .probabilities import (ThresholdContext, _tw_threshold, _z_threshold,
                            pe_rmt, pe_srmt, theta_rmt, theta_srmt)
from .signal_stats import SignalStat, decision_statistic
from .spectral import Spectrum, _check_real
from .tracy_widom import DEFAULT_BETA, _check_beta

LOG_CLAMP = -700.0
# The modified AIC's C: its penalty is C times AIC's.
MAIC_C = 2.0


@dataclass(frozen=True)
class EstimatorConfig:
    """The test levels and symmetry class of every estimator; solver_tol and
    solver_max_iter are the noise fit's fixed settings, to read, not set."""

    alpha: float = 0.005
    alpha0: float = 0.995
    beta: int = DEFAULT_BETA
    solver_tol: ClassVar[float] = DEFAULT_TOL
    solver_max_iter: ClassVar[int] = DEFAULT_MAX_ITER

    def __post_init__(self):
        for name in ("alpha", "alpha0"):
            _check_real(name, getattr(self, name))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if not 0.5 < self.alpha0 < 1.0:
            raise InvalidInputError("alpha0 must lie in (0.5, 1)")
        _check_beta(self.beta)
        # Python numbers, so that a numpy scalar given here reaches no scan value.
        self.__dict__.update(alpha=float(self.alpha), alpha0=float(self.alpha0),
                             beta=int(self.beta))


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
_ACCEPTED = TRACE_COLUMNS.index("accepted")


def _pinned_accepted(row: TraceRow) -> str:
    """The accepted cell of a trace row, as the pinned trace digests spell it.

    True/False on a row that applies the TW test, and on a signal-search row
    at k >= 2 that computed z_k; 1/0 on every other row, as for the other
    bool columns.  The spelling is kept so that the golden trace digests and
    perfbench's seed-0 trace fingerprints hold; ROADMAP item 1 deletes this
    helper and regenerates them.
    """
    if row.criterion == "rmt" or (row.k >= 2 and row.z_k is not None):
        return str(row.accepted)
    return str(int(row.accepted))


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
            record[_ACCEPTED] = _pinned_accepted(row)
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


def _admit(spectrum: Spectrum, config: EstimatorConfig | None) -> EstimatorConfig:
    """config, or the default EstimatorConfig for None, for an estimator run
    on spectrum; a spectrum that is not a Spectrum or any other config raises."""
    if not isinstance(spectrum, Spectrum):
        raise InvalidInputError(f"spectrum must be a Spectrum, got {type(spectrum).__name__}")
    if config is None:
        return EstimatorConfig()
    if not isinstance(config, EstimatorConfig):
        raise InvalidInputError(f"config must be an EstimatorConfig or None, got {config!r}")
    return config


def _information_criterion(spectrum: Spectrum, config: EstimatorConfig | None,
                           method: str) -> ModelOrderEstimate:
    """q_hat = argmin over k of factor * likelihood term + coefficient * k (2p - k).

    (factor, coefficient) is (2, 2) for aic, (1, ln(n) / 2) for mdl and
    (2, 2 MAIC_C) for maic.  config is admitted, though no criterion reads it.
    """
    _admit(spectrum, config)
    if method == "aic":
        factor, coefficient = 2.0, 2.0
    elif method == "mdl":
        factor, coefficient = 1.0, 0.5 * math.log(spectrum.n)
    else:
        factor, coefficient = 2.0, 2.0 * MAIC_C
    terms, degenerate = _likelihood_terms(spectrum)
    k = np.arange(terms.size)
    scores = factor * terms + coefficient * (k * (2 * spectrum.p - k))
    return ModelOrderEstimate(q_hat=int(np.argmin(scores)), method=method,
                              degenerate=degenerate)


def estimate_aic(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Akaike information criterion."""
    return _information_criterion(spectrum, config, "aic")


def estimate_mdl(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Minimum description length (Rissanen's criterion)."""
    return _information_criterion(spectrum, config, "mdl")


def estimate_modified_aic(spectrum: Spectrum,
                          config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """AIC with its penalty scaled by MAIC_C."""
    return _information_criterion(spectrum, config, "maic")


def _stat_columns(stat: SignalStat) -> dict:
    return {"v_k": stat.v, "kappa_k": stat.kappa, "delta_k": stat.delta,
            "delta_valid": stat.delta_valid}


def _adaptive(spectrum: Spectrum, fit: NoiseFit, config: EstimatorConfig):
    """sns's test at step k = fit.k: (criterion, trace columns, statistic).

    It picks the test whose misdetection score wins.  Step 1 compares the
    four signal-assumption scores; if either plain score beats its
    interacted counterpart the eigenvalue is treated as noise and the TW
    test applies.  Otherwise step 2 compares the noise-assumption scores,
    with the comparison orientation depending on whether gamma < 1.

    The scores are undefined for a non-positive fitted strength, and for a
    statistic whose deviation underflowed to zero (subnormal eigenvalues at
    large n); such a step falls back to the TW test and is flagged
    degenerate.
    """
    k = fit.k
    if fit.lambda_hat[k - 1] <= 0.0:
        return "rmt", {"degenerate": True}, None
    fit_km1 = estimate_noise_and_spikes(spectrum, k - 1)
    ctx = ThresholdContext(k=k, fit_k=fit, fit_km1=fit_km1, spectrum=spectrum,
                           gamma=spectrum.gamma, alpha=config.alpha,
                           alpha0=config.alpha0, beta=config.beta)
    if ctx.stat.delta == 0.0:
        return "rmt", {"degenerate": True, **_stat_columns(ctx.stat)}, None
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


def _tw_test(fit: NoiseFit, l_k: float, config: EstimatorConfig):
    """The TW test of l_k, k = fit.k: (threshold, accepted).

    l_k is accepted as a signal when it exceeds the TW threshold at
    false-alarm alpha.
    """
    theta = _tw_threshold(fit, config.alpha, config.beta)
    return theta, l_k > theta


def _signal_search_test(spectrum: Spectrum, fit: NoiseFit, config: EstimatorConfig,
                        stat: SignalStat | None = None):
    """The signal-search test of l_k, k = fit.k: (statistic, threshold, accepted).

    l_k is accepted when z_k exceeds the signal-search threshold at detection
    probability alpha0.  stat, if given, is the step's statistic already
    computed.  A non-positive fitted strength cannot be a signal and has no
    defined statistic: it is rejected outright, with statistic and threshold
    None.
    """
    k = fit.k
    if fit.lambda_hat[k - 1] <= 0.0:
        return None, None, False
    if stat is None:
        stat = decision_statistic(k, spectrum, fit, config.beta)
    threshold = _z_threshold(fit.sigma2_hat, spectrum.gamma, stat.delta, config.alpha0)
    return stat, threshold, stat.z > threshold


def _scan_pass(spectrum: Spectrum, config: EstimatorConfig, methods,
               trace: DecisionTrace | None = None) -> dict[str, int]:
    """The q_hat of each of rmt, srmt and sns named in methods, in one scan.

    At k = 1, 2, ..., while any requested scan still runs, the pass takes the
    shared fit and applies the TW and signal-search tests once each, as far
    as the running scans need them; each scan stops at its own first
    rejection, so its q_hat is k - 1, or spectrum.kmax if nothing rejects.
    sns applies, per step, the test its misdetection scores pick (_adaptive).

    Without a trace, sns is scored only where the two verdicts differ and
    the fitted strength is positive: elsewhere the choice cannot change its
    verdict, which is then the TW test's.  With a trace, methods names one
    scan and each step appends its TraceRow; sns is scored on every step,
    before its test, which reuses the scores' statistic.
    """
    running = [m for m in ("rmt", "srmt", "sns") if m in methods]
    q_hats = {}
    values = spectrum.eigenvalues.tolist()
    for k in range(1, spectrum.kmax + 1):
        if not running:
            break
        fit = estimate_noise_and_spikes(spectrum, k)
        l_k = values[k - 1]
        sns = "sns" in running
        stat = None
        if trace is None:
            tests = ("rmt", "srmt") if sns else running
        else:
            criterion, extra = running[0], {}
            if sns:
                criterion, extra, stat = _adaptive(spectrum, fit, config)
            tests = (criterion,)
        verdicts = {}
        if "rmt" in tests:
            theta, verdicts["rmt"] = _tw_test(fit, l_k, config)
        if "srmt" in tests:
            stat, threshold, verdicts["srmt"] = _signal_search_test(spectrum, fit, config, stat)
        if sns:
            if trace is None:
                criterion = "rmt"
                if verdicts["rmt"] != verdicts["srmt"] and fit.lambda_hat[k - 1] > 0.0:
                    criterion = _adaptive(spectrum, fit, config)[0]
            verdicts["sns"] = verdicts[criterion]
        if trace is not None:
            row = {"k": k, "l_k": l_k, "criterion": criterion, "sigma2_hat": fit.sigma2_hat,
                   "lambda_hat": fit.lambda_hat, "degenerate": fit.any_degenerate, **extra,
                   "accepted": verdicts[criterion]}
            if criterion == "rmt":
                row["theta_rmt"] = theta
            elif stat is None:
                row["degenerate"] = True
            else:
                row.update(_stat_columns(stat), z_k=stat.z, z_threshold=threshold)
            trace.rows.append(TraceRow(**row))
        for method in [m for m in running if not verdicts[m]]:
            q_hats[method] = k - 1
            running.remove(method)
    return {**q_hats, **dict.fromkeys(running, spectrum.kmax)}


def _traced_scan(spectrum: Spectrum, config: EstimatorConfig | None,
                 method: str) -> ModelOrderEstimate:
    """One sequential estimator: its scan with a trace.

    The estimate is degenerate if any step's fit or test was; the test is
    when the signal-search test rejects a non-positive strength outright.
    """
    trace = DecisionTrace(method=method)
    q_hat = _scan_pass(spectrum, _admit(spectrum, config), (method,), trace)[method]
    return ModelOrderEstimate(q_hat=q_hat, method=method, trace=trace,
                              degenerate=any(r.degenerate for r in trace.rows))


def estimate_rmt(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Sequential Tracy-Widom test: stop at the first sub-threshold l_k."""
    return _traced_scan(spectrum, config, "rmt")


def estimate_signal_search(spectrum: Spectrum,
                           config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Sequential detection-limit test on the corrected statistic z_k."""
    return _traced_scan(spectrum, config, "srmt")


def estimate_sns(spectrum: Spectrum, config: EstimatorConfig | None = None) -> ModelOrderEstimate:
    """Adaptive scan: per step, the test whose misdetection score wins."""
    return _traced_scan(spectrum, config, "sns")


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
