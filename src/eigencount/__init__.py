"""Eigenvalue-based estimation of the number of signals in noise.

Six estimators over the eigenvalues of a sample covariance matrix (AIC,
MDL, modified AIC, a Tracy-Widom sequential test, a signal-search test on
an interaction-corrected statistic, and an adaptive combination of the two
sequential tests), plus a reproducible Monte Carlo harness for
misdetection-probability experiments.
"""

from .errors import (DataError, DegenerateModelError, EigencountError,
                     InvalidInputError, SolverError)
from .estimators import (ESTIMATORS, METHOD_ORDER, DecisionTrace,
                         EstimatorConfig, ModelOrderEstimate, estimate,
                         estimate_aic, estimate_mdl, estimate_modified_aic,
                         estimate_rmt, estimate_signal_search, estimate_sns)
from .noise import NoiseFit, estimate_noise_and_spikes
from .probabilities import (ProbPair, ThresholdContext, pe_rmt, pe_srmt,
                            theta_rmt, theta_srmt)
from .normal import normal_tail_inv
from .signal_stats import (SignalStat, decision_statistic, fluctuation_params,
                           lawley_expectation)
from .simulation import (PRESET_NAMES, ScenarioSpec, SweepResult,
                         generate_snapshots, parse_scenario, preset_scenario,
                         run_sweep, run_trial)
from .spectral import (PopulationModel, SnapshotMatrix, Spectrum,
                       detection_limit, eig_sym_desc, sample_covariance,
                       spike_limit)
from .tracy_widom import centering_mu, scaling_sigma, tw_cdf, tw_quantile

__version__ = "0.1.0"
