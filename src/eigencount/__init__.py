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
from .signal_stats import lawley_expectation
from .simulation import (PRESET_NAMES, ScenarioSpec, SweepResult,
                         generate_snapshots, parse_scenario, preset_scenario,
                         run_sweep, run_trial)
from .spectral import (PopulationModel, SnapshotMatrix, Spectrum, eig_sym_desc,
                       sample_covariance)
from .tracy_widom import tw_cdf, tw_quantile

__version__ = "0.1.0"
