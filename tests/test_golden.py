"""Golden gate: the seeded q_hats and decision traces must not move.

Pins the sha256 of every estimator's q_hat and of the rmt / srmt / sns trace
CSVs on a fixed set of spectra: the fig4, fig7 and fig11 desk points with
four trials each, one rank-deficient geometry (p = 20, n = 10), an "edge"
set of spectra that drive the scans through their rare branches (see
test_edge_case_reaches_rare_branches), and a "random" set of seeded
adversarial spectra (ties, zeros, p >> n, p = 2, 1e+-12 ranges and deep
scans; see test_random_case_covers_its_kinds), where an estimator that
raises contributes its error class instead of a q_hat and a trace.  It also
pins the sha256 of the run_sweep CSV of every preset's desk grid (four
trials per point, jobs=1), the path that counts trials through run_trial
rather than the estimators.  A change that is meant to keep the arithmetic
identical (caching, fast paths, refactors of the scan loops) must leave
every hash as it is.
"""

import hashlib

import numpy as np
import pytest

from eigencount.errors import EigencountError
from eigencount.estimators import ESTIMATORS, METHOD_ORDER, EstimatorConfig
from eigencount.simulation import (PRESET_NAMES, ScenarioSpec, generate_snapshots,
                                   preset_scenario, run_sweep, trial_rng)
from eigencount.spectral import Spectrum, eig_sym_desc, sample_covariance

TRIALS = 4
BASE_SEED = 20140519
SCAN_METHODS = ("rmt", "srmt", "sns")
# Hand-picked spectra, each reaching a scan branch the seeded cases miss:
# the sns fallback to TW and the srmt reject on a non-positive strength
# (first), sns and srmt scans running to full depth (second and third).
EDGE_SPECTRA = (([6.92, 1.11, 1.03], 39), ([1.28, 0.25, 0.05], 20),
                ([3.14, 1.37, 0.35], 39))
# (p, n, trial) draws of a three-spike scenario whose sns scan rejects at a
# step-2 choice: srmt with gamma >= 1 (first), rmt with gamma < 1 (second).
EDGE_DRAWS = ((30, 20, 16), (40, 80, 13))
RANDOM_COUNT = 300
RANDOM_SEED = 5


def _random_values(kind, rng):
    """(eigenvalues, n) of one random spectrum of the given kind."""
    if kind == "spread":
        p = int(rng.integers(2, 25))
        return rng.lognormal(0.0, 1.5, p), int(rng.integers(1, 120))
    if kind == "ties":
        p = int(rng.integers(2, 16))
        return rng.integers(0, 4, p) * 1.5 + 0.5, int(rng.integers(2, 60))
    if kind == "zeros":
        p = int(rng.integers(3, 20))
        values = rng.exponential(2.0, p)
        values[p - int(rng.integers(1, p // 2 + 1)):] = 0.0
        return values, int(rng.integers(2, 60))
    if kind == "wide":  # p >> n
        p = int(rng.integers(30, 80))
        return rng.exponential(1.0, p), int(rng.integers(1, 8))
    if kind == "pair":  # p = 2
        return rng.exponential(3.0, 2), int(rng.integers(1, 50))
    if kind == "range":  # 1e+-12 dynamic range
        p = int(rng.integers(2, 14))
        return 10.0 ** rng.uniform(-12.0, 12.0, p), int(rng.integers(1, 80))
    # "deep": many strong spikes over a unit noise floor, so the scans run
    # to k >= 9.
    p = int(rng.integers(20, 40))
    q = int(rng.integers(9, 14))
    values = 1.0 + rng.normal(0.0, 0.05, p)
    values[:q] = np.geomspace(60.0, 8.0, q) * rng.uniform(0.8, 1.2, q)
    return values, int(rng.integers(300, 900))


RANDOM_KINDS = ("spread", "ties", "zeros", "wide", "pair", "range", "deep")


def _cases(name):
    if name == "random":
        rng = np.random.default_rng(RANDOM_SEED)
        for i in range(RANDOM_COUNT):
            values, n = _random_values(RANDOM_KINDS[i % len(RANDOM_KINDS)], rng)
            yield Spectrum.from_values(values, n)
        return
    if name == "edge":
        for values, n in EDGE_SPECTRA:
            yield Spectrum.from_values(values, n)
        spec = ScenarioSpec(lambdas=(2.0, 1.8, 1.6), base_seed=BASE_SEED)
        for p, n, idx in EDGE_DRAWS:
            snapshots = generate_snapshots(spec.model(p), n, trial_rng(spec.base_seed, idx))
            yield eig_sym_desc(sample_covariance(snapshots.data), n)
        return
    if name == "rank-deficient":
        spec = ScenarioSpec(lambdas=(9.0, 6.0, 4.0, 3.0, 2.5), p=20, n=10,
                            trials=TRIALS, base_seed=BASE_SEED)
    else:
        spec = preset_scenario(name, trials=TRIALS, base_seed=BASE_SEED)
    for _, p, n in spec.sweep_points():
        for idx in range(TRIALS):
            snapshots = generate_snapshots(spec.model(p), n, trial_rng(spec.base_seed, idx))
            yield eig_sym_desc(sample_covariance(snapshots.data), n)


def golden_digests(name):
    """(sha256 of the q_hats, sha256 of the rmt/srmt/sns trace CSVs)."""
    config = EstimatorConfig()
    q_hats, traces = [], []
    for spectrum in _cases(name):
        outcomes = []
        for method in METHOD_ORDER:
            try:
                result = ESTIMATORS[method](spectrum, config)
            except EigencountError as exc:
                outcomes.append(type(exc).__name__)
                if method in SCAN_METHODS:
                    traces.append(type(exc).__name__)
                continue
            outcomes.append(result.q_hat)
            if method in SCAN_METHODS:
                traces.append(result.trace.to_csv_string())
        q_hats.append(tuple(outcomes))
    return (hashlib.sha256(repr(q_hats).encode()).hexdigest(),
            hashlib.sha256("".join(traces).encode()).hexdigest())


GOLDEN = {
    "fig4": ("a03602f4f43d0e1ae04098ef11b6c8d2ba95390593e5c17bcf75b2cbfcd51a1f",
             "48ad73787d2731a08086a25cfe11179392998e4fb6dbff7bc90f0561ba4f440b"),
    "fig7": ("aad3194b2ee229429ae894bdea60e7aca0e38517aa54a2cff820c5a181dfa33e",
             "fbc9d2a45b9728156eed29b9b93625b708e238f5abe2b373d15467453dee6b8a"),
    "fig11": ("7bf854440cafa0d3a908378d13b4e0fad854e81a63d41725fd8092bb8cc35052",
              "0c3dcc87d4946bd3ed6b3286321752055a31f43c31bfe820de1152a5840f86ae"),
    "rank-deficient": ("c6bcc67a98b48ef28f56cee94d230d07ef7a37ce755d98311ec3cec97c40ef3a",
                       "70b420528b1e50cb5977f7d02389489407f6c627e3a6d09fb192258422be6b26"),
    "edge": ("d0a386806fd78b8029cc232b85f59911c03374fbc64a24083f66cef1f76d7be9",
             "6013669b0c30dfe4eb2728ae19ef5820dd07aafa3dccfc21ec42a085d8fd9c90"),
    "random": ("b90485d5f655615006ae99442866f277b7723dc75c57fe3d85e0ae3bf81b6faf",
               "efc28786ccd341012c0dcbf0f1a2236c8aeccdbc0a008b8887cfb6df4d061989"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name):
    q_digest, trace_digest = golden_digests(name)
    assert q_digest == GOLDEN[name][0], f"{name}: q_hats moved"
    assert trace_digest == GOLDEN[name][1], f"{name}: trace CSVs moved"


SWEEP_GOLDEN = {
    "fig1": "2b26e461a8c947bb8a58fcd5a03c88053d9f1a2897a1b2df2f837137ba5e8bd1",
    "fig2": "e57b699ca0ccb5c36157c6d42251ff6ddc6aecbfa313f90294b1a53416a4a29b",
    "fig3": "e57b699ca0ccb5c36157c6d42251ff6ddc6aecbfa313f90294b1a53416a4a29b",
    "fig4": "312ac61f5c8690256c389c71af38f226a3774c924b9ce68aad5a3ded5aade3e1",
    "fig5": "c13aa456af5fd712fa45358f43ca35017f6c6faa7895b97a3df94071c427f35d",
    "fig6": "14fd8ab422bccefbffacbac70efa87ab91d5caa29390bf8af120315636440487",
    "fig7": "9a7e44ceab01e14fff0e37dc487b4c19ca5053731046c5d14d6cd4904640a671",
    "fig8": "5ef6cb048ab2df6cdeaa7d023a501f59b5371111470c7d106f2abab466b8e2e5",
    "fig9": "f502a9cde3980120b87c2ab3c73c915dec2a211ea24b545811671363403262ed",
    "fig10": "441a00c03d4e22e967660f43f6269faa57f83ce1b86e6af6eba3039fb4709c12",
    "fig11": "58b96f952a49316e250d3e440cda9997e1e771180e13b7140cec7754410a59bc",
}


def test_sweep_golden_covers_every_preset():
    assert sorted(SWEEP_GOLDEN) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_csv_golden(name):
    csv = run_sweep(preset_scenario(name, trials=TRIALS, base_seed=BASE_SEED),
                    jobs=1).to_csv_string()
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_GOLDEN[name], \
        f"{name}: sweep CSV moved"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_values_are_python_scalars(name):
    """Every trace row of every golden spectrum holds Python values: accepted
    is a bool, and each other cell None, an int, a str, a float, a bool or a
    tuple of floats; no numpy scalar."""
    kinds = (type(None), int, str, float, bool)
    config = EstimatorConfig()
    for spectrum in _cases(name):
        for method in SCAN_METHODS:
            try:
                rows = ESTIMATORS[method](spectrum, config).trace.rows
            except EigencountError:
                continue
            for row in rows:
                assert type(row.accepted) is bool
                for value in row:
                    if type(value) is tuple:
                        assert all(type(v) is float for v in value)
                    else:
                        assert type(value) in kinds, (method, row)


def test_rank_deficient_case_is_rank_deficient():
    spectrum = next(_cases("rank-deficient"))
    assert spectrum.p == 20 and spectrum.n == 10
    assert np.count_nonzero(spectrum.eigenvalues > 1e-9) <= 10


def test_edge_case_reaches_rare_branches():
    config = EstimatorConfig()
    fallback, sns_full, srmt_full, step2_srmt, step2_rmt = (
        {m: ESTIMATORS[m](spectrum, config) for m in SCAN_METHODS}
        for spectrum in _cases("edge"))

    # sns: no usable strength at k = 2, so the TW test applies, unscored.
    row = fallback["sns"].trace.rows[-1]
    assert (row.k, row.criterion, row.accepted, row.degenerate) == (2, "rmt", False, True)
    assert row.pe_srmt_plain is None and row.theta_rmt is not None
    # srmt: a non-positive strength is rejected with no statistic.
    row = fallback["srmt"].trace.rows[-1]
    assert (row.k, row.accepted, row.degenerate, row.z_k) == (2, False, True, None)

    assert sns_full["sns"].q_hat == 2 and sns_full["sns"].trace.rows[-1].accepted
    assert srmt_full["srmt"].q_hat == 2 and srmt_full["srmt"].trace.rows[-1].accepted

    for result, criterion in ((step2_srmt, "srmt"), (step2_rmt, "rmt")):
        row = result["sns"].trace.rows[-1]
        assert row.criterion == criterion and not row.accepted
        assert row.pbar_rmt_inter is not None
        assert row.k > 1 and result["sns"].q_hat == row.k - 1
    spectra = list(_cases("edge"))
    assert spectra[3].gamma >= 1.0 > spectra[4].gamma


def test_random_case_covers_its_kinds():
    spectra = list(_cases("random"))
    assert len(spectra) == RANDOM_COUNT
    assert any(s.p == 2 for s in spectra)
    assert any(s.p >= 10 * s.n for s in spectra)
    assert any(np.any(np.diff(s.eigenvalues) == 0.0) for s in spectra)
    assert any(s.eigenvalues[-1] == 0.0 for s in spectra)
    assert any(s.eigenvalues[0] >= 1e20 * s.eigenvalues[-1] > 0.0 for s in spectra)
    config = EstimatorConfig()
    depths, failures = [], 0
    for spectrum in spectra:
        for method in SCAN_METHODS:
            try:
                depths.append(len(ESTIMATORS[method](spectrum, config).trace.rows))
            except EigencountError:
                failures += 1
    assert max(depths) >= 9 and failures > 0
