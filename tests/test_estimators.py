import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigencount as ec
from eigencount.errors import InvalidInputError
from eigencount.estimators import TRACE_COLUMNS
from eigencount.normal import normal_tail_inv
from eigencount.probabilities import _tw_threshold, _z_threshold
from eigencount.signal_stats import decision_statistic
from eigencount.simulation import generate_snapshots, trial_rng
from eigencount.tracy_widom import centering_mu, scaling_sigma
from tests.conftest import sampled_spectrum, spectrum_from_values


def criterion_table(values, n, penalty_fn):
    """Exhaustive information-criterion table, straight from the formulas."""
    values = np.asarray(values, dtype=float)
    p = values.size
    scores = []
    for k in range(min(p, n)):
        tail = values[k:]
        a = tail.mean()
        g = np.exp(np.log(tail).mean())
        scores.append(-2.0 * n * (p - k) * math.log(g / a) + penalty_fn(k, p))
    return np.array(scores)


def random_spectrum(rng, p=12, n=30):
    a = rng.randn(p, n)
    return ec.eig_sym_desc(ec.sample_covariance(a), n)


class TestInformationCriteria:
    def test_flat_spectrum_gives_zero(self):
        spectrum = spectrum_from_values(np.full(20, 3.7), 50)
        assert ec.estimate_aic(spectrum).q_hat == 0
        assert ec.estimate_mdl(spectrum).q_hat == 0
        assert ec.estimate_modified_aic(spectrum).q_hat == 0

    def test_toy_spectrum_matches_brute_force(self):
        values, n = np.array([8.0, 1.05, 0.95]), 500
        spectrum = spectrum_from_values(values, n)
        aic_scores = criterion_table(values, n, lambda k, p: 2.0 * k * (2 * p - k))
        assert ec.estimate_aic(spectrum).q_hat == int(np.argmin(aic_scores))
        maic_scores = criterion_table(values, n, lambda k, p: 4.0 * k * (2 * p - k))
        maic = ec.estimate_modified_aic(spectrum)
        assert maic.q_hat == int(np.argmin(maic_scores))
        # MDL keeps the classical single-likelihood form
        mdl_scores = criterion_table(values, n, lambda k, p: k * (2 * p - k) * math.log(n)) / 2.0
        assert ec.estimate_mdl(spectrum).q_hat == int(np.argmin(mdl_scores))

    def test_random_spectra_match_brute_force(self):
        rng = np.random.RandomState(31)
        for _ in range(30):
            spectrum = random_spectrum(rng)
            values, n = spectrum.eigenvalues, spectrum.n
            aic_scores = criterion_table(values, n, lambda k, p: 2.0 * k * (2 * p - k))
            assert ec.estimate_aic(spectrum).q_hat == int(np.argmin(aic_scores))

    def test_scale_invariance(self):
        rng = np.random.RandomState(34)
        for _ in range(25):
            spectrum = random_spectrum(rng)
            c = float(rng.uniform(0.01, 100.0))
            scaled = ec.Spectrum(spectrum.eigenvalues * c, spectrum.p, spectrum.n)
            for est in (ec.estimate_aic, ec.estimate_mdl, ec.estimate_modified_aic):
                assert est(spectrum).q_hat == est(scaled).q_hat

    def test_zero_eigenvalues_flagged_not_fatal(self):
        values = np.array([5.0, 2.0, 1.0, 0.0, 0.0])
        spectrum = spectrum_from_values(values, 3)
        result = ec.estimate_aic(spectrum)
        assert result.degenerate
        assert 0 <= result.q_hat <= 2

    def test_aic_overestimation_conventions(self):
        """With the classical complex-data penalty k (2p - k) on real data
        the AIC is conservative on pure noise."""
        p, n, trials = 100, 200, 400
        model = ec.PopulationModel(np.array([]), 1.0, p)
        over = 0
        for t in range(trials):
            snap = generate_snapshots(model, n, trial_rng(41, t))
            spectrum = ec.eig_sym_desc(ec.sample_covariance(snap.data), n)
            over += ec.estimate_aic(spectrum).q_hat > 0
        assert over / trials <= 0.02

    def test_mdl_overestimation_negligible(self):
        p, n, trials = 100, 200, 400
        model = ec.PopulationModel(np.array([]), 1.0, p)
        over = 0
        for t in range(trials):
            snap = generate_snapshots(model, n, trial_rng(41, t))
            spectrum = ec.eig_sym_desc(ec.sample_covariance(snap.data), n)
            over += ec.estimate_mdl(spectrum).q_hat > 0
        assert over / trials <= 0.01


def idealised_spike_spectrum(strength, p, n, gamma):
    """Unit noise and one spike at its almost-sure limit
    (lam + sigma2) (1 + gamma sigma2 / lam); strength must be supercritical."""
    assert strength > math.sqrt(gamma)
    values = np.full(p, 1.0)
    values[0] = (strength + 1.0) * (1.0 + gamma * 1.0 / strength)
    return ec.Spectrum(values, p, n)


class TestRmtEstimator:
    def test_flat_spectrum(self):
        spectrum = spectrum_from_values(np.full(100, 1.0), 200)
        assert ec.estimate_rmt(spectrum).q_hat == 0

    def test_idealised_single_spike(self):
        spectrum = idealised_spike_spectrum(15.0, 100, 200, 0.5)
        result = ec.estimate_rmt(spectrum)
        assert result.q_hat == 1
        # hand composition of the k=1 threshold from the fitted noise level
        fit = ec.estimate_noise_and_spikes(spectrum, 1)
        threshold = fit.sigma2_hat * (centering_mu(200, 99)
                                      + ec.tw_quantile(0.005, 1) * scaling_sigma(200, 99))
        assert result.trace.rows[0].theta_rmt == pytest.approx(threshold, rel=1e-9)
        assert spectrum.eigenvalues[0] > threshold

    def test_pure_noise_overestimation_controlled(self):
        p, n, trials = 100, 200, 600
        model = ec.PopulationModel(np.array([]), 1.0, p)
        over = 0
        for t in range(trials):
            snap = generate_snapshots(model, n, trial_rng(141, t))
            over += ec.estimate_rmt(
                ec.eig_sym_desc(ec.sample_covariance(snap.data), n)).q_hat > 0
        assert over / trials <= 0.02


class TestSignalSearchEstimator:
    def test_flat_spectrum(self):
        spectrum = spectrum_from_values(np.full(100, 1.0), 200)
        assert ec.estimate_signal_search(spectrum).q_hat == 0

    def test_idealised_single_spike(self):
        spectrum = idealised_spike_spectrum(15.0, 100, 200, 0.5)
        assert ec.estimate_signal_search(spectrum).q_hat == 1

    @pytest.mark.parametrize("p, n", [(5, 10), (10, 5), (6, 6), (5, 13),
                                      (5, 14), (10, 14), (5, 20), (10, 20)])
    def test_strong_spikes_pass_only_above_the_small_n_bound(self, p, n):
        """For a strong spike z / delta tends to sqrt(n / 2), so z can pass
        its threshold only when n > 2 Q^{-1}(alpha0)^2, about 13.3 at
        alpha0 = 0.995, however strong the spike."""
        bound = 2.0 * normal_tail_inv(ec.EstimatorConfig().alpha0) ** 2
        assert 13.0 < bound < 14.0
        spectrum = spectrum_from_values(1e3 ** np.arange(p, 0, -1), n)
        expected = spectrum.kmax if n > bound else 0
        assert ec.estimate_signal_search(spectrum).q_hat == expected
        assert ec.estimate_rmt(spectrum).q_hat == spectrum.kmax
        assert ec.estimate_sns(spectrum).q_hat == spectrum.kmax

    def test_better_weak_signal_detection_than_rmt(self):
        """Paired draws with a strength just above the detection limit."""
        p, n, trials = 100, 200, 2000
        model = ec.PopulationModel(np.array([1.0]), 1.0, p)
        rmt_hits = srmt_hits = 0
        for t in range(trials):
            snap = generate_snapshots(model, n, trial_rng(321, t))
            spectrum = ec.eig_sym_desc(ec.sample_covariance(snap.data), n)
            rmt_hits += ec.estimate_rmt(spectrum).q_hat >= 1
            srmt_hits += ec.estimate_signal_search(spectrum).q_hat >= 1
        assert srmt_hits > rmt_hits


class TestSnsEstimator:
    def test_flat_spectrum_all_rmt_criterion(self):
        spectrum = spectrum_from_values(np.full(100, 1.0), 200)
        result = ec.estimate_sns(spectrum)
        assert result.q_hat == 0
        assert all(row.criterion == "rmt" for row in result.trace.rows)

    def test_idealised_strong_spike_walkthrough(self):
        spectrum = idealised_spike_spectrum(15.0, 100, 200, 0.5)
        result = ec.estimate_sns(spectrum)
        assert result.q_hat == 1
        assert result.trace.rows[1].k == 2
        assert result.trace.rows[1].criterion == "rmt"
        assert not result.trace.rows[1].accepted

    def test_trace_records_step_scores(self):
        spectrum = sampled_spectrum([6.0, 3.0], p=40, n=80, seed=88)
        result = ec.estimate_sns(spectrum)
        for row in result.trace.rows:
            assert row.criterion in ("rmt", "srmt")
            if row.criterion == "srmt":
                assert row.pbar_rmt_inter is not None

    def test_matches_paired_components_on_noise(self):
        """On pure noise the adaptive scan reduces to the TW test."""
        p, n = 60, 120
        model = ec.PopulationModel(np.array([]), 1.0, p)
        for t in range(200):
            snap = generate_snapshots(model, n, trial_rng(606, t))
            spectrum = ec.eig_sym_desc(ec.sample_covariance(snap.data), n)
            assert ec.estimate_sns(spectrum).q_hat == ec.estimate_rmt(spectrum).q_hat


class TestCommonProperties:
    def test_q_hat_range(self):
        rng = np.random.RandomState(35)
        for p, n in ((10, 30), (30, 10), (15, 15)):
            for _ in range(10):
                spectrum = random_spectrum(rng, p=p, n=n)
                for method in ec.METHOD_ORDER:
                    q_hat = ec.estimate(spectrum, method).q_hat
                    assert 0 <= q_hat <= min(p, n) - 1

    def test_determinism(self):
        spectrum = sampled_spectrum([8.0, 5.0, 2.0], p=50, n=100, seed=99)
        for method in ec.METHOD_ORDER:
            a = ec.estimate(spectrum, method)
            b = ec.estimate(spectrum, method)
            assert a.q_hat == b.q_hat
            if a.trace is not None:
                assert a.trace.to_csv_string() == b.trace.to_csv_string()

    def test_unknown_method_rejected(self):
        spectrum = spectrum_from_values(np.full(10, 1.0), 20)
        with pytest.raises(InvalidInputError):
            ec.estimate(spectrum, "esprit")

    def test_trace_terminal_row(self):
        spectrum = sampled_spectrum([9.0], p=30, n=60, seed=77)
        for method in ("rmt", "srmt", "sns"):
            trace = ec.estimate(spectrum, method).trace
            ks = [row.k for row in trace.rows]
            assert ks == sorted(ks)
            rejected = [row for row in trace.rows if not row.accepted]
            assert len(rejected) == 1 and rejected[0] is trace.rows[-1]

    def test_trace_csv_schema(self):
        spectrum = sampled_spectrum([9.0], p=30, n=60, seed=77)
        trace = ec.estimate_sns(spectrum).trace
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(trace.rows) + 1

    def test_config_validation(self):
        for field, value in [
                ("alpha", 0.0), ("alpha0", 0.4), ("beta", 3),
                # Not real numbers, and a beta that is not the integer 1 or 2.
                ("alpha", "x"), ("alpha0", "0.9"), ("beta", True), ("beta", 2.0),
                ("beta", "1")]:
            with pytest.raises(InvalidInputError, match=field):
                ec.EstimatorConfig(**{field: value})
        # config itself must be None or an EstimatorConfig: {} and 0 are not
        # the defaults.
        spectrum = spectrum_from_values([30.0, 2.0, 1.0, 0.5], 10)
        for config in ("x", {}, 0):
            for method in ec.METHOD_ORDER:
                with pytest.raises(InvalidInputError, match="config"):
                    ec.estimate(spectrum, method, config)
            with pytest.raises(InvalidInputError, match="config"):
                ec.ScenarioSpec(p=10, n=20, config=config)


WEAK_SECOND = ([4.47, 4.4, 2.3, 2.04, 1.42, 1.38, 1.34, 0.91, 0.56], 56)
TWO_SPIKES = ([50.0, 40.0] + [1.0] * 18, 200)


class TestAcceptedSpelling:
    """The trace CSV spells accepted True/False on rows that apply the TW
    test and on signal-search rows at k >= 2 with a statistic, and 1/0 on
    the others: the spelling the golden trace digests pin."""

    @pytest.mark.parametrize("spectrum, method, cells", [
        (TWO_SPIKES, "rmt", [("rmt", "True"), ("rmt", "True"), ("rmt", "False")]),
        # srmt at k = 1, at k = 2, and rejecting a non-positive strength at k = 3.
        (TWO_SPIKES, "srmt", [("srmt", "1"), ("srmt", "True"), ("srmt", "0")]),
        (([50.0, 3.0] + [1.0] * 18, 50), "srmt", [("srmt", "1"), ("srmt", "False")]),
        (WEAK_SECOND, "srmt", [("srmt", "0")]),
        # sns under each criterion.
        (TWO_SPIKES, "sns", [("rmt", "True"), ("rmt", "True"), ("rmt", "False")]),
        (WEAK_SECOND, "sns", [("rmt", "True"), ("srmt", "True"), ("rmt", "False")])])
    def test_spelling_per_row_kind(self, spectrum, method, cells):
        trace = ec.estimate(spectrum_from_values(*spectrum), method).trace
        lines = trace.to_csv_string().splitlines()[1:]
        accepted = TRACE_COLUMNS.index("accepted")
        assert [(row.criterion, line.split(",")[accepted])
                for row, line in zip(trace.rows, lines)] == cells
        if method == "srmt" and len(cells) == 3:
            assert trace.rows[-1].z_k is None and trace.rows[-1].degenerate


class TestSequentialDegenerateFlag:
    SCANS = (ec.estimate_rmt, ec.estimate_signal_search, ec.estimate_sns)

    def test_flag_set_when_a_step_is_degenerate(self):
        # At k = 2 the fitted strength of l_2 is non-positive: srmt rejects
        # it unscored, sns falls back to the TW test, and rmt's fit flags a
        # clamped root.
        spectrum = spectrum_from_values([6.92, 1.11, 1.03], 39)
        for scan in self.SCANS:
            result = scan(spectrum)
            assert result.trace.rows[-1].degenerate
            assert result.degenerate

    def test_non_positive_strength_flagged_without_a_clamped_root(self):
        # p >> n: the k = 1 fit clamps no root, yet its strength is not
        # positive, so srmt rejects unscored and sns falls back to TW.
        spectrum = spectrum_from_values([4.4, 4.26, 4.16, 4.11, 3.81, 3.43, 3.31,
                                         2.42, 2.17, 2.0, 0.77, 0.56], 2)
        fit = ec.estimate_noise_and_spikes(spectrum, 1)
        assert not fit.any_degenerate and fit.lambda_hat[0] <= 0.0
        for scan, criterion in ((ec.estimate_signal_search, "srmt"), (ec.estimate_sns, "rmt")):
            result = scan(spectrum)
            (row,) = result.trace.rows
            assert (row.criterion, row.accepted, row.degenerate) == (criterion, False, True)
            assert row.z_k is None and row.pe_srmt_plain is None
            assert result.degenerate

    def test_sns_takes_the_tw_verdict_at_a_non_positive_strength(self, monkeypatch):
        """A k = 2 fit whose strength is patched to -0.5, so that TW accepts
        l_2 and signal search rejects it unscored.  No natural spectrum has
        that pair of verdicts; untraced and traced sns must both take TW's."""
        fit_noise = ec.estimators.estimate_noise_and_spikes

        def patched(spectrum, k, *args):
            fit = fit_noise(spectrum, k, *args)
            return fit._replace(lambda_hat=(fit.lambda_hat[0], -0.5)) if k == 2 else fit

        monkeypatch.setattr(ec.estimators, "estimate_noise_and_spikes", patched)
        spectrum = spectrum_from_values([50.0, 40.0] + [1.0] * 18, 200)
        config = ec.EstimatorConfig()
        q_hats = ec.estimators._scan_pass(spectrum, config, ("rmt", "srmt", "sns"))
        assert q_hats == {"rmt": 2, "srmt": 1, "sns": 2}
        result = ec.estimate_sns(spectrum, config)
        assert result.q_hat == q_hats["sns"]
        row = result.trace.rows[1]
        assert (row.k, row.criterion, row.accepted, row.degenerate) == (2, "rmt", True, True)

    def test_flag_clear_on_a_clean_scan(self):
        # Every scan accepts both steps with unclamped roots.
        spectrum = spectrum_from_values([3.14, 1.37, 0.35], 39)
        for scan in self.SCANS:
            result = scan(spectrum)
            assert not any(row.degenerate for row in result.trace.rows)
            assert not result.degenerate


# Eigenvalue draws for the scan properties: spreads, ties, exact zeros and a
# 1e+-12 dynamic range.
EIGENVALUES = st.one_of(st.floats(0.0, 20.0), st.floats(1e-12, 1e12),
                        st.sampled_from((0.0, 1.0, 2.0)))


@st.composite
def scan_spectra(draw):
    values = draw(st.lists(EIGENVALUES, min_size=2, max_size=12))
    return spectrum_from_values(values, draw(st.integers(1, 40)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScanProperties:
    """Invariants of the sequential scan shared by rmt, srmt and sns; a
    numpy warning on the way fails them too."""

    @settings(max_examples=40, deadline=None)
    @given(spectrum=scan_spectra())
    def test_trace_shape_and_q_hat(self, spectrum):
        kmax = min(spectrum.p, spectrum.n) - 1
        for method in ("rmt", "srmt", "sns"):
            try:
                result = ec.estimate(spectrum, method)
            except ec.EigencountError:
                continue  # only the package's typed errors may escape
            rows = result.trace.rows
            assert [row.k for row in rows] == list(range(1, len(rows) + 1))
            assert result.q_hat == sum(row.accepted for row in rows)
            assert 0 <= result.q_hat <= kmax
            if result.q_hat < kmax:
                assert not rows[-1].accepted
            else:
                assert len(rows) == kmax
            assert result.degenerate == any(row.degenerate for row in rows)
            expected = {"sns": {"rmt", "srmt"}}.get(method, {method})
            assert {row.criterion for row in rows} <= expected

    def test_subnormal_noise_level(self):
        # A shrunk example of test_trace_shape_and_q_hat: sigma2 * sc
        # underflows to zero in the sns scores, which raised ZeroDivisionError.
        spectrum = spectrum_from_values([1.0, 5e-324], 9)
        for method in ("rmt", "srmt", "sns"):
            assert 0 <= ec.estimate(spectrum, method).q_hat <= 1

    @settings(max_examples=40, deadline=None)
    @given(spectrum=scan_spectra())
    def test_rmt_monotone_in_alpha(self, spectrum):
        # A larger alpha lowers every TW threshold, so the scan accepts at
        # least as long; a scan that fails, fails at a step that every
        # larger alpha also reaches.
        q_hats = []
        for alpha in (0.001, 0.005, 0.05, 0.2, 0.6):
            try:
                q_hats.append(ec.estimate_rmt(spectrum, ec.EstimatorConfig(alpha=alpha)).q_hat)
            except ec.EigencountError:
                q_hats.append(None)
        reached = [q for q in q_hats if q is not None]
        assert q_hats[:len(reached)] == reached
        assert reached == sorted(reached)


# Exact binary scales: every formula of the scans is homogeneous in the
# eigenvalues, so scaling by 2**j moves no rounding and no decision.  The
# draws stay clear of subnormals, which a scale would round.
INVARIANCE_EIGENVALUES = st.one_of(st.floats(1e-12, 1e12), st.floats(0.05, 20.0),
                                   st.sampled_from((0.0, 1.0, 2.0)))


def scan_outcome(spectrum, method, columns=("criterion", "accepted")):
    """q_hat and the chosen trace columns of one scan, or its error class."""
    try:
        result = ec.estimate(spectrum, method)
    except ec.EigencountError as exc:
        return type(exc).__name__
    return result.q_hat, [tuple(getattr(row, c) == True if c == "accepted"  # noqa: E712
                                else getattr(row, c) for c in columns)
                          for row in result.trace.rows]


class TestInvarianceProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(INVARIANCE_EIGENVALUES, min_size=2, max_size=12),
           n=st.integers(1, 40), power=st.integers(-40, 40))
    def test_scale_invariance(self, values, n, power):
        spectrum = spectrum_from_values(values, n)
        scaled = spectrum_from_values(np.asarray(values) * 2.0 ** power, n)
        for method in ("rmt", "srmt", "sns"):
            assert scan_outcome(scaled, method) == scan_outcome(spectrum, method)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), extra=st.integers(1, 12), power=st.integers(-30, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_scale_invariance_of_rank_deficient_snapshots(self, n, extra, power, seed):
        """p > n: the p - n structural zeros round off to either sign, and
        a scaled copy of the data is accepted whenever the data is."""
        data = np.random.default_rng(seed).standard_normal((n + extra, n))
        spectrum = ec.eig_sym_desc(ec.sample_covariance(data), n)
        scaled = ec.eig_sym_desc(ec.sample_covariance(data * 2.0 ** power), n)
        for method in ("rmt", "srmt", "sns"):
            assert scan_outcome(scaled, method) == scan_outcome(spectrum, method)
        for method in ("aic", "mdl", "maic"):
            assert ec.estimate(scaled, method).q_hat == ec.estimate(spectrum, method).q_hat

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(EIGENVALUES, min_size=2, max_size=12),
           n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_order_invariance(self, values, n, seed):
        permuted = np.random.default_rng(seed).permutation(values)
        for method in ("rmt", "srmt", "sns"):
            results = []
            for order in (values, permuted):
                try:
                    result = ec.estimate(spectrum_from_values(order, n), method)
                except ec.EigencountError as exc:
                    results.append(type(exc).__name__)
                else:
                    results.append((result.q_hat, result.trace.to_csv_string()))
            assert results[0] == results[1]

    @settings(max_examples=80, deadline=None)
    @given(exponents=st.lists(st.floats(-170.0, 170.0), min_size=2, max_size=11),
           n=st.integers(1, 60))
    def test_traces_finite_at_extreme_scales(self, exponents, n):
        """Eigenvalues from 1e-170 to 1e170: every float a scan traces is
        finite, or the scan raises a typed error."""
        spectrum = spectrum_from_values([10.0 ** e for e in exponents], n)
        for method in ("rmt", "srmt", "sns"):
            try:
                result = ec.estimate(spectrum, method)
            except ec.EigencountError:
                continue
            for row in result.trace.rows:
                for name in TRACE_COLUMNS:
                    value = getattr(row, name)
                    for x in value if isinstance(value, tuple) else (value,):
                        if isinstance(x, float):
                            assert math.isfinite(x), (method, row.k, name)


def reference_likelihood_terms(spectrum):
    """The per-k loop that _likelihood_terms replaces, kept as its oracle."""
    from eigencount.estimators import _clamped_log
    vals = spectrum.eigenvalues
    p, n = spectrum.p, spectrum.n
    kmax = min(p, n) - 1
    logs = _clamped_log(vals)
    terms = np.empty(kmax + 1)
    tail_sum = np.cumsum(vals[::-1])[::-1]
    tail_log = np.cumsum(logs[::-1])[::-1]
    for k in range(kmax + 1):
        m = p - k
        ln_a = float(_clamped_log(np.array([tail_sum[k] / m]))[0])
        ln_g = tail_log[k] / m
        terms[k] = n * m * (ln_a - ln_g)
    return terms, bool(np.any(vals <= 0.0))


class TestSharedComputation:
    def test_likelihood_terms_match_reference_loop(self):
        from eigencount.estimators import _likelihood_terms
        rng = np.random.RandomState(36)
        spectra = [random_spectrum(rng, p=p, n=n)
                   for p, n in ((12, 30), (30, 10), (200, 400), (15, 15))]
        spectra.append(spectrum_from_values([4.0, 2.0, 1.0, 0.0, 0.0], 8))
        for spectrum in spectra:
            terms, degenerate = _likelihood_terms(spectrum)
            expected, expected_degenerate = reference_likelihood_terms(spectrum)
            assert terms.tobytes() == expected.tobytes()
            assert degenerate == expected_degenerate
            assert not terms.flags.writeable
            assert _likelihood_terms(spectrum)[0] is terms

    @pytest.fixture
    def solved(self, monkeypatch):
        """The k of every noise/spike solver run while the test runs."""
        from eigencount import noise
        calls = []
        original = noise._fixed_point

        def counting(spectrum, k, tol, max_iter):
            calls.append(k)
            return original(spectrum, k, tol, max_iter)

        monkeypatch.setattr(noise, "_fixed_point", counting)
        return calls

    def test_run_trial_solves_each_k_at_most_once(self, solved):
        spec = ec.preset_scenario("fig11", trials=1, base_seed=5)
        for _, p, n in spec.sweep_points():
            solved.clear()
            ec.run_trial(spec, 0, p, n)
            assert solved and len(solved) == len(set(solved))

    def test_estimators_called_one_by_one_share_fits(self, solved):
        spectrum = sampled_spectrum([8.0, 5.0, 2.0], p=50, n=100, seed=98)
        depth = max(len(ec.estimate(spectrum, m).trace.rows) for m in ("rmt", "srmt", "sns"))
        assert sorted(solved) == list(range(depth + 1))

    def test_tw_edge_constants_once_per_geometry(self, monkeypatch):
        from eigencount import tracy_widom
        tracy_widom._edge_constants.cache_clear()
        calls = []
        original = tracy_widom.centering_mu

        def counting(n, p):
            calls.append((n, p))
            return original(n, p)

        monkeypatch.setattr(tracy_widom, "centering_mu", counting)
        spec = ec.preset_scenario("fig4", trials=3, base_seed=6)
        for _, p, n in spec.sweep_points():
            for idx in range(3):
                ec.run_trial(spec, idx, p, n)
        assert calls and len(calls) == len(set(calls))

    def test_trace_rows_equal_rows_rebuilt_from_their_columns(self):
        from eigencount.estimators import TraceRow
        from tests.test_golden import _cases
        rows = [row for spectrum in _cases("edge") for m in ("rmt", "srmt", "sns")
                for row in ec.estimate(spectrum, m).trace.rows]
        assert any(row.pbar_rmt_inter is not None for row in rows)
        for row in rows:
            columns = {name: getattr(row, name) for name in TRACE_COLUMNS}
            rebuilt = TraceRow(**columns)
            assert rebuilt == row and repr(rebuilt) == repr(row)
        partial = TraceRow(k=1, l_k=2.5, criterion="rmt", accepted=True)
        assert partial.sigma2_hat is None and partial.degenerate is False

    def test_scan_records_are_immutable_tuples_of_plain_values(self):
        """The fit, statistic and trace row of a scan step cannot be
        altered, and a fit's per-spike fields hold Python floats and bools,
        not numpy scalars."""
        spectrum = sampled_spectrum([8.0, 5.0, 2.0], p=50, n=100, seed=98)
        fit = ec.estimate_noise_and_spikes(spectrum, 3)
        for name, kind in (("rho_hat", float), ("lambda_hat", float),
                           ("degenerate_roots", bool)):
            values = getattr(fit, name)
            assert type(values) is tuple and len(values) == 3, name
            assert [type(value) for value in values] == [kind] * 3, name
        stat = decision_statistic(1, spectrum, fit)
        row = ec.estimate(spectrum, "sns").trace.rows[0]
        for record in (fit, stat, row):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))

    def test_numpy_scalar_inputs_give_python_trace_values(self):
        """numpy integers as p and n and numpy floats in the config reach no
        trace cell: Spectrum and EstimatorConfig store Python numbers."""
        values = np.array([4.47, 4.4, 2.3, 2.04, 1.42, 1.38, 1.34, 0.91, 0.56])
        spectrum = ec.Spectrum(values, np.int64(9), np.int64(56))
        config = ec.EstimatorConfig(alpha=np.float64(0.05), alpha0=np.float64(0.9),
                                    beta=np.int64(1))
        assert (type(spectrum.p), type(spectrum.n), type(config.alpha),
                type(config.beta)) == (int, int, float, int)
        for method in ("rmt", "srmt", "sns"):
            for row in ec.estimate(spectrum, method, config).trace.rows:
                for value in row:
                    cells = value if type(value) is tuple else (value,)
                    assert all(type(cell).__module__ == "builtins" for cell in cells), row

    def test_all_zero_spectrum_same_error_class(self):
        spectrum = spectrum_from_values(np.zeros(6), 10)
        classes = set()
        for method in ("rmt", "srmt", "sns"):
            with pytest.raises(ec.EigencountError) as info:
                ec.estimate(spectrum, method)
            classes.add(type(info.value))
        assert classes == {InvalidInputError}


SCANS = ("rmt", "srmt", "sns")
SCAN_SUBSETS = [subset for size in (1, 2, 3) for subset in itertools.combinations(SCANS, size)]


def preset_draws(trials=6, seed=404):
    """Seeded desk draws of every preset: p > n, p = n and pure noise included."""
    for name in ec.PRESET_NAMES:
        spec = ec.preset_scenario(name, trials=trials, base_seed=seed)
        for _, p, n in spec.sweep_points():
            for idx in range(trials):
                snap = generate_snapshots(spec.model(p), n, trial_rng(spec.base_seed, idx))
                yield ec.eig_sym_desc(ec.sample_covariance(snap.data), n)


def outcome(compute):
    """compute(), or the class of the package error it raises."""
    try:
        return compute()
    except ec.EigencountError as exc:
        return type(exc)


def assert_pass_matches_estimators(spectrum, config):
    """The untraced _scan_pass on every non-empty subset of the scans, each
    on a fresh copy of the spectrum (no memoised fits), against the traced
    estimators: the same q_hats, or, where a requested estimator raises, its
    error class."""
    from eigencount.estimators import _scan_pass
    expected = {m: outcome(lambda: ec.estimate(spectrum, m, config).q_hat) for m in SCANS}
    for subset in SCAN_SUBSETS:
        fresh = ec.Spectrum(spectrum.eigenvalues.copy(), spectrum.p, spectrum.n)
        got = outcome(lambda: _scan_pass(fresh, config, subset))
        errors = {expected[m] for m in subset if isinstance(expected[m], type)}
        if errors:
            assert got in errors, (subset, got, expected)
        else:
            assert got == {m: expected[m] for m in subset}, (subset, got, expected)


class TestScanPass:
    """The one scan pass of rmt, srmt and sns: untraced, as sweeps run it,
    against the traced estimators it must agree with."""

    @pytest.mark.parametrize("name", ["fig4", "fig7", "fig11", "rank-deficient",
                                      "edge", "random"])
    def test_matches_estimators_on_golden_cases(self, name):
        from tests.test_golden import _cases
        config = ec.EstimatorConfig()
        for spectrum in _cases(name):
            assert_pass_matches_estimators(spectrum, config)

    @pytest.mark.parametrize("config", [ec.EstimatorConfig(),
                                        ec.EstimatorConfig(alpha=0.05, alpha0=0.9, beta=2)])
    def test_matches_estimators_on_preset_draws(self, config):
        for spectrum in preset_draws():
            assert_pass_matches_estimators(spectrum, config)

    @settings(max_examples=40, deadline=None)
    @given(spectrum=scan_spectra())
    def test_matches_estimators_on_random_spectra(self, spectrum):
        assert_pass_matches_estimators(spectrum, ec.EstimatorConfig())

    def test_run_trial_counts_match_estimators(self):
        spec = replace(ec.preset_scenario("fig7", trials=5, base_seed=12),
                       methods=("sns", "aic", "rmt", "srmt"))
        for _, p, n in spec.sweep_points():
            for idx in range(spec.trials):
                snap = generate_snapshots(spec.model(p), n, trial_rng(spec.base_seed, idx))
                spectrum = ec.eig_sym_desc(ec.sample_covariance(snap.data), n)
                expected = {m: ec.estimate(spectrum, m).q_hat for m in spec.methods}
                result = ec.run_trial(spec, idx, p, n)
                assert result == expected and list(result) == list(spec.methods)

    @staticmethod
    def verdicts_differ(spectrum, fit, config):
        """Whether the TW and signal-search verdicts of step k = fit.k differ,
        at a positive fitted strength, from the thresholds the scan uses."""
        k = fit.k
        theta = _tw_threshold(fit, config.alpha, config.beta)
        stat = decision_statistic(k, spectrum, fit, config.beta)
        z_threshold = _z_threshold(fit.sigma2_hat, spectrum.gamma, stat.delta, config.alpha0)
        return (float(spectrum.eigenvalues[k - 1]) > theta) != (stat.z > z_threshold)

    @pytest.fixture
    def scored(self, monkeypatch):
        """For each _adaptive call: whether the step's two tests disagreed."""
        from eigencount import estimators
        calls = []
        original = estimators._adaptive

        def counting(spectrum, fit, config):
            calls.append(self.verdicts_differ(spectrum, fit, config))
            return original(spectrum, fit, config)

        monkeypatch.setattr(estimators, "_adaptive", counting)
        return calls

    def test_sns_is_scored_only_where_the_tests_disagree(self, scored):
        from eigencount.estimators import _scan_pass
        config = ec.EstimatorConfig()
        disagreements = calls = 0
        for spectrum in preset_draws():
            depth = len(ec.estimate_sns(spectrum, config).trace.rows)
            for k in range(1, depth + 1):
                fit = ec.estimate_noise_and_spikes(spectrum, k)
                disagreements += (fit.lambda_hat[k - 1] > 0.0
                                  and self.verdicts_differ(spectrum, fit, config))
            scored.clear()
            _scan_pass(spectrum, config, ("sns",))
            assert all(scored)
            calls += len(scored)
        assert calls == disagreements > 0

    def test_sns_is_not_scored_where_the_tests_always_agree(self, scored):
        from eigencount.estimators import _scan_pass
        spectrum = spectrum_from_values(np.r_[50.0, 30.0, np.linspace(1.3, 0.7, 40)], 400)
        assert _scan_pass(spectrum, ec.EstimatorConfig(), SCANS) == dict.fromkeys(SCANS, 2)
        assert scored == []
        # The traced estimator scores every step it visits.
        assert ec.estimate_sns(spectrum).q_hat == 2 and len(scored) == 3

    @pytest.mark.parametrize("method", SCANS)
    def test_traced_scan_computes_one_statistic_per_positive_strength_step(
            self, method, monkeypatch):
        """A traced sns step scores first and its signal-search test reuses
        the scores' statistic; srmt computes one per tested step; rmt none.
        No statistic exists where the fitted strength is non-positive."""
        from eigencount import estimators, probabilities
        calls = []
        original = estimators.decision_statistic

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(estimators, "decision_statistic", counting)
        monkeypatch.setattr(probabilities, "decision_statistic", counting)
        config = ec.EstimatorConfig()
        steps = 0
        for spectrum in preset_draws(trials=3):
            calls.clear()
            rows = ec.estimate(spectrum, method, config).trace.rows
            positive = [r.k for r in rows if r.lambda_hat[r.k - 1] > 0.0]
            assert calls == ([] if method == "rmt" else positive)
            steps += len(positive)
        assert steps > 0
