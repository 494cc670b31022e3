import math

import numpy as np
import pytest

import eigencount as ec
from eigencount.errors import InvalidInputError
from eigencount.normal import norm_cdf
from eigencount.probabilities import (ProbPair, ThresholdContext, _z_threshold, pe_rmt,
                                      pe_srmt)
from eigencount.signal_stats import stat_std_dev
from eigencount.tracy_widom import centering_mu, scaling_sigma, tw_cdf, tw_quantile
from tests.conftest import sampled_spectrum
from tests.test_signal_stats import make_fit


def make_ctx(spectrum, k, alpha=0.005, alpha0=0.995, beta=1):
    fit_k = ec.estimate_noise_and_spikes(spectrum, k)
    fit_km1 = ec.estimate_noise_and_spikes(spectrum, k - 1)
    return ThresholdContext(k=k, fit_k=fit_k, fit_km1=fit_km1, spectrum=spectrum,
                            gamma=spectrum.gamma, alpha=alpha, alpha0=alpha0,
                            beta=beta)


def synthetic_ctx(lambda_hat, sigma2, p, n, k=None, alpha=0.005, alpha0=0.995,
                  sigma2_km1=None):
    """Context with hand-chosen fits (bypasses the solver)."""
    lam = np.asarray(lambda_hat, dtype=float)
    k = k or lam.size
    fit_k = make_fit(lam, sigma2, p, n)
    fit_km1 = make_fit(lam[: k - 1], sigma2_km1 or sigma2, p, n)
    values = np.concatenate([lam + sigma2 + 1.0, np.full(p - k, sigma2)])
    spectrum = ec.Spectrum(np.sort(values)[::-1], p, n)
    return ThresholdContext(k=k, fit_k=fit_k, fit_km1=fit_km1, spectrum=spectrum,
                            gamma=p / n, alpha=alpha, alpha0=alpha0, beta=1)


class TestThetaRmt:
    def test_composition_with_oracle_quantile(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        s = tw_quantile(0.005, 1)
        expected = ctx.fit_k.sigma2_hat * (centering_mu(200, 98) + s * scaling_sigma(200, 98))
        assert ec.theta_rmt(ctx) == pytest.approx(expected, rel=1e-12)

    def test_noise_assumption_uses_previous_fit(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200, sigma2_km1=1.3)
        s = tw_quantile(0.005, 1)
        expected = 1.3 * (centering_mu(200, 99) + s * scaling_sigma(200, 99))
        assert ec.theta_rmt(ctx, assume_signal=False) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_noise_level(self):
        a = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        b = synthetic_ctx([12.0, 8.0], 2.0, p=100, n=200)
        assert ec.theta_rmt(b) == pytest.approx(2.0 * ec.theta_rmt(a), rel=1e-12)


class TestThetaSrmt:
    def test_alpha0_half_bulk_edge(self):
        # q = p makes kappa exactly 1; Qinv(0.5) = 0
        ctx = synthetic_ctx([3.0, 2.0], 1.0, p=2, n=10, alpha0=0.5)
        assert ec.theta_srmt(ctx) == pytest.approx(1.0 + math.sqrt(0.2), rel=1e-12)

    def test_hand_composition(self):
        ctx = synthetic_ctx([7.0, 5.0], 1.0, p=100, n=200)
        delta, _ = stat_std_dev(5.0, 1.0, 100, 2, 200)
        expected = (1.0 * (1.0 + math.sqrt(0.5)) + delta * 2.5758293035489004) * 1.098
        assert ec.theta_srmt(ctx) == pytest.approx(expected, rel=1e-9)
        assert ec.theta_srmt(ctx) == pytest.approx(3.40462, abs=1e-4)

    def test_equivalence_with_signal_search_test(self):
        """l_k > theta + v_k is the same event as z_k > signal threshold."""
        for seed in range(40):
            spectrum = sampled_spectrum([6.0, 3.0], p=50, n=100, seed=3000 + seed)
            fit = ec.estimate_noise_and_spikes(spectrum, 2)
            if not fit.converged or fit.lambda_hat[1] <= 0:
                continue
            ctx = make_ctx(spectrum, 2)
            stat = ec.decision_statistic(2, spectrum, fit)
            z_threshold = _z_threshold(fit.sigma2_hat, spectrum.gamma, stat.delta, 0.995)
            lhs = spectrum.eigenvalues[1] - (ec.theta_srmt(ctx) + stat.v)
            rhs = stat.z - z_threshold
            assert lhs == pytest.approx(rhs * stat.kappa, rel=1e-9, abs=1e-12)


class TestPeRmt:
    def test_false_alarm_without_interaction_is_alpha(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        assert pe_rmt(ctx, with_interaction=False).p_false == ctx.alpha

    def test_variants_coincide_when_v_zero(self):
        ctx = synthetic_ctx([6.0], 1.0, p=100, n=200)  # k=1: empty interaction
        assert ctx.v_k == 0.0
        a = pe_rmt(ctx, with_interaction=True)
        b = pe_rmt(ctx, with_interaction=False)
        assert a.p_miss == pytest.approx(b.p_miss, rel=1e-12)
        assert a.p_false == pytest.approx(b.p_false, abs=1e-9)

    def test_negative_interaction_lowers_false_alarm(self):
        rng = np.random.RandomState(9)
        for _ in range(200):
            lam = np.sort(rng.uniform(2.0, 9.0, size=3))[::-1]
            ctx = synthetic_ctx(lam, 1.0, p=60, n=120)
            assert ctx.v_k < 0.0
            assert pe_rmt(ctx, with_interaction=True).p_false < ctx.alpha

    def test_miss_formula_composition(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        theta = ec.theta_rmt(ctx)
        arg = -((theta + ctx.v_k) / ctx.kappa_k
                - (1.0 + math.sqrt(0.5)) * ctx.fit_k.sigma2_hat) / ctx.delta_k
        assert pe_rmt(ctx, with_interaction=True).p_miss == pytest.approx(
            norm_cdf(arg), rel=1e-12)

    def test_saturation_when_subcritical(self):
        subcritical = 0.3 * math.sqrt(98.0 / 200.0)
        ctx = synthetic_ctx([6.0, subcritical], 1.0, p=100, n=200)
        pair = pe_rmt(ctx, with_interaction=True)
        assert pair.p_miss == 1.0

    def test_probabilities_in_range(self):
        for seed in range(50):
            spectrum = sampled_spectrum([8.0, 4.0], p=40, n=80, seed=4000 + seed)
            try:
                ctx = make_ctx(spectrum, 2)
            except InvalidInputError:
                continue
            for wi in (False, True):
                for assume in (False, True):
                    pair = pe_rmt(ctx, wi, assume)
                    assert 0.0 <= pair.p_miss <= 1.0
                    assert 0.0 <= pair.p_false <= 1.0


class TestScoreRange:
    # Spectra over 1e-292..1e291: at k = 2 the interacted false-alarm
    # scores have TW arguments beyond the float range, pe_rmt's through
    # v / (sigma2 sc) (first) and pe_srmt's through (theta + v) / sigma2
    # (second).  They saturate to +inf, so those p_false are 0.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, n", [([5.7e+280, 2.85e+256, 6.66e-292], 30),
                                           ([1.2e+291, 3.09e+20, 1.35e-288], 26)])
    def test_out_of_range_arguments_saturate_silently(self, values, n):
        ctx = make_ctx(ec.Spectrum.from_values(values, n), 2)
        assert pe_rmt(ctx, with_interaction=True).p_false == 0.0
        assert pe_srmt(ctx, with_interaction=True).p_false == 0.0


class TestPeSrmt:
    def test_plain_miss_is_target_level(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        pair = pe_srmt(ctx, with_interaction=False)
        assert pair.p_miss == pytest.approx(1.0 - 0.995, rel=1e-12)

    def test_negative_interaction_lowers_miss(self):
        rng = np.random.RandomState(10)
        for _ in range(200):
            lam = np.sort(rng.uniform(2.0, 9.0, size=3))[::-1]
            ctx = synthetic_ctx(lam, 1.0, p=60, n=120)
            assert ctx.v_k < 0.0
            assert pe_srmt(ctx, with_interaction=True).p_miss < 1.0 - ctx.alpha0

    def test_negative_interaction_raises_false_alarm(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            lam = np.sort(rng.uniform(2.0, 9.0, size=3))[::-1]
            ctx = synthetic_ctx(lam, 1.0, p=60, n=120)
            with_v = pe_srmt(ctx, with_interaction=True).p_false
            without = pe_srmt(ctx, with_interaction=False).p_false
            assert with_v >= without

    def test_false_alarm_composition_step1(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200)
        theta = ec.theta_srmt(ctx)
        expected = 1.0 - tw_cdf(((theta + ctx.v_k) / ctx.fit_k.sigma2_hat
                                 - centering_mu(200, 98)) / scaling_sigma(200, 98), 1)
        assert pe_srmt(ctx, with_interaction=True).p_false == pytest.approx(
            expected, rel=1e-12)

    def test_false_alarm_composition_step2(self):
        ctx = synthetic_ctx([6.0, 4.0], 1.0, p=100, n=200, sigma2_km1=1.2)
        theta = ec.theta_srmt(ctx)
        expected = 1.0 - tw_cdf((theta / 1.2 - centering_mu(200, 99))
                                / scaling_sigma(200, 99), 1)
        assert pe_srmt(ctx, with_interaction=False,
                       assume_signal=False).p_false == pytest.approx(expected, rel=1e-12)

    def test_subcritical_saturates_both_variants(self):
        subcritical = 0.3 * math.sqrt(98.0 / 200.0)
        ctx = synthetic_ctx([6.0, subcritical], 1.0, p=100, n=200)
        assert pe_srmt(ctx, with_interaction=True).p_miss == 1.0
        assert pe_srmt(ctx, with_interaction=False).p_miss == 1.0


class TestProbPair:
    def test_total_is_unclamped_sum(self):
        pair = ProbPair(p_miss=0.9, p_false=0.4)
        assert pair.p_total == pytest.approx(1.3)

    def test_component_range_enforced(self):
        with pytest.raises(InvalidInputError):
            ProbPair(p_miss=1.2, p_false=0.0)

    def test_context_validation(self):
        spectrum = sampled_spectrum([6.0], p=30, n=60, seed=1)
        fit1 = ec.estimate_noise_and_spikes(spectrum, 1)
        fit0 = ec.estimate_noise_and_spikes(spectrum, 0)
        with pytest.raises(InvalidInputError):
            ThresholdContext(k=2, fit_k=fit1, fit_km1=fit0, spectrum=spectrum,
                             gamma=0.5, alpha=0.005, alpha0=0.995)
