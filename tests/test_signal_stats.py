import math

import numpy as np
import pytest

import eigencount as ec
from eigencount.errors import InvalidInputError
from eigencount.noise import NoiseFit
from eigencount.probabilities import _z_threshold
from eigencount.signal_stats import (TIE_CLAMP_SCALE, interaction_term, kappa_factor,
                                     stat_std_dev)
from tests.conftest import spectrum_from_values


def make_fit(lambda_hat, sigma2, p, n):
    """A fit with hand-chosen strengths, built as the solver builds one:
    tuples of Python floats and bools."""
    lam = tuple(float(x) for x in lambda_hat)
    return NoiseFit(k=len(lam), sigma2_hat=sigma2, rho_hat=tuple(x + sigma2 for x in lam),
                    lambda_hat=lam, converged=True, iterations=1,
                    degenerate_roots=(False,) * len(lam), p=p, n=n)


class TestInteractionTerm:
    def test_single_strength_empty_sum(self):
        assert interaction_term(1, np.array([5.0]), 1.0, 100) == 0.0

    def test_hand_example(self):
        lam = np.array([5.0, 2.0])
        assert interaction_term(1, lam, 1.0, 100) == pytest.approx(0.06, abs=1e-14)
        assert interaction_term(2, lam, 1.0, 100) == pytest.approx(-0.06, abs=1e-14)

    def test_smallest_strength_always_negative(self):
        rng = np.random.RandomState(21)
        for _ in range(1000):
            q = rng.randint(2, 8)
            lam = np.sort(rng.uniform(0.5, 20.0, size=q))[::-1]
            if np.min(-np.diff(lam)) < 1e-3:
                lam = lam + np.arange(q)[::-1] * 1e-2  # enforce clear gaps
            assert interaction_term(q, lam, 1.0, 50) < 0.0

    def test_pairwise_antisymmetry(self):
        """The (i, j) summand is minus the (j, i) summand, so the terms sum
        to zero over all indices."""
        rng = np.random.RandomState(22)
        for _ in range(50):
            lam = np.sort(rng.uniform(1.0, 10.0, size=5))[::-1]
            sigma2, n = rng.uniform(0.5, 2.0), 40
            total = sum(interaction_term(i, lam, sigma2, n) for i in range(1, 6))
            assert total == pytest.approx(0.0, abs=1e-10)
            for i in range(5):
                for j in range(i + 1, 5):
                    summand = (lam[j] + sigma2) * (lam[i] + sigma2) / (lam[i] - lam[j])
                    mirrored = (lam[i] + sigma2) * (lam[j] + sigma2) / (lam[j] - lam[i])
                    assert summand == pytest.approx(-mirrored, rel=1e-12)

    def test_tie_clamp_keeps_result_finite(self):
        lam = np.array([5.0, 5.0])
        value = interaction_term(2, lam, 1.0, 100)
        clamp = TIE_CLAMP_SCALE * 5.0
        assert value == pytest.approx(-36.0 / clamp / 100.0, rel=1e-12)

    def test_index_validation(self):
        with pytest.raises(InvalidInputError):
            interaction_term(3, np.array([2.0, 1.0]), 1.0, 10)

    def test_matches_array_reference_bit_for_bit(self):
        """The float loop against the np.float64 loop it replaces, ties and
        the np.float64 result type included."""
        rng = np.random.default_rng(21)
        for _ in range(300):
            q = int(rng.integers(2, 12))
            lam = rng.exponential(5.0, q)
            if rng.random() < 0.5:
                lam = np.round(lam)  # exact ties
            lam = np.sort(lam)[::-1] - float(rng.uniform(0.0, 1.0))
            sigma2, n = float(rng.uniform(0.1, 3.0)), int(rng.integers(2, 300))
            for i in range(1, q + 1):
                lam_i = lam[i - 1]
                clamp = TIE_CLAMP_SCALE * max(float(lam.max()), sigma2)
                total = 0.0
                for j in range(q):
                    if j != i - 1:
                        gap = lam_i - lam[j]
                        if abs(gap) < clamp:
                            gap = -clamp if j < i - 1 else clamp
                        total += (lam[j] + sigma2) * (lam_i + sigma2) / gap
                value = interaction_term(i, lam, sigma2, n)
                assert type(value) is np.float64
                assert repr(value) == repr(total / n)

    @pytest.mark.parametrize("power", [-560, -520, 520, 560])
    def test_products_out_of_float_range(self, power):
        """Strengths whose pairwise products overflow or underflow give the
        unit-scale term, scaled, instead of inf or 0."""
        scale = 2.0 ** power
        lam = np.array([9.0, 5.0, 5.0, 1.5])
        for i in range(1, 5):
            unit = interaction_term(i, lam, 1.2, 40)
            value = interaction_term(i, lam * scale, 1.2 * scale, 40)
            assert math.isfinite(value)
            assert value / scale == pytest.approx(unit, rel=1e-12)


class TestKappaFactor:
    def test_example(self):
        assert kappa_factor(5.0, 1.0, p=100, q=2, n=200) == pytest.approx(1.098, abs=1e-14)

    def test_no_noise_dimensions(self):
        assert kappa_factor(5.0, 1.0, p=7, q=7, n=200) == 1.0

    def test_vanishing_correction(self):
        assert kappa_factor(1e12, 1.0, p=100, q=2, n=200) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(InvalidInputError):
            kappa_factor(0.0, 1.0, 10, 1, 10)


class TestStatStdDev:
    def test_example(self):
        delta, valid = stat_std_dev(5.0, 1.0, p=100, q=2, n=200, beta=1)
        kappa = 1.098
        expected = 6.0 / kappa * math.sqrt(0.01 * (1.0 - 0.49 / 25.0))
        assert valid
        assert delta == pytest.approx(expected, rel=1e-12)
        assert delta == pytest.approx(0.54104, abs=1e-4)

    def test_no_noise_dimensions(self):
        delta, valid = stat_std_dev(3.0, 1.0, p=5, q=5, n=50, beta=2)
        assert valid
        assert delta == pytest.approx(4.0 * math.sqrt(2.0 / (2 * 50)), rel=1e-12)

    def test_subcritical_clamp(self):
        threshold = math.sqrt(98.0 / 200.0)
        delta, valid = stat_std_dev(0.5 * threshold, 1.0, p=100, q=2, n=200)
        assert not valid
        kappa = kappa_factor(0.5 * threshold, 1.0, 100, 2, 200)
        expected = (0.5 * threshold + 1.0) / kappa * math.sqrt(1e-12 * 0.01)
        assert delta == pytest.approx(expected, rel=1e-9)


class TestDecisionStatistic:
    def test_uncorrected_case(self):
        # one spike spanning the whole space: v = 0 and kappa = 1
        fit = make_fit([5.0], 1.0, p=1, n=50)
        spectrum = ec.Spectrum(np.array([6.0]), 1, 50)
        stat = ec.decision_statistic(1, spectrum, fit)
        assert stat.z == pytest.approx(5.0, rel=1e-14)
        assert stat.v == 0.0 and stat.kappa == 1.0

    def test_hand_composition(self):
        # engineered so v = 0.06 and kappa = 1.098 exactly
        fit = make_fit([5.0, 2.0], 1.0, p=51, n=100)
        values = np.array([6.5] + [2.9] + [1.0] * 49)
        spectrum = spectrum_from_values(values, 100)
        stat = ec.decision_statistic(1, spectrum, fit)
        assert stat.v == pytest.approx(0.06, abs=1e-14)
        assert stat.kappa == pytest.approx(1.098, abs=1e-14)
        assert stat.z == pytest.approx((6.5 - 0.06) / 1.098 - 1.0, rel=1e-12)

    def test_population_round_trip_single_spike(self):
        # l set to the exact finite-sample mean makes z recover the strength
        lam, sigma2, p, n = 4.0, 1.0, 100, 200
        tau, _ = ec.fluctuation_params(lam, sigma2, p, n, q=1)
        fit = make_fit([lam], sigma2, p, n)
        values = np.array([tau] + [sigma2] * (p - 1))
        stat = ec.decision_statistic(1, spectrum_from_values(values, n), fit)
        assert stat.z == pytest.approx(lam, abs=1e-12)

    def test_population_consistency_with_interactions(self):
        """With l_i at the finite-sample expectation, z recovers lambda_i."""
        strengths = np.array([7.0, 4.0, 2.0])
        sigma2, p, n = 1.0, 60, 150
        model = ec.PopulationModel(strengths, sigma2, p)
        fit = make_fit(strengths, sigma2, p, n)
        values = np.concatenate([
            [ec.lawley_expectation(i, model, n) for i in (1, 2, 3)],
            np.full(p - 3, sigma2)])
        spectrum = spectrum_from_values(values, n)
        for i, lam in enumerate(strengths, start=1):
            stat = ec.decision_statistic(i, spectrum, fit)
            assert stat.z == pytest.approx(lam, abs=1e-10)

    def test_monotone_in_eigenvalue(self):
        fit = make_fit([5.0, 2.0], 1.0, p=51, n=100)
        zs = []
        for l1 in (5.0, 6.0, 7.0, 8.0):
            values = np.array([l1] + [2.9] + [1.0] * 49)
            zs.append(ec.decision_statistic(1, spectrum_from_values(values, 100), fit).z)
        assert np.all(np.diff(zs) > 0.0)


class TestStatStdDevRange:
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_squares_out_of_float_range(self, scale):
        """Squares that overflow or underflow to zero give the unit-scale
        result, scaled, not an arithmetic exception."""
        for lam, sigma2 in ((5.0, 1.0), (0.3, 1.0)):
            delta, valid = stat_std_dev(lam * scale, sigma2 * scale, 100, 2, 200)
            unit_delta, unit_valid = stat_std_dev(lam, sigma2, 100, 2, 200)
            assert valid == unit_valid
            assert delta / scale == pytest.approx(unit_delta, rel=1e-12)

    def test_strength_far_below_noise_is_clamped(self):
        delta, valid = stat_std_dev(1e-300, 1e10, 100, 2, 200)
        assert not valid and math.isfinite(delta)


class TestFluctuationParams:
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, scale):
        """lam = sigma2 = scale: the unit-scale mean and deviation, scaled,
        not a raw OverflowError or ZeroDivisionError."""
        unit = ec.fluctuation_params(1.0, 1.0, 100, 200, 2)
        tau, delta = ec.fluctuation_params(scale, scale, 100, 200, 2)
        assert math.isfinite(tau) and math.isfinite(delta)
        assert tau / scale == pytest.approx(unit[0], rel=1e-12)
        assert delta / scale == pytest.approx(unit[1], rel=1e-12)

    def test_built_from_the_statistic_formulas(self):
        kappa = kappa_factor(5.0, 1.0, 100, 2, 200)
        delta, _ = stat_std_dev(5.0, 1.0, 100, 2, 200, beta=2)
        assert ec.fluctuation_params(5.0, 1.0, 100, 200, 2, beta=2) == \
            ((5.0 + 1.0) * kappa, delta * kappa)

    def test_rejects_non_positive_noise(self):
        with pytest.raises(InvalidInputError):
            ec.fluctuation_params(5.0, 0.0, 100, 200, 2)


class TestSignalThreshold:
    def test_alpha0_half_is_detection_limit(self):
        delta, _ = stat_std_dev(5.0, 1.0, 60, 1, 120)
        threshold = _z_threshold(1.0, 0.5, delta, alpha0=0.5)
        assert threshold == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_hand_composition(self):
        delta, _ = stat_std_dev(5.0, 1.0, 100, 2, 200)
        expected = math.sqrt(0.5) + delta * 2.5758293035489004
        assert _z_threshold(1.0, 0.5, delta, 0.995) == pytest.approx(expected, rel=1e-9)
        assert _z_threshold(1.0, 0.5, delta, 0.995) == pytest.approx(2.10075, abs=1e-4)

    def test_clamped_delta_recovers_detection_limit(self):
        subcritical = 0.3 * math.sqrt(98.0 / 200.0)
        delta, valid = stat_std_dev(subcritical, 1.0, 100, 2, 200)
        assert not valid
        threshold = _z_threshold(1.0, 0.5, delta, 0.995)
        assert threshold == pytest.approx(ec.detection_limit(1.0, 0.5), abs=1e-5)
