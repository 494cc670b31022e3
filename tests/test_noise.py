import math

import numpy as np
import pytest

import eigencount as ec
from eigencount.errors import InvalidInputError
from tests.conftest import sampled_spectrum, spectrum_from_values


class TestMleNoise:
    def test_full_mean(self):
        assert ec.mle_noise(spectrum_from_values([2.0, 1.0, 1.0], 6), 0) == pytest.approx(4.0 / 3.0)

    def test_last_eigenvalue(self):
        assert ec.mle_noise(spectrum_from_values([5.0, 3.0, 2.0], 6), 2) == pytest.approx(2.0)

    def test_trailing_mean(self):
        spectrum = spectrum_from_values([10.0, 1.1, 0.9, 1.0], 8)
        assert ec.mle_noise(spectrum, 1) == pytest.approx(1.0)

    def test_k_range(self):
        with pytest.raises(InvalidInputError):
            ec.mle_noise(spectrum_from_values([1.0, 1.0], 4), 2)


class TestSolveRho:
    def test_hand_quadratic(self):
        # b = 4 + 1*(1 - 0.5) = 4.5, larger root (4.5 + sqrt(4.25))/2
        rho, degenerate = ec.solve_rho(4.0, 1.0, p=50, k=10, n=80)
        assert not degenerate
        assert rho == pytest.approx((4.5 + math.sqrt(4.5**2 - 16.0)) / 2.0, rel=1e-14)

    def test_factorised_case(self):
        # (p-k)/n = 0 factorises the quadratic into roots {l, sigma2}
        rho, degenerate = ec.solve_rho(4.0, 1.0, p=10, k=10, n=80)
        assert not degenerate and rho == pytest.approx(4.0, rel=1e-14)
        rho, _ = ec.solve_rho(1.0, 1.0, p=10, k=10, n=80)
        assert rho == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_clamp(self):
        # bulk-interior eigenvalue cannot support a spike
        l, sigma2, p, k, n = 1.0, 1.0, 50, 2, 100
        b = l + sigma2 * (1.0 - (p - k) / n)
        assert b * b - 4.0 * l * sigma2 < 0.0
        rho, degenerate = ec.solve_rho(l, sigma2, p, k, n)
        assert degenerate and rho == pytest.approx(b / 2.0)

    def test_root_properties_random(self):
        rng = np.random.RandomState(12)
        for _ in range(10_000):
            l = rng.uniform(0.1, 20.0)
            sigma2 = rng.uniform(0.1, 3.0)
            p = rng.randint(5, 200)
            k = rng.randint(0, 5)
            n = rng.randint(5, 400)
            b = l + sigma2 * (1.0 - (p - k) / n)
            disc = b * b - 4.0 * l * sigma2
            rho, degenerate = ec.solve_rho(l, sigma2, p, k, n)
            if disc >= 0.0:
                assert not degenerate
                smaller = (b - math.sqrt(disc)) / 2.0
                assert rho >= smaller
                # the returned root satisfies the quadratic
                assert rho * rho - rho * b + l * sigma2 == pytest.approx(0.0, abs=1e-8 * l * l)
            else:
                assert degenerate

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            ec.solve_rho(0.0, 1.0, 10, 1, 10)


class TestJointSolver:
    def test_k0_is_closed_form(self):
        spectrum = spectrum_from_values([4.0, 1.5, 1.0, 0.5], 8)
        fit = ec.estimate_noise_and_spikes(spectrum, 0)
        assert fit.sigma2_hat == ec.mle_noise(spectrum, 0)
        assert fit.converged and fit.iterations == 0
        assert fit.rho_hat.size == 0

    def test_idealised_single_spike(self):
        """Spike at its deterministic limit, noise floor exactly at sigma2."""
        p, n = 100, 200
        values = np.full(p, 1.0)
        values[0] = 6.588
        fit = ec.estimate_noise_and_spikes(spectrum_from_values(values, n), 1)
        assert fit.converged
        assert fit.sigma2_hat == pytest.approx(1.0, rel=0.02)
        assert fit.lambda_hat[0] == pytest.approx(5.0, rel=0.05)

    def test_fixed_point_matches_grid_search(self):
        """Brute-force 2-D scan of the system residual around the solution."""
        p, n = 100, 200
        values = np.full(p, 1.0)
        values[0] = 6.588
        spectrum = spectrum_from_values(values, n)
        fit = ec.estimate_noise_and_spikes(spectrum, 1)

        tail = values[1:].sum()
        best, best_pair = np.inf, None
        for sigma2 in np.linspace(0.95, 1.06, 221):
            for rho in np.linspace(5.4, 6.4, 201):
                r_noise = sigma2 - (tail + values[0] - rho) / (p - 1)
                r_spike = rho**2 - rho * (values[0] + sigma2 * (1 - (p - 1) / n)) \
                    + values[0] * sigma2
                residual = abs(r_noise) + abs(r_spike)
                if residual < best:
                    best, best_pair = residual, (sigma2, rho)
        assert best_pair[0] == pytest.approx(fit.sigma2_hat, abs=6e-4)
        assert best_pair[1] == pytest.approx(fit.rho_hat[0], abs=6e-3)

    def test_residual_invariants_on_sampled_spectra(self):
        for seed in range(25):
            spectrum = sampled_spectrum([9.0, 6.0, 4.0], p=50, n=100, seed=700 + seed)
            for k in (1, 2, 3, 4):
                fit = ec.estimate_noise_and_spikes(spectrum, k)
                if not fit.converged:
                    continue
                vals = spectrum.eigenvalues
                eq_noise = (vals[k:].sum()
                            + (vals[:k] - fit.rho_hat).sum()) / (spectrum.p - k)
                assert abs(fit.sigma2_hat - eq_noise) <= 1e-8 * fit.sigma2_hat
                for j in range(k):
                    if fit.degenerate_roots[j]:
                        continue
                    b = vals[j] + fit.sigma2_hat * (1 - (spectrum.p - k) / spectrum.n)
                    residual = fit.rho_hat[j]**2 - fit.rho_hat[j] * b \
                        + vals[j] * fit.sigma2_hat
                    assert abs(residual) <= 1e-8 * vals[j]**2

    def test_lambda_hat_definition(self):
        spectrum = sampled_spectrum([7.0], p=40, n=80, seed=42)
        fit = ec.estimate_noise_and_spikes(spectrum, 1)
        np.testing.assert_array_equal(fit.lambda_hat, fit.rho_hat - fit.sigma2_hat)

    def test_rho_sorted_when_all_valid(self, strong_two_spike_fit):
        _, fit = strong_two_spike_fit
        assert np.all(np.diff(fit.rho_hat) <= 0.0)

    def test_k_validation(self):
        spectrum = spectrum_from_values(np.linspace(3.0, 1.0, 10), 5)
        with pytest.raises(InvalidInputError):
            ec.estimate_noise_and_spikes(spectrum, 5)  # min(p, n) - 1 = 4


class TestSharedFits:
    def test_roots_equal_solve_rho_per_root(self):
        """The fixed point's roots are solve_rho's, degenerate roots included."""
        degenerate_seen = 0
        for seed in range(12):
            spectrum = sampled_spectrum([6.0, 3.0, 1.5], p=40, n=30, seed=4100 + seed)
            for k in range(1, 12):
                fit = ec.estimate_noise_and_spikes(spectrum, k)
                for j in range(k):
                    rho, degenerate = ec.solve_rho(spectrum.eigenvalues[j], fit.sigma2_hat,
                                                   spectrum.p, k, spectrum.n)
                    assert rho == fit.rho_hat[j]
                    assert degenerate == fit.degenerate_roots[j]
                    degenerate_seen += degenerate
        assert degenerate_seen > 0

    def test_fit_is_memoised_per_spectrum(self):
        spectrum = sampled_spectrum([6.0, 3.0], p=30, n=60, seed=4200)
        fit = ec.estimate_noise_and_spikes(spectrum, 2)
        assert ec.estimate_noise_and_spikes(spectrum, 2) is fit
        assert ec.estimate_noise_and_spikes(spectrum, 2, tol=1e-6) is not fit
        twin = ec.Spectrum(spectrum.eigenvalues, spectrum.p, spectrum.n)
        fresh = ec.estimate_noise_and_spikes(twin, 2)
        assert fresh is not fit
        assert fresh.sigma2_hat == fit.sigma2_hat
        assert fresh.rho_hat.tobytes() == fit.rho_hat.tobytes()

    def test_memoised_arrays_are_read_only(self):
        spectrum = sampled_spectrum([6.0, 3.0], p=30, n=60, seed=4201)
        for k in (0, 2):
            fit = ec.estimate_noise_and_spikes(spectrum, k)
            for array in (fit.rho_hat, fit.lambda_hat, fit.degenerate_roots):
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            fit.lambda_hat[0] = 0.0

    def test_invalid_k_not_cached(self):
        spectrum = sampled_spectrum([6.0], p=10, n=20, seed=4202)
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                ec.estimate_noise_and_spikes(spectrum, 10)
