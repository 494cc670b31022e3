import math
import re
import sys

import numpy as np
import pytest

import eigencount as ec
from eigencount.errors import InvalidInputError
from eigencount.noise import DEFAULT_TOL, _fixed_point, _roots_pass
from eigencount.spectral import Spectrum
from tests.conftest import sampled_spectrum, spectrum_from_values


def mle_noise(spectrum, k):
    """The fit's initialiser, the trailing-eigenvalue mean: a fit with no
    iterations returns it."""
    return _fixed_point(spectrum, k, DEFAULT_TOL, 0).sigma2_hat


def solve_rho(l, sigma2, p, k, n):
    """_roots_pass for one eigenvalue under hypothesis k; (root, flag)."""
    roots, degenerate = _roots_pass([l], sigma2, 1.0 - (p - k) / n)
    return roots[0], degenerate[0]


class TestMleNoise:
    def test_full_mean(self):
        assert mle_noise(spectrum_from_values([2.0, 1.0, 1.0], 6), 0) == pytest.approx(4.0 / 3.0)

    def test_last_eigenvalue(self):
        assert mle_noise(spectrum_from_values([5.0, 3.0, 2.0], 6), 2) == pytest.approx(2.0)

    def test_trailing_mean(self):
        spectrum = spectrum_from_values([10.0, 1.1, 0.9, 1.0], 8)
        assert mle_noise(spectrum, 1) == pytest.approx(1.0)

    def test_k_range(self):
        with pytest.raises(InvalidInputError):
            mle_noise(spectrum_from_values([1.0, 1.0], 4), 2)


class TestSolveRho:
    def test_hand_quadratic(self):
        # b = 4 + 1*(1 - 0.5) = 4.5, larger root (4.5 + sqrt(4.25))/2
        rho, degenerate = solve_rho(4.0, 1.0, p=50, k=10, n=80)
        assert not degenerate
        assert rho == pytest.approx((4.5 + math.sqrt(4.5**2 - 16.0)) / 2.0, rel=1e-14)

    def test_factorised_case(self):
        # (p-k)/n = 0 factorises the quadratic into roots {l, sigma2}
        rho, degenerate = solve_rho(4.0, 1.0, p=10, k=10, n=80)
        assert not degenerate and rho == pytest.approx(4.0, rel=1e-14)
        rho, _ = solve_rho(1.0, 1.0, p=10, k=10, n=80)
        assert rho == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_clamp(self):
        # bulk-interior eigenvalue cannot support a spike
        l, sigma2, p, k, n = 1.0, 1.0, 50, 2, 100
        b = l + sigma2 * (1.0 - (p - k) / n)
        assert b * b - 4.0 * l * sigma2 < 0.0
        rho, degenerate = solve_rho(l, sigma2, p, k, n)
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
            rho, degenerate = solve_rho(l, sigma2, p, k, n)
            if disc >= 0.0:
                assert not degenerate
                smaller = (b - math.sqrt(disc)) / 2.0
                assert rho >= smaller
                # the returned root satisfies the quadratic
                assert rho * rho - rho * b + l * sigma2 == pytest.approx(0.0, abs=1e-8 * l * l)
            else:
                assert degenerate

    def test_rejects_nonpositive(self):
        """A zero noise initialiser (k = 2) or a zero leading eigenvalue
        (k = 3) has no spike roots."""
        spectrum = spectrum_from_values([4.0, 2.0, 0.0, 0.0, 0.0], 10)
        for k in (2, 3):
            with pytest.raises(InvalidInputError, match="need l > 0 and sigma2 > 0"):
                ec.estimate_noise_and_spikes(spectrum, k)


class TestJointSolver:
    def test_k0_is_closed_form(self):
        spectrum = spectrum_from_values([4.0, 1.5, 1.0, 0.5], 8)
        fit = ec.estimate_noise_and_spikes(spectrum, 0)
        assert fit.sigma2_hat == float(spectrum.eigenvalues.mean())
        assert fit.converged and fit.iterations == 0
        assert fit.rho_hat == fit.lambda_hat == fit.degenerate_roots == ()

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
        expected = np.array(fit.rho_hat) - fit.sigma2_hat
        assert np.array(fit.lambda_hat).tobytes() == expected.tobytes()

    def test_rho_sorted_when_all_valid(self, strong_two_spike_fit):
        _, fit = strong_two_spike_fit
        assert np.all(np.diff(fit.rho_hat) <= 0.0)

    def test_k_validation(self):
        spectrum = spectrum_from_values(np.linspace(3.0, 1.0, 10), 5)
        with pytest.raises(InvalidInputError):
            ec.estimate_noise_and_spikes(spectrum, 5)  # min(p, n) - 1 = 4

    @pytest.mark.parametrize("k", [1.5, 1.0, True, float("nan")])
    def test_k_must_be_an_integer(self, k):
        """Also after the fit at k = 1 is memoised, where True and 1.0 would
        find it under their equal key."""
        spectrum = spectrum_from_values([30.0, 2.0, 1.0, 0.5], 10)
        ec.estimate_noise_and_spikes(spectrum, 1)
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            ec.estimate_noise_and_spikes(spectrum, k)


class TestSharedFits:
    def test_roots_equal_solve_rho_per_root(self):
        """The fixed point's roots are solve_rho's, degenerate roots included."""
        degenerate_seen = 0
        for seed in range(12):
            spectrum = sampled_spectrum([6.0, 3.0, 1.5], p=40, n=30, seed=4100 + seed)
            for k in range(1, 12):
                fit = ec.estimate_noise_and_spikes(spectrum, k)
                for j in range(k):
                    rho, degenerate = solve_rho(spectrum.eigenvalues[j], fit.sigma2_hat,
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
        assert np.array(fresh.rho_hat).tobytes() == np.array(fit.rho_hat).tobytes()

    def test_memoised_fits_are_immutable(self):
        spectrum = sampled_spectrum([6.0, 3.0], p=30, n=60, seed=4201)
        for k in (0, 2):
            fit = ec.estimate_noise_and_spikes(spectrum, k)
            for values in (fit.rho_hat, fit.lambda_hat, fit.degenerate_roots):
                assert type(values) is tuple and len(values) == k
        with pytest.raises(TypeError):
            fit.lambda_hat[0] = 0.0

    def test_fits_strand_no_allocated_blocks(self):
        """Fits built over and over leave the interpreter's block count
        level.  On CPython a tuple made from a generator strands one block
        per fit on the tuple free lists, which showed as a rising peak RSS."""
        spectrum = sampled_spectrum([9.0, 6.0, 4.0], p=40, n=80, seed=4203)

        def fit_all():
            for k in range(1, 9):
                _fixed_point(spectrum, k, DEFAULT_TOL, ec.noise.DEFAULT_MAX_ITER)

        fit_all()
        before = sys.getallocatedblocks()
        for _ in range(300):
            fit_all()
        assert sys.getallocatedblocks() - before < 300

    def test_invalid_k_not_cached(self):
        spectrum = sampled_spectrum([6.0], p=10, n=20, seed=4202)
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                ec.estimate_noise_and_spikes(spectrum, 10)


def reference_fixed_point(spectrum, k, tol=ec.noise.DEFAULT_TOL,
                          max_iter=ec.noise.DEFAULT_MAX_ITER):
    """The fixed point on float64 arrays, the oracle for the float iteration,
    with the spike excess summed left to right:
    (sigma2, rho, degenerate, converged, iterations)."""
    p, n = spectrum.p, spectrum.n
    vals = spectrum.eigenvalues
    sigma2_init = float(vals[k:].mean())
    leading = vals[:k]
    shift = 1.0 - (p - k) / n

    def roots(sigma2):
        b = leading + sigma2 * shift
        disc = b * b - 4.0 * leading * sigma2
        with np.errstate(invalid="ignore"):
            rho = np.where(disc < 0.0, b / 2.0, (b + np.sqrt(disc)) / 2.0)
        return rho, disc < 0.0

    sigma2 = sigma2_init
    for iteration in range(1, max_iter + 1):
        rho, _ = roots(sigma2)
        sigma2_new = float(vals[k:].sum() + np.add.accumulate(leading - rho)[-1]) / (p - k)
        if sigma2_new <= 0.0:
            return (sigma2_init, *roots(sigma2_init), False, iteration)
        if abs(sigma2_new - sigma2) < tol * sigma2_new:
            return (sigma2_new, *roots(sigma2_new), True, iteration)
        sigma2 = sigma2_new
    return (sigma2_init, *roots(sigma2_init), False, max_iter)


class TestFloatFixedPoint:
    def test_mean_is_sum_over_count(self):
        # The fit's initialiser tail_sum / (p - k) is numpy's mean.
        rng = np.random.default_rng(7)
        for _ in range(2000):
            values = rng.exponential(size=int(rng.integers(1, 150)))
            assert float(values.sum()) / values.size == float(values.mean())

    def test_fit_equals_array_reference(self):
        """Field by field, on desk spectra, p >> n, wide dynamic ranges and
        near-flat small spectra (where k = p - 1 drives the noise iterate
        below 0), through all three exits."""
        rng = np.random.default_rng(11)
        cases = [sampled_spectrum([9.0, 6.0, 4.0, 3.0, 2.5], p=40, n=30, seed=4300 + s)
                 for s in range(6)]
        cases += [spectrum_from_values(rng.exponential(2.0, 60), int(rng.integers(2, 12)))
                  for _ in range(6)]
        cases += [spectrum_from_values(rng.lognormal(0.0, 2.0, 25), 200) for _ in range(6)]
        cases += [spectrum_from_values(rng.lognormal(0.0, 0.1, 9), 70) for _ in range(6)]
        exits = set()
        for spectrum in cases:
            for k in range(1, min(spectrum.p, spectrum.n)):
                for max_iter in (3, 200):
                    fit = ec.noise._fixed_point(spectrum, k, ec.noise.DEFAULT_TOL, max_iter)
                    sigma2, rho, degenerate, converged, iterations = \
                        reference_fixed_point(spectrum, k, max_iter=max_iter)
                    assert repr(fit.sigma2_hat) == repr(sigma2)
                    assert np.array(fit.rho_hat).tobytes() == rho.tobytes()
                    assert np.array(fit.lambda_hat).tobytes() == (rho - sigma2).tobytes()
                    assert list(fit.degenerate_roots) == degenerate.tolist()
                    assert (fit.converged, fit.iterations) == (converged, iterations)
                    assert fit.any_degenerate == bool(degenerate.any())
                    exits.add("converged" if converged else
                              "max_iter" if iterations == max_iter else "non-positive")
        assert exits == {"converged", "max_iter", "non-positive"}


class TestSpikeRootRange:
    @pytest.mark.parametrize("power", [-600, -520, 500, 560])
    def test_out_of_range_roots_scale(self, power):
        """Eigenvalues whose squares leave the float range give the unit-scale
        roots, scaled, with the same flags."""
        scale = 2.0 ** power
        leading = [9.0, 4.0, 1.2, 0.5]
        for shift in (0.5, -0.4, -3.0):
            unit = ec.noise._roots_pass(leading, 1.1, shift)
            scaled = ec.noise._roots_pass([l * scale for l in leading], 1.1 * scale, shift)
            assert scaled[1] == unit[1]
            for root, unit_root in zip(*(scaled[0], unit[0])):
                assert math.isfinite(root)
                assert root / scale == pytest.approx(unit_root, rel=1e-13)

    def test_in_range_roots_keep_the_unscaled_bits(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            l = float(10.0 ** rng.uniform(-150.0, 150.0))
            sigma2 = l * float(rng.uniform(0.01, 2.0))
            shift = float(rng.uniform(-3.0, 1.0))
            (root,), (flag,) = ec.noise._roots_pass([l], sigma2, shift)
            b = l + sigma2 * shift
            disc = b * b - 4.0 * l * sigma2
            assert flag == (disc < 0.0)
            assert root == (b / 2.0 if flag else (b + math.sqrt(disc)) / 2.0)

    def test_huge_spectrum_fits_finite(self):
        spectrum = spectrum_from_values([8.72e154, 1.05e129], 11)
        fit = ec.estimate_noise_and_spikes(spectrum, 1)
        assert np.all(np.isfinite(fit.lambda_hat)) and math.isfinite(fit.sigma2_hat)


def _reference_spike_roots(leading, sigma2, shift, scaled):
    """A standalone copy of the spike quadratic, the reference for the
    fit's roots pass; appends to scaled each l whose root took the scaled
    form."""
    if sigma2 <= 0.0 or min(leading) <= 0.0:
        raise InvalidInputError("need l > 0 and sigma2 > 0")
    bias = sigma2 * shift
    four_sigma2 = 4.0 * sigma2
    roots, degenerate = [], []
    for l in leading:
        b = l + bias
        square, product = b * b, l * four_sigma2
        if ec.noise.FLOAT_MIN <= square <= ec.noise.FLOAT_MAX and \
                ec.noise.FLOAT_MIN <= product <= ec.noise.FLOAT_MAX:
            disc = square - product
            root, flag = (b / 2.0, True) if disc < 0.0 else ((b + math.sqrt(disc)) / 2.0, False)
        else:
            scaled.append(l)
            scale = abs(b)
            unit_disc = 1.0 - 4.0 * (l / scale) * (sigma2 / scale) if scale else -1.0
            if unit_disc < 0.0:
                root, flag = b / 2.0, True
            else:
                root, flag = 0.5 * b + 0.5 * scale * math.sqrt(unit_disc), False
        roots.append(root)
        degenerate.append(flag)
    return roots, degenerate


def reference_float_iteration(spectrum, k, scaled, tol=DEFAULT_TOL,
                              max_iter=ec.noise.DEFAULT_MAX_ITER):
    """The float fixed point with the roots and their excess sum, left to
    right, formed in separate passes:
    (sigma2, rho, degenerate, converged, iterations)."""
    p, n = spectrum.p, spectrum.n
    vals = spectrum.eigenvalues
    tail_sum = float(vals[k:].sum())
    sigma2_init = tail_sum / (p - k)
    if k == 0:
        return sigma2_init, [], [], True, 0
    leading = vals[:k].tolist()
    shift = 1.0 - (p - k) / n

    def roots(sigma2):
        return _reference_spike_roots(leading, sigma2, shift, scaled)

    sigma2 = sigma2_init
    for iteration in range(1, max_iter + 1):
        rho, _ = roots(sigma2)
        excess = float(np.add.accumulate(np.array([l - r for l, r in zip(leading, rho)]))[-1])
        sigma2_new = (tail_sum + excess) / (p - k)
        if sigma2_new <= 0.0:
            return (sigma2_init, *roots(sigma2_init), False, iteration)
        if abs(sigma2_new - sigma2) < tol * sigma2_new:
            return (sigma2_new, *roots(sigma2_new), True, iteration)
        sigma2 = sigma2_new
    return (sigma2_init, *roots(sigma2_init), False, max_iter)


class TestOnePassIteration:
    def test_fit_equals_two_pass_reference_on_golden_random_spectra(self):
        """Every k of the golden random spectra, as they are and scaled by
        2**-540 or 2**520, so that every root takes the scaled form."""
        from tests.test_golden import _cases
        seen = {"k": 0, "clamped": 0, "errors": 0}
        scaled = []
        for i, spectrum in enumerate(_cases("random")):
            for factor in (1.0, 2.0**-540 if i % 2 else 2.0**520):
                case = Spectrum(spectrum.eigenvalues * factor, spectrum.p, spectrum.n)
                for k in range(case.kmax + 1):
                    try:
                        expected = reference_float_iteration(case, k, scaled)
                    except InvalidInputError as exc:
                        with pytest.raises(InvalidInputError, match=re.escape(str(exc))):
                            _fixed_point(case, k, DEFAULT_TOL, ec.noise.DEFAULT_MAX_ITER)
                        seen["errors"] += 1
                        continue
                    fit = _fixed_point(case, k, DEFAULT_TOL, ec.noise.DEFAULT_MAX_ITER)
                    sigma2, rho, degenerate, converged, iterations = expected
                    assert repr(fit.sigma2_hat) == repr(sigma2)
                    assert np.array(fit.rho_hat).tobytes() == np.array(rho, dtype=float).tobytes()
                    assert list(fit.degenerate_roots) == degenerate
                    assert (fit.converged, fit.iterations) == (converged, iterations)
                    seen["k"] = max(seen["k"], k)
                    seen["clamped"] += any(degenerate)
        assert seen["k"] >= 8 and seen["clamped"] > 0 and seen["errors"] > 0
        assert scaled

    @pytest.mark.parametrize("values, n, ks, summed", [
        ([1e160, 40.0, 9.0, 4.0, 2.0, 1.5, 1.0, 0.5], 50, range(2, 8), False),
        ([1.0, 0.5, 2e-160, 1e-160, 5e-161, 2e-161, 1e-161, 5e-162], 50, range(3, 8), False),
        ([3.0, 1.3, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5], 2, [1], False),
        ([40.0, 9.0, 4.0, 2.0, 1.5, 1.0, 0.5, 0.4, 0.3, 0.2], 50, range(1, 10), True),
    ], ids=["above-the-range", "below-the-range", "negative-b", "in-range"])
    def test_fit_equals_reference_where_the_summed_loop_falls_back(self, monkeypatch,
                                                                  values, n, ks, summed):
        """At every k the iteration sums l - root as it goes, unless the
        leading values straddle an edge of the normal range (some roots
        scaled, some not) or l + sigma2 * shift is not positive: then every
        iteration forms its roots through _roots_pass.  The fit equals the
        reference either way."""
        calls = []
        roots_pass = ec.noise._roots_pass

        def counted_roots_pass(*args):
            calls.append(args)
            return roots_pass(*args)

        monkeypatch.setattr(ec.noise, "_roots_pass", counted_roots_pass)
        spectrum = spectrum_from_values(values, n)
        for k in ks:
            scaled, calls[:] = [], []
            sigma2, rho, degenerate, converged, iterations = \
                reference_float_iteration(spectrum, k, scaled)
            fit = _fixed_point(spectrum, k, DEFAULT_TOL, ec.noise.DEFAULT_MAX_ITER)
            assert repr(fit.sigma2_hat) == repr(sigma2)
            assert np.array(fit.rho_hat).tobytes() == np.array(rho, dtype=float).tobytes()
            assert list(fit.degenerate_roots) == degenerate
            assert (fit.converged, fit.iterations) == (converged, iterations)
            # The fit's own roots, and those of every iteration that fell back.
            assert len(calls) == 1 + (0 if summed else fit.iterations)
            if k > 1 and not summed:
                assert 0 < len(set(scaled)) < k
