import math

import numpy as np
import pytest

import eigencount as ec
from eigencount.errors import DegenerateModelError, InvalidInputError
from eigencount.signal_stats import fluctuation_params
from eigencount import spectral
from eigencount.spectral import (SYMMETRY_RTOL, SnapshotMatrix, Spectrum, _real_array,
                                 detection_limit)


def brute_force_covariance(data):
    """Element-wise double-loop oracle for the sample covariance."""
    p, n = data.shape
    s = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            for t in range(n):
                s[a, b] += data[a, t] * data[b, t]
    return s / n


def cofactor_determinant(m):
    m = np.asarray(m)
    if m.shape == (1, 1):
        return m[0, 0]
    total = 0.0
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_determinant(minor)
    return total


class TestSampleCovariance:
    def test_rank_one_outer_product(self):
        s = ec.sample_covariance(np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(s, [[1.0, 2.0], [2.0, 4.0]])

    def test_orthogonal_pair(self):
        s = ec.sample_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(s, np.eye(2) / 2.0)

    def test_matches_brute_force(self):
        rng = np.random.RandomState(3)
        data = rng.randn(3, 4)
        np.testing.assert_allclose(ec.sample_covariance(data),
                                   brute_force_covariance(data), atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.RandomState(4)
        s = ec.sample_covariance(rng.randn(8, 20))
        assert np.array_equal(s, s.T)

    def test_rejects_non_finite(self):
        data = np.ones((3, 3))
        data[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            ec.sample_covariance(data)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p, n", [(8, 20), (60, 120), (30, 7), (2, 2)])
    def test_bytes_equal_symmetrised_product(self, order, p, n):
        # Returning the product as it is when it is exactly symmetric gives
        # the bytes of the symmetrised product (s + s.T) / 2.
        data = np.asarray(np.random.default_rng(p * n).standard_normal((p, n)), order=order)
        s = data @ data.T / n
        assert ec.sample_covariance(data).tobytes() == ((s + s.T) / 2.0).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, where", [((4, 6), (1, 2)), ((4, 6), (3, 5)),
                                              ((6, 3), (0, 0)), ((6, 3), (5, 1))])
    def test_every_non_finite_entry_rejected(self, bad, shape, where):
        data = np.ones(shape)
        data[where] = bad
        with pytest.raises(InvalidInputError, match="snapshot data contains non-finite entries"):
            ec.sample_covariance(data)


class TestEigSymDesc:
    def test_diagonal(self):
        spectrum = ec.eig_sym_desc(np.diag([3.0, 1.0, 2.0]), n=10)
        np.testing.assert_allclose(spectrum.eigenvalues, [3.0, 2.0, 1.0], atol=1e-12)

    def test_identity(self):
        spectrum = ec.eig_sym_desc(np.eye(5), n=10)
        np.testing.assert_allclose(spectrum.eigenvalues, np.ones(5), atol=1e-12)

    def test_two_by_two_hand_solution(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x in {3, 1}
        spectrum = ec.eig_sym_desc(np.array([[2.0, 1.0], [1.0, 2.0]]), n=5)
        np.testing.assert_allclose(spectrum.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            a = rng.randn(6, 12)
            m = a @ a.T / 12
            spectrum = ec.eig_sym_desc(m, n=12)
            assert spectrum.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-9)

    def test_determinant_against_cofactor_oracle(self):
        rng = np.random.RandomState(6)
        for p in (2, 3, 4):
            a = rng.randn(p, 2 * p)
            m = a @ a.T / (2 * p)
            spectrum = ec.eig_sym_desc(m, n=2 * p)
            assert np.prod(spectrum.eigenvalues) == pytest.approx(
                cofactor_determinant(m), rel=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            ec.eig_sym_desc(np.array([[1.0, 2.0], [0.0, 1.0]]), n=4)

    @pytest.mark.parametrize("p, n", [(10, 20), (40, 20), (60, 60)])
    def test_exact_and_near_symmetric_bytes(self, p, n):
        # Both give the spectrum of the symmetrised (m + m.T) / 2.
        rng = np.random.default_rng(p + n)
        exact = ec.sample_covariance(rng.standard_normal((p, n)))
        near = exact.copy()
        near[0, 1] += 1e-12 * np.abs(exact).max()
        for m in (exact, near):
            w = np.linalg.eigvalsh((m + m.T) / 2.0)
            expected = Spectrum(w[::-1].copy(), p, n).eigenvalues
            assert ec.eig_sym_desc(m, n).eigenvalues.tobytes() == expected.tobytes()

    def test_symmetry_tolerance_is_relative(self):
        for scale in (1e-6, 1.0, 1e6):
            m = np.array([[2.0, 1.0], [1.0, 2.0]]) * scale
            m[0, 1] += 0.5 * SYMMETRY_RTOL * 2.0 * scale
            ec.eig_sym_desc(m, n=4)
            m[0, 1] += 2.0 * SYMMETRY_RTOL * 2.0 * scale
            with pytest.raises(InvalidInputError, match="not symmetric"):
                ec.eig_sym_desc(m, n=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        for mirrored in (False, True):
            m = np.eye(3)
            m[0, 1] = bad
            if mirrored:
                m[1, 0] = bad
            with pytest.raises(InvalidInputError, match="non-finite"):
                ec.eig_sym_desc(m, n=5)

    @pytest.mark.parametrize("matrix", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 2.0], [2.0, np.nan]],
        np.diag([1.0, 2.0, np.nan, 3.0]),
        [[2.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 2.0]]],
        ids=["first-diagonal", "last-diagonal", "4x4-diagonal", "3x3-middle-diagonal"])
    def test_nan_diagonal_entry_rejected_wherever_it_sits(self, matrix):
        # A NaN is never equal to itself, so no such matrix is exactly
        # symmetric; test_non_finite_entry_rejected covers the off-diagonals.
        with pytest.raises(InvalidInputError, match="non-finite"):
            ec.eig_sym_desc(np.array(matrix), n=10)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            ec.eig_sym_desc(np.zeros((0, 0)), n=5)

    def test_tiny_negative_eigenvalue_clamped(self):
        spectrum = ec.eig_sym_desc(np.diag([1.0, -5e-11]), n=4)
        assert spectrum.eigenvalues[-1] == 0.0

    def test_true_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidInputError):
            ec.eig_sym_desc(np.diag([1.0, -1e-3]), n=4)


class TestAsymptoticFormulas:
    def test_detection_limit_values(self):
        assert detection_limit(1.0, 0.25) == pytest.approx(0.5, rel=1e-14)
        assert detection_limit(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert detection_limit(2.0, 0.5) == pytest.approx(2.0 * math.sqrt(0.5), rel=1e-14)

    @pytest.mark.parametrize("args", [(math.nan, 0.5), (1.0, math.nan)])
    def test_nan_rejected(self, args):
        """NaN is not passed through."""
        with pytest.raises(InvalidInputError):
            detection_limit(*args)

    def test_fluctuation_example(self):
        tau, delta = fluctuation_params(5.0, 1.0, p=100, n=200, q=2, beta=1)
        assert tau == pytest.approx(6.0 * (1.0 + 0.49 / 5.0), rel=1e-14)
        assert delta == pytest.approx(6.0 * math.sqrt(0.01 * (1.0 - 0.49 / 25.0)), rel=1e-14)
        assert tau == pytest.approx(6.588, abs=1e-9)

    def test_fluctuation_no_noise_dimensions(self):
        tau, _ = fluctuation_params(3.0, 1.0, p=50, n=100, q=50, beta=1)
        assert tau == pytest.approx(4.0, rel=1e-14)

    def test_fluctuation_boundary(self):
        threshold = math.sqrt(98.0 / 200.0)
        _, delta = fluctuation_params(threshold * (1 + 1e-8), 1.0, 100, 200, 2)
        assert 0.0 < delta < 1e-3
        with pytest.raises(InvalidInputError):
            fluctuation_params(threshold, 1.0, 100, 200, 2)

    def test_lawley_single_spike(self):
        model = ec.PopulationModel(np.array([4.0]), 1.0, 100)
        assert ec.lawley_expectation(1, model, 200) == pytest.approx(5.61875, abs=1e-12)

    def test_lawley_interaction_terms(self):
        model = ec.PopulationModel(np.array([5.0, 2.0]), 1.0, 100)
        n = 100
        base = []
        for rho in (6.0, 3.0):
            base.append(rho + 98.0 * rho / (n * (rho - 1.0)))
        assert ec.lawley_expectation(1, model, n) - base[0] == pytest.approx(0.06, abs=1e-12)
        assert ec.lawley_expectation(2, model, n) - base[1] == pytest.approx(-0.06, abs=1e-12)

    def test_lawley_rejects_ties(self):
        model = ec.PopulationModel(np.array([5.0 + 1e-12, 5.0]), 1.0, 100)
        with pytest.raises(DegenerateModelError):
            ec.lawley_expectation(1, model, 100)

    def test_lawley_rejects_gaps_the_interaction_term_would_clamp(self):
        # Relative gap 1e-7, inside TIE_CLAMP_SCALE = 1e-6 of the largest
        # strength: interaction_term would replace it by its tie clamp.
        model = ec.PopulationModel(np.array([5.0, 5.0 * (1.0 - 1e-7)]), 1.0, 100)
        with pytest.raises(DegenerateModelError):
            ec.lawley_expectation(1, model, 100)
        model = ec.PopulationModel(np.array([5.0, 5.0 * (1.0 - 1e-5)]), 1.0, 100)
        assert math.isfinite(ec.lawley_expectation(1, model, 100))

    def test_lawley_index_validation(self):
        model = ec.PopulationModel(np.array([4.0]), 1.0, 100)
        with pytest.raises(InvalidInputError):
            ec.lawley_expectation(2, model, 100)


class TestTypes:
    def test_spectrum_stable_descending_sort(self):
        spectrum = Spectrum.from_values(np.array([1.0, 3.0, 2.0, 3.0]), n=8)
        np.testing.assert_allclose(spectrum.eigenvalues, [3.0, 3.0, 2.0, 1.0])
        assert spectrum.gamma == pytest.approx(0.5)

    @pytest.mark.parametrize("p, n", [(5, 10), (10, 5), (6, 6), (1, 3), (3, 1)])
    def test_kmax_bounds_scans_and_criteria(self, p, n):
        """Each eigenvalue 1e3 times the next: rmt and sns accept every step,
        so they run to kmax = min(p, n) - 1 and stop there; the information
        criteria score k = 0..kmax."""
        from eigencount.estimators import _likelihood_terms
        spectrum = Spectrum(1e3 ** np.arange(p, 0, -1.0), p, n)
        assert spectrum.kmax == min(p, n) - 1
        for method in ("rmt", "sns"):
            result = ec.estimate(spectrum, method)
            assert result.q_hat == len(result.trace.rows) == spectrum.kmax
        assert _likelihood_terms(spectrum)[0].size == spectrum.kmax + 1

    @pytest.mark.parametrize("build, message", [
        (lambda: Spectrum.from_values([30.0, 2.0, 1.0, 0.5], 2.5), "n must be an integer"),
        (lambda: Spectrum(np.array([30.0, 2.0, 1.0, 0.5]), 4.0, 10), "p must be an integer"),
        (lambda: Spectrum.from_values([30.0, 2.0, 1.0, 0.5], True), "n must be an integer"),
        (lambda: Spectrum.from_values([30.0, 2.0, 1.0, 0.5], float("nan")),
         "n must be an integer"),
        (lambda: ec.PopulationModel(np.array([3.0]), 1.0, 10.5), "p must be an integer"),
        (lambda: ec.PopulationModel(np.array([3.0]), 1.0, True), "p must be an integer")])
    def test_non_integer_dimension_rejected(self, build, message):
        """A float, a bool or NaN dimension is rejected where it enters,
        not by a raw TypeError in the scans or the draw."""
        with pytest.raises(InvalidInputError, match=message):
            build()

    def test_numpy_integer_dimensions_accepted(self):
        spectrum = Spectrum(np.array([3.0, 2.0, 1.0]), np.int64(3), np.int32(10))
        assert spectrum.kmax == 2

    def test_spectrum_rejects_disorder(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([1.0, 2.0]), 2, 4)

    @pytest.mark.parametrize("scale", [1e-20, 1e-3, 1.0, 1e20])
    def test_sort_check_is_scale_free(self, scale):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([1.0, 5.0, 3.0]) * scale, 3, 10)
        # Round-off below the relative tolerance is accepted at every scale.
        Spectrum(np.array([5.0, 3.0, 3.0 * (1.0 + 1e-14)]) * scale, 3, 10)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([]), 0, 10)

    def test_spectrum_clamps_roundoff(self):
        spectrum = Spectrum(np.array([2.0, -5e-11]), 2, 4)
        assert spectrum.eigenvalues[-1] == 0.0
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([2.0, -1e-9]), 2, 4)

    def test_snapshot_matrix_validation(self):
        with pytest.raises(InvalidInputError):
            SnapshotMatrix(np.ones((1, 5)))
        with pytest.raises(InvalidInputError):
            SnapshotMatrix(np.ones((5, 1)))
        with pytest.raises(InvalidInputError, match="2-D"):
            SnapshotMatrix(np.ones(5))
        with pytest.raises(InvalidInputError, match="non-finite"):
            SnapshotMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))
        snap = SnapshotMatrix(np.ones((2, 3)))
        assert (snap.p, snap.n) == (2, 3)
        with pytest.raises(AttributeError):
            snap.p = 4

    def test_population_model_validation(self):
        with pytest.raises(InvalidInputError):
            ec.PopulationModel(np.array([1.0, 2.0]), 1.0, 10)  # not descending
        with pytest.raises(InvalidInputError):
            ec.PopulationModel(np.array([1.0]), 1.0, 1)  # q >= p
        with pytest.raises(InvalidInputError, match="1-D"):
            ec.PopulationModel(np.array([[3.0, 2.0]]), 1.0, 10)
        model = ec.PopulationModel(np.array([3.0, 1.0]), 2.0, 4)
        np.testing.assert_allclose(model.covariance_diagonal(), [5.0, 3.0, 2.0, 2.0])

    @pytest.mark.parametrize("strengths, noise_variance, field", [
        ([3.0], float("nan"), "noise_variance"),
        ([3.0], float("inf"), "noise_variance"),
        ([float("nan")], 1.0, "signal_strengths"),
        ([float("inf"), 3.0], 1.0, "signal_strengths")])
    def test_population_model_rejects_non_finite_values(self, strengths, noise_variance,
                                                         field):
        with pytest.raises(InvalidInputError, match=field):
            ec.PopulationModel(np.array(strengths), noise_variance, 10)

    @pytest.mark.parametrize("strengths, noise_variance, field", [
        (np.array([3.0]), "1", "noise_variance"),
        (np.array([3.0]), True, "noise_variance"),
        (["3"], 1.0, "signal_strengths"),
        (np.array([True]), 1.0, "signal_strengths")])
    def test_population_model_rejects_non_numeric_values(self, strengths, noise_variance,
                                                         field):
        with pytest.raises(InvalidInputError, match=field):
            ec.PopulationModel(strengths, noise_variance, 10)


class TestAdmission:
    def test_float64_array_is_returned_as_the_same_object(self):
        data = np.ones((3, 4))
        assert _real_array("data", data, 2) is data
        assert SnapshotMatrix(data).data is data
        for other in (data.astype(np.float32), data.astype(int), data.tolist()):
            admitted = _real_array("data", other, 2)
            assert admitted.dtype == np.float64 and np.array_equal(admitted, data)

    def test_dimensions(self):
        assert _real_array("x", [[1, 2]]).shape == (1, 2)
        assert _real_array("x", 3, 0, 1).shape == ()
        with pytest.raises(InvalidInputError, match="x must be 0-D or 1-D, got shape"):
            _real_array("x", [[1.0]], 0, 1)

    def test_every_array_input_goes_through_it(self, monkeypatch):
        admitted = []

        def spy(name, value, *ndims):
            admitted.append(name)
            return _real_array(name, value, *ndims)

        monkeypatch.setattr(spectral, "_real_array", spy)
        data = np.ones((2, 3))
        SnapshotMatrix(data)
        ec.eig_sym_desc(ec.sample_covariance(data), 3)
        Spectrum.from_values([1.0, 2.0], 3)
        ec.PopulationModel(3.0, 1.0, 2)
        assert admitted == ["snapshot data", "snapshot data", "matrix", "eigenvalues",
                            "eigenvalues", "eigenvalues", "signal_strengths"]
        assert ec.PopulationModel(3.0, 1.0, 2).signal_strengths.shape == (1,)


class TestSpectrumContract:
    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    def test_non_finite_eigenvalues_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([bad, 2.0, 1.0, 1.0]), 4, 10)
        with pytest.raises(InvalidInputError):
            Spectrum.from_values(np.array([2.0, bad, 1.0, 1.0]), 10)

    def test_eigenvalues_read_only(self):
        values = np.array([3.0, 2.0, 1.0])
        spectrum = Spectrum(values, 3, 10)
        with pytest.raises(ValueError):
            spectrum.eigenvalues[0] = 5.0
        values[0] = 5.0  # the caller's array is not frozen or shared
        assert spectrum.eigenvalues[0] == 3.0

    def test_memo_is_per_instance_and_invisible(self):
        a = Spectrum(np.array([3.0, 2.0, 1.0]), 3, 10)
        b = Spectrum(np.array([3.0, 2.0, 1.0]), 3, 10)
        assert a._memoised("key", lambda: [1]) == [1]
        assert b._memoised("key", lambda: [2]) == [2]
        assert a._memoised("key", lambda: [3]) == [1]
        assert "memo" not in repr(a)

    def test_memo_does_not_cache_exceptions(self):
        spectrum = Spectrum(np.array([3.0, 2.0, 1.0]), 3, 10)

        def fail():
            raise InvalidInputError("boom")

        with pytest.raises(InvalidInputError):
            spectrum._memoised("key", fail)
        assert spectrum._memoised("key", lambda: 7) == 7
