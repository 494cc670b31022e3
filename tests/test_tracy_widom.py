"""Tracy-Widom table, interpolation and edge constants.

Frozen oracle values come from scripts/make_tw_table.py (Painleve II
integration) and were cross-checked against an independent Airy-kernel
Fredholm-determinant computation (agreement ~1e-8) and against published
high-precision moments of both laws.
"""

import hashlib
import math

import numpy as np
import pytest

import eigencount as ec
from eigencount import _tw_data, tracy_widom
from eigencount.errors import InvalidInputError
from eigencount.spectral import PopulationModel, eig_sym_desc, sample_covariance
from eigencount.simulation import generate_snapshots, trial_rng
from eigencount.tracy_widom import _edge_constants, centering_mu, scaling_sigma

# Oracle quantiles F_beta(s) = 1 - alpha.
QUANTILE_ORACLE = {
    (0.05, 1): 0.97931605,
    (0.01, 1): 2.02344928,
    (0.005, 1): 2.42232659,
    (0.05, 2): -0.23247447,
    (0.01, 2): 0.47763605,
    (0.005, 2): 0.74622708,
}
CDF_ORACLE = {
    (-1.2065, 1): 0.5196627313,
    (-3.0, 1): 0.0696001189,
    (0.0, 2): 0.9693728284,
}
# Published moments (Bornemann 2010).
MOMENTS = {1: (-1.2065335746, 1.6077810346), 2: (-1.7710868074, 0.8131947928)}


class TestCdf:
    def test_far_tails(self):
        for beta in (1, 2):
            assert ec.tw_cdf(-50.0, beta) == pytest.approx(0.0, abs=1e-9)
            assert ec.tw_cdf(50.0, beta) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("key", sorted(CDF_ORACLE))
    def test_against_oracle(self, key):
        (x, beta) = key
        assert ec.tw_cdf(x, beta) == pytest.approx(CDF_ORACLE[key], abs=1e-3)
        # the table itself is far more accurate than the contract demands
        assert ec.tw_cdf(x, beta) == pytest.approx(CDF_ORACLE[key], abs=1e-6)

    def test_monotone_on_dense_grid(self):
        xs = np.linspace(-12.0, 12.0, 10_000)
        for beta in (1, 2):
            values = ec.tw_cdf(xs, beta)
            assert np.all(np.diff(values) >= 0.0)
            assert np.all((values >= 0.0) & (values <= 1.0))

    def test_moments_from_table(self):
        xs = np.arange(-10.0, 10.0, 1e-3)
        for beta in (1, 2):
            cdf = ec.tw_cdf(xs, beta)
            pdf = np.gradient(cdf, xs)
            mean = np.trapezoid(xs * pdf, xs)
            var = np.trapezoid(xs**2 * pdf, xs) - mean**2
            ref_mean, ref_var = MOMENTS[beta]
            assert mean == pytest.approx(ref_mean, abs=2e-3)
            assert var == pytest.approx(ref_var, abs=2e-3)

    def test_unsupported_beta(self):
        """beta is the integer 1 or 2; a bool, a float or a string is not."""
        for beta in (3, True, 2.0, "1"):
            with pytest.raises(InvalidInputError, match="the integer 1 or 2"):
                ec.tw_cdf(0.0, beta)
            with pytest.raises(InvalidInputError, match="the integer 1 or 2"):
                ec.tw_quantile(0.005, beta)


class TestQuantile:
    @pytest.mark.parametrize("key", sorted(QUANTILE_ORACLE))
    def test_against_oracle(self, key):
        alpha, beta = key
        assert ec.tw_quantile(alpha, beta) == pytest.approx(QUANTILE_ORACLE[key], abs=1e-3)

    def test_quantile_cdf_consistency(self):
        for alpha in (0.3, 0.05, 0.005):
            for beta in (1, 2):
                s = ec.tw_quantile(alpha, beta)
                assert ec.tw_cdf(s, beta) == pytest.approx(1.0 - alpha, abs=1e-6)

    def test_round_trip_through_grid_points(self):
        xs = np.linspace(-4.0, 3.0, 40)
        for x in xs:
            alpha = 1.0 - ec.tw_cdf(x, 1)
            if 1e-8 < alpha < 1 - 1e-8:
                assert ec.tw_quantile(alpha, 1) == pytest.approx(x, abs=1e-4)

    def test_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.001, 0.999, 60)
        values = [ec.tw_quantile(a, 1) for a in alphas]
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 2.0])
    def test_alpha_range(self, bad):
        with pytest.raises(InvalidInputError):
            ec.tw_quantile(bad, 1)

    @pytest.mark.parametrize("beta", (1, 2))
    def test_returns_a_python_float(self, beta):
        assert type(ec.tw_quantile(0.005, beta)) is float


class TestEdgeConstants:
    def test_centering_example(self):
        # direct evaluation of the centering formula
        expected = (math.sqrt(199.5) + math.sqrt(99.5)) ** 2 / 200.0
        assert centering_mu(200, 100) == pytest.approx(expected, rel=1e-14)
        assert centering_mu(200, 100) == pytest.approx(2.90391, abs=1e-5)

    def test_centering_degenerate_point(self):
        assert centering_mu(1, 1) == pytest.approx(2.0, rel=1e-12)

    def test_centering_square_limit(self):
        assert centering_mu(10_000, 10_000) == pytest.approx(4.0, abs=0.01)

    def test_scaling_example(self):
        mu = centering_mu(200, 100)
        expected = math.sqrt(mu / 200.0) * (1 / math.sqrt(199.5) + 1 / math.sqrt(99.5)) ** (1 / 3)
        assert scaling_sigma(200, 100) == pytest.approx(expected, rel=1e-14)
        assert scaling_sigma(200, 100) == pytest.approx(0.066893, abs=1e-4)

    def test_scaling_positive_and_decreasing_in_n(self):
        values = [scaling_sigma(n, 100) for n in (100, 200, 400)]
        assert all(v > 0.0 for v in values)
        assert values[0] > values[1] > values[2]

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            centering_mu(0, 5)
        with pytest.raises(InvalidInputError):
            scaling_sigma(5, 0)
        with pytest.raises(InvalidInputError):
            _edge_constants(5, 0)

    def test_cached_constants_equal_the_formulas(self):
        for n in (1, 2, 3, 10, 39, 120, 400, 10_000):
            for p in (1, 2, 5, 19, 59, 60, 399, 800):
                assert _edge_constants(n, p) == (centering_mu(n, p),
                                                 scaling_sigma(n, p))


class TestTableValidation:
    """Invariants of the embedded tables that the interpolant relies on."""

    def test_grid_is_strictly_increasing_with_a_uniform_step(self):
        steps = np.diff(tracy_widom._GRID)
        assert np.all(steps > 0.0)
        assert np.max(np.abs(steps - _tw_data.STEP)) < 1e-12

    @pytest.mark.parametrize("beta", (1, 2))
    def test_cdf_matches_the_grid(self, beta):
        cdf = tracy_widom._CDF[beta]
        assert cdf.ndim == 1 and cdf.shape == tracy_widom._GRID.shape
        assert cdf.size >= 4

    @pytest.mark.parametrize("beta", (1, 2))
    def test_cdf_is_monotone(self, beta):
        cdf = tracy_widom._CDF[beta]
        assert np.all(np.diff(cdf) >= 0.0)
        # Strict increase is only representable where float64 resolves the
        # tails: below 1e-280 the far-left beta=2 tail sits in the
        # denormal/underflow regime, and the far-right tail saturates at 1.
        visible = (cdf > 1e-280) & (cdf < 1.0 - 1e-13)
        assert np.all(np.diff(cdf[visible]) > 0.0)

    def test_embedded_tables_pass_invariants(self):
        grid = tracy_widom._GRID
        for beta in (1, 2):
            cdf = tracy_widom._CDF[beta]
            assert cdf[0] < 1e-9
            assert cdf[-1] > 1.0 - 1e-9
            assert grid[0] <= -10.0 and grid[-1] >= 6.0


def test_monte_carlo_edge_law():
    """Largest pure-noise eigenvalue exceeds the alpha=0.05 threshold at a
    rate near 0.05 (wide band for finite-size effects)."""
    p, n, trials = 100, 200, 3000
    model = PopulationModel(np.array([]), 1.0, p)
    threshold = centering_mu(n, p) + ec.tw_quantile(0.05, 1) * scaling_sigma(n, p)
    exceed = 0
    for t in range(trials):
        snap = generate_snapshots(model, n, trial_rng(905, t))
        spectrum = eig_sym_desc(sample_covariance(snap.data), n)
        exceed += spectrum.eigenvalues[0] > threshold
    assert 0.02 <= exceed / trials <= 0.09


def _bits(x):
    return np.float64(x).view(np.int64)


def _probe_points():
    """Grid nodes, midpoints, 0.3-points, +-1 ulp at both table ends,
    points outside the table and +-inf."""
    grid = tracy_widom._GRID
    tiny = np.spacing(np.abs(grid[[0, -1]]))
    return np.concatenate([
        grid,
        0.5 * (grid[:-1] + grid[1:]),
        grid[:-1] + 0.3 * np.diff(grid),
        [grid[0] - tiny[0], grid[0] + tiny[0],
         grid[-1] - tiny[1], grid[-1] + tiny[1],
         grid[0] - 1.0, grid[-1] + 1.0,
         -np.inf, np.inf],
    ])


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


QUANTILE_ALPHAS = (0.05, 0.01, 0.005, 0.001)
# sha256 of the float64 bytes of the table grid, of tw_cdf on _probe_points()
# (array path, then the scalar path point by point) and of tw_quantile at
# QUANTILE_ALPHAS.  A change meant to keep the TW arithmetic must keep them.
GOLDEN_GRID = "06a2d12183c2f6b31b991589b010703cfab1297902bf4a57f059ff0737b0c490"
# sha256 of _tw_cdf.bin, the beta = 1 then beta = 2 CDF column as
# little-endian float64; the values of the literals it replaced.
GOLDEN_TABLE = "94aa97153aad02d2ecf252f1f5b525dde68195fdf1c3d80a1816133a58b3f543"
GOLDEN_TW = {
    1: ("5cee25996204083e91fc12f9cc15ced58291b6d44aa045d9be08943aa7b55735",
        "53e001a598a32b56c5a7801016ee090a3f4e2c9aeecac588678977104f5eda0b"),
    2: ("b9efa989c85deadcc16a915ad764e21b832f49f89e7cd012c4a413b9fa73a898",
        "17a6c4e30851485a925303800ec94b819fcdbc21f783bb67baaeeee72828d1d3"),
}


class TestGoldenBits:
    def test_grid(self):
        assert _sha256(tracy_widom._GRID) == GOLDEN_GRID

    def test_table_file(self):
        with open(tracy_widom._TABLE, "rb") as table:
            assert hashlib.sha256(table.read()).hexdigest() == GOLDEN_TABLE

    @pytest.mark.parametrize("beta", (1, 2))
    def test_cdf_on_both_paths(self, beta):
        points = _probe_points()
        assert _sha256(ec.tw_cdf(points, beta)) == GOLDEN_TW[beta][0]
        assert _sha256([ec.tw_cdf(float(x), beta) for x in points]) == GOLDEN_TW[beta][0]

    @pytest.mark.parametrize("beta", (1, 2))
    def test_quantiles(self, beta):
        values = [ec.tw_quantile(alpha, beta) for alpha in QUANTILE_ALPHAS]
        assert _sha256(values) == GOLDEN_TW[beta][1]


class TestScalarCdfPath:
    """An array is evaluated point by point; its values keep the scalar bits."""

    @pytest.mark.parametrize("beta", (1, 2))
    def test_scalar_equals_array_bit_for_bit(self, beta):
        points = _probe_points()
        array_values = ec.tw_cdf(points, beta)
        for x, expected in zip(points, array_values):
            for scalar in (float(x), np.float64(x)):
                value = ec.tw_cdf(scalar, beta)
                assert type(value) is float
                assert _bits(value) == _bits(expected), x

    def test_integer_argument(self):
        assert ec.tw_cdf(0) == ec.tw_cdf(np.array([0.0]))[0]
        assert ec.tw_cdf(10**30) == 1.0  # beyond int64, so not through numpy
        # Beyond the float range too: the CDF saturates, as outside its table.
        for beta in (1, 2):
            assert (ec.tw_cdf(10**400, beta), ec.tw_cdf(-10**400, beta)) == (1.0, 0.0)

    @pytest.mark.parametrize("bad", ("a", ["a", 0.0], {"x": 0.0}))
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            ec.tw_cdf(bad)

    @pytest.mark.parametrize("bad", (float("nan"), np.float64("nan"),
                                     np.array(np.nan), np.array([0.0, np.nan])))
    def test_nan_rejected_on_both_paths(self, bad):
        with pytest.raises(InvalidInputError):
            ec.tw_cdf(bad)
