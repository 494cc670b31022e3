import numpy as np
import pytest
from scipy.special import erfc, ndtri

from eigencount.errors import InvalidInputError
from eigencount.normal import (_P_LOW, _SQRT2, _SQRT2PI, _acklam, norm_cdf,
                               norm_ppf, norm_ppf_array, norm_sf, normal_tail_inv)


def test_tail_inv_median():
    assert normal_tail_inv(0.5) == pytest.approx(0.0, abs=1e-12)


def test_tail_inv_default_operating_point():
    # Oracle: high-precision inverse CDF, Q^{-1}(p) = -Phi^{-1}(p).
    assert normal_tail_inv(0.995) == pytest.approx(-ndtri(0.995), abs=1e-12)
    assert normal_tail_inv(0.995) == pytest.approx(-2.5758293035489004, abs=1e-9)


def test_round_trip_on_random_probabilities():
    rng = np.random.RandomState(7)
    for p in rng.uniform(1e-6, 1 - 1e-6, size=1000):
        x = normal_tail_inv(float(p))
        assert norm_sf(x) == pytest.approx(p, abs=1e-9)


def test_ppf_matches_scipy_across_range():
    probs = np.concatenate([
        np.array([1e-300, 1e-16, 1e-9, 1e-4]),
        np.linspace(0.01, 0.99, 99),
        1.0 - np.array([1e-4, 1e-9, 1e-13]),
    ])
    for p in probs:
        assert norm_ppf(float(p)) == pytest.approx(ndtri(p), rel=1e-12, abs=1e-12)


def test_vectorised_ppf_matches_scalar():
    rng = np.random.RandomState(11)
    probs = rng.uniform(1e-12, 1 - 1e-12, size=2000)
    vec = norm_ppf_array(probs)
    scal = np.array([norm_ppf(float(p)) for p in probs])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-14)


def _two_branch_ppf(p):
    """Reference polish: erfc evaluated on both sides, one side kept."""
    x = _acklam(p)
    err = np.where(p >= 0.5,
                   (1.0 - p) - 0.5 * erfc(x / _SQRT2),
                   0.5 * erfc(-x / _SQRT2) - p)
    x -= err * _SQRT2PI * np.exp(0.5 * x * x)
    return x


def test_vectorised_ppf_bit_identical_to_two_branch_polish():
    edges = [2.0**-64, 0.5, 1.0 - 2.0**-53]
    for edge in (_P_LOW, 1.0 - _P_LOW, 0.5):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    rng = np.random.RandomState(5)
    for probs in (np.array(edges), rng.uniform(2.0**-64, 1.0, size=(40, 60))):
        assert norm_ppf_array(probs).tobytes() == _two_branch_ppf(probs).tobytes()


def test_cdf_sf_complementarity():
    for x in (-8.0, -1.5, 0.0, 0.3, 6.0):
        assert norm_cdf(x) + norm_sf(x) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_out_of_range_probability_rejected(bad):
    with pytest.raises(InvalidInputError):
        normal_tail_inv(bad)
    with pytest.raises(InvalidInputError):
        norm_ppf(bad)
