import math
import sys

import numpy as np
import pytest
from scipy.special import erfc, ndtri

from eigencount import normal
from eigencount.errors import InvalidInputError
from eigencount.normal import (_P_LOW, _SQRT2, _SQRT2PI, _acklam, _erfc_array, norm_cdf,
                               norm_pdf, norm_ppf, norm_ppf_array, norm_sf, normal_tail_inv)


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


# Reference copies of the masked inverse-normal kernel that the in-place
# one replaced: each region is evaluated on its own masked entries.
def _reference_acklam(p):
    from eigencount.normal import _A, _B, _C, _D
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p)
    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        x[low] = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                 ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if np.any(high):
        q = np.sqrt(-2.0 * np.log1p(-p[high]))
        x[high] = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                  ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        x[mid] = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
                 (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    return x


def _reference_ppf_array(p):
    x = _reference_acklam(p)
    lower = p < 0.5
    err = (1.0 - 2.0 * lower) * x
    err /= _SQRT2
    erfc(err, out=err)
    err *= 0.5
    err -= np.where(lower, p, 1.0 - p)
    err *= 2.0 * lower - 1.0
    x -= err * _SQRT2PI * np.exp(0.5 * x * x)
    return x


def _reference_ppf(p):
    x = float(_reference_acklam(p))
    if p < 0.5:
        err = norm_cdf(x) - p
    else:
        err = (1.0 - p) - norm_sf(x)
    return x - err / norm_pdf(x)


def _kernel_boundaries():
    points = [0.5, np.nextafter(1.0, 0.0)]
    for edge in (2.0**-64, _P_LOW, 1.0 - _P_LOW, 0.5):
        points += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    return np.array(points)


class TestKernelEquivalence:
    """The in-place kernel gives the masked kernel's bits, entry by entry."""

    def test_array_bit_identical_on_a_million_uniforms(self):
        rng = np.random.default_rng(2024)
        for _ in range(4):
            u = np.maximum(rng.random((500, 500)), 2.0**-64)
            assert norm_ppf_array(u).tobytes() == _reference_ppf_array(u).tobytes()

    def test_array_bit_identical_at_boundaries(self):
        points = _kernel_boundaries()
        assert norm_ppf_array(points).tobytes() == _reference_ppf_array(points).tobytes()
        assert _acklam(points).tobytes() == _reference_acklam(points).tobytes()
        # Each entry is the same alone as among the others.
        for point in points:
            alone = norm_ppf_array(np.array([point]))
            assert alone.tobytes() == _reference_ppf_array(np.array([point])).tobytes()

    def test_scalar_bit_identical(self):
        rng = np.random.default_rng(2025)
        probs = np.concatenate([_kernel_boundaries(), rng.random(20000)])
        for p in probs.tolist():
            assert repr(norm_ppf(p)) == repr(_reference_ppf(p)), p


class TestErfcKernel:
    """The draw's erfc is scipy.special.erfc, loaded from its extension module."""

    def test_loads_from_the_extension_file_with_scipy_bits(self, monkeypatch):
        # Without the entry scipy.special left in sys.modules, the kernel is
        # loaded from its file, and leaves no entry of its own.
        monkeypatch.delitem(sys.modules, normal._KERNEL)
        kernel = normal._kernel_erfc()
        assert isinstance(kernel, np.ufunc) and "d->d" in kernel.types
        assert normal._KERNEL not in sys.modules
        # cephes switches formula at |x| = 1 and 8 and underflows past ~26.6.
        x = np.concatenate([np.linspace(-27.0, 27.0, 270001),
                            [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.5, 26.7, 27.0]])
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        assert kernel(x).tobytes() == erfc(x).tobytes()

    def test_falls_back_to_scipy_special_when_the_check_fails(self, monkeypatch):
        monkeypatch.setattr(normal, "_kernel_erfc", lambda: math.erfc)
        assert _erfc_array.__wrapped__() is erfc
