"""Standard-normal CDF, tail function and their inverses.

Every Gaussian probability in the package flows through this one kernel:
erf/erfc for the forward direction, Acklam's rational approximation plus a
single Newton polish for the inverse.  The polished inverse is accurate to
a few 1e-16 relative over (0, 1), comfortably inside the 1e-9 contract.

The array polish in norm_ppf_array takes scipy's erfc, which differs from
math.erfc in the last bit on a large share of inputs, so it is the only
erfc a snapshot draw may use.  It is loaded on the first array polish, by
_erfc_array, and not at import.  Only the extension module that defines
the ufunc, scipy/special/_special_ufuncs, is loaded: the scipy.special
package would add about 14.5 MB of anonymous memory to every sweep process
for this one function.  Where that module cannot be loaded, or does not
hold an erfc ufunc with a float64 loop, scipy.special.erfc is imported
instead; it is the same ufunc, so the draws keep their bits either way.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec, PathFinder

import numpy as np

from .errors import InvalidInputError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's inverse-normal coefficients.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


# The extension module that defines scipy.special.erfc.
_KERNEL = "scipy.special._special_ufuncs"
# Allocated and freed once when the kernel loads; see _erfc_array.
_MMAP_THRESHOLD_BYTES = 16 << 20


def _kernel_erfc():
    """erfc from _KERNEL, loaded without the scipy.special package; None
    where the module is not found or does not load."""
    if _KERNEL in sys.modules:  # scipy.special is loaded already
        return getattr(sys.modules[_KERNEL], "erfc", None)
    package, *rest = _KERNEL.split(".")
    scipy = PathFinder.find_spec(package)
    directories = scipy.submodule_search_locations if scipy else None
    for directory in directories or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, *rest) + suffix
            if not os.path.isfile(path):
                continue
            loader = ExtensionFileLoader(_KERNEL, path)
            try:
                module = loader.create_module(ModuleSpec(_KERNEL, loader, origin=path))
                loader.exec_module(module)
            except ImportError:
                return None
            finally:
                # A single-phase extension enters itself in sys.modules.  Take
                # it out, so that a later import of scipy.special loads the
                # module as a submodule of its package; it then holds the
                # same ufunc objects.
                sys.modules.pop(_KERNEL, None)
            return getattr(module, "erfc", None)
    return None


@cache
def _erfc_array():
    """scipy's erfc ufunc, loaded on the first call."""
    erfc = _kernel_erfc()
    if not (isinstance(erfc, np.ufunc) and "d->d" in erfc.types):
        from scipy.special import erfc
    # glibc raises its mmap threshold, up to 32 MB, to the size of any
    # mmap-served block that is freed.  Importing scipy.special did so as a
    # side effect; without it, the threshold stays at 128 KB and the
    # multi-megabyte arrays of every fig4 trial are mapped and unmapped
    # afresh, well over 100 minor page faults per request.  One 16 MB
    # block, allocated and freed here, raises it once; its pages are never
    # touched, so it costs no resident memory.  Other allocators ignore it.
    np.empty(_MMAP_THRESHOLD_BYTES, dtype=np.uint8)
    return erfc


def norm_cdf(x: float) -> float:
    """Phi(x) for scalar x."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """Upper tail Q(x) = 1 - Phi(x) for scalar x, accurate for large x."""
    return 0.5 * math.erfc(x / _SQRT2)


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _tail_ratio(q: np.ndarray) -> np.ndarray:
    """Acklam's tail rational function of q = sqrt(-2 log(tail mass))."""
    return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
        ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def _acklam(p: np.ndarray) -> np.ndarray:
    """Raw rational approximation of Phi^{-1}(p) for a float array p.

    The central rational function is evaluated over the whole array by
    in-place Horner steps; the tail entries (about 5 % of uniform draws)
    are then overwritten from their masks.  Every entry sees the same
    operations in the same order as it would in a per-region evaluation,
    so its bits do not depend on the rest of the array.
    """
    q = p - 0.5
    r = q * q
    x = np.multiply(r, _A[0])
    for a in _A[1:-1]:
        x += a
        x *= r
    x += _A[-1]
    x *= q
    den = np.multiply(r, _B[0], out=q)  # q is spent; its buffer takes the denominator
    for b in _B[1:]:
        den += b
        den *= r
    den += 1.0
    x /= den

    low = p < _P_LOW
    if low.any():
        x[low] = _tail_ratio(np.sqrt(-2.0 * np.log(p[low])))
    high = p > 1.0 - _P_LOW
    if high.any():
        x[high] = -_tail_ratio(np.sqrt(-2.0 * np.log1p(-p[high])))
    return x


def norm_ppf(p: float) -> float:
    """Phi^{-1}(p) with one Newton polish through the erfc kernel."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"probability must lie in (0, 1), got {p}")
    x = float(_acklam(np.array([p], dtype=float))[0])
    # Newton step on Phi(x) - p = 0; evaluate the residual on the side of
    # the distribution where erfc keeps full relative accuracy.
    if p < 0.5:
        err = norm_cdf(x) - p
    else:
        err = (1.0 - p) - norm_sf(x)
    x -= err / norm_pdf(x)
    return x


def norm_ppf_array(p: np.ndarray) -> np.ndarray:
    """Vectorised norm_ppf for bulk sampling; same kernel, same polish."""
    p = np.asarray(p, dtype=float)
    x = _acklam(p)
    # Residual Phi(x) - p through erfc on the side that keeps full relative
    # accuracy: 0.5 erfc(-x/sqrt2) - p below 0.5, (1 - p) - 0.5 erfc(x/sqrt2)
    # above.  Multiplying by -1 or +1 is exact, so one erfc call serves both
    # sides with bit-identical x (a zero residual may flip sign, which leaves
    # x unchanged).  The signs are products because a masked negation on a
    # random mask costs about as much as erfc itself.  Three buffers besides
    # x are reused throughout.
    lower = p < 0.5
    sign = np.multiply(lower, 2.0)
    sign -= 1.0  # +1 below 0.5, -1 above
    err = np.multiply(x, sign)
    err /= -_SQRT2
    _erfc_array()(err, out=err)
    err *= 0.5
    side = np.subtract(1.0, p)
    np.copyto(side, p, where=lower)
    err -= side
    err *= sign
    # x -= (err * sqrt(2 pi)) * exp((0.5 * x) * x), in that association.
    err *= _SQRT2PI
    np.multiply(x, 0.5, out=side)
    side *= x
    np.exp(side, out=side)
    err *= side
    x -= err
    return x


def normal_tail_inv(p: float) -> float:
    """Q^{-1}(p): the x with upper-tail mass Q(x) = p.

    Note Q^{-1}(p) < 0 for p > 0.5; e.g. Q^{-1}(0.995) = -2.5758...
    """
    return -norm_ppf(p)
