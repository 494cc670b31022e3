"""Tracy-Widom distribution (beta = 1, 2) and the edge centering/scaling.

The CDF is evaluated from a table shipped with the package (_tw_cdf.bin;
see scripts/make_tw_table.py for regeneration) through a shape-preserving
monotone cubic interpolant, so the interpolated CDF is itself monotone and
the quantile is well defined.  Outside the table the CDF saturates to 0 /
1; the tabulated endpoints already carry less than 1e-9 of probability
mass.  The interpolant is evaluated once per point, on Python floats.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from . import _tw_data
from .errors import InvalidInputError
from .spectral import _check_real, _is_integer, _real_array

# The default symmetry class: beta = 1 for real data, 2 for complex.
DEFAULT_BETA = 1


def _check_beta(beta) -> None:
    """Raise InvalidInputError unless beta is the integer 1 or 2: a bool, a
    float (2.0 included) or a string is not."""
    if not (_is_integer(beta) and beta in (1, 2)):
        raise InvalidInputError(f"beta must be the integer 1 or 2, got {beta!r}")


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Butland tangents: monotone data give a monotone interpolant."""
    h = np.diff(x)
    d = np.diff(y) / h
    m = np.zeros_like(y)
    left, right = d[:-1], d[1:]
    mask = left * right > 0.0
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = (w1 + w2) / (w1 / left + w2 / right)
    m[1:-1] = np.where(mask, harmonic, 0.0)

    # One-sided endpoint formula, clipped to preserve monotonicity.
    def endpoint(h0, h1, d0, d1):
        t = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if t * d0 <= 0.0:
            return 0.0
        if d0 * d1 < 0.0 and abs(t) > 3.0 * abs(d0):
            return 3.0 * d0
        return t

    m[0] = endpoint(h[0], h[1], d[0], d[1])
    m[-1] = endpoint(h[-1], h[-2], d[-1], d[-2])
    return m


# The CDF columns, written by scripts/make_tw_table.py beside this module.
_TABLE = os.path.join(os.path.dirname(__file__), "_tw_cdf.bin")


def _read_columns(size: int) -> dict[int, np.ndarray]:
    """beta -> CDF column: the file holds the beta = 1 column, then the
    beta = 2 column, each size little-endian float64 values."""
    with open(_TABLE, "rb") as table:
        columns = np.frombuffer(table.read(), dtype="<f8").reshape(2, size)
    return {1: columns[0], 2: columns[1]}


# scripts/make_tw_table.py's grid expression; _tw_data holds only its constants.
_GRID = np.round(np.arange(_tw_data.X_MIN, _tw_data.X_MAX + _tw_data.STEP / 2,
                           _tw_data.STEP), 6)
_CDF = _read_columns(_GRID.size)
# Grid, CDF values and interpolant slopes as lists of Python floats.
_LISTS = {beta: (_GRID.tolist(), cdf.tolist(), _pchip_slopes(_GRID, cdf).tolist())
          for beta, cdf in _CDF.items()}


def tw_cdf(x, beta: int = DEFAULT_BETA):
    """F_beta(x) for a scalar (returned as a float) or an array of points.

    Each point is evaluated on Python floats; an array argument is evaluated
    point by point and returned as an array of its shape.  NaN and arguments
    that are not real numbers (a bool or a string, say) are rejected.
    """
    _check_beta(beta)
    if not isinstance(x, (float, int)) or isinstance(x, bool):
        x = _real_array("Tracy-Widom CDF argument", x)
        if x.ndim:
            values = [tw_cdf(value, beta) for value in x.ravel().tolist()]
            return np.array(values).reshape(x.shape)
    x = float(x)
    if x != x:
        raise InvalidInputError("Tracy-Widom CDF argument is NaN")
    grid, cdf, slopes = _LISTS[beta]
    if x <= grid[0]:
        return 0.0
    if x >= grid[-1]:
        return 1.0
    i = bisect_right(grid, x) - 1
    h = grid[i + 1] - grid[i]
    t = (x - grid[i]) / h
    y0, y1 = cdf[i], cdf[i + 1]
    m0, m1 = slopes[i] * h, slopes[i + 1] * h
    # Evaluate the Hermite cubic as y0 plus an increment polynomial: all
    # arithmetic then happens at the increment scale, so rounding cannot
    # break monotonicity even where y1 - y0 is a few ulps.
    delta = y1 - y0
    c2 = 3.0 * delta - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * delta
    increment = t * (m0 + t * (c2 + t * c3))
    return min(max(y0 + increment, y0), y1)


def tw_quantile(alpha: float, beta: int = DEFAULT_BETA) -> float:
    """The threshold s(alpha) with F_beta(s) = 1 - alpha, by bisection."""
    _check_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    _check_beta(beta)
    target = 1.0 - alpha
    lo, hi = float(_GRID[0]), float(_GRID[-1])
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if tw_cdf(mid, beta) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def centering_mu(n: int, p: int) -> float:
    """Edge centering constant for an n-sample, p-dimensional white Wishart."""
    if n < 1 or p < 1:
        raise InvalidInputError("n and p must be >= 1")
    return (math.sqrt(n - 0.5) + math.sqrt(p - 0.5)) ** 2 / n


def scaling_sigma(n: int, p: int) -> float:
    """Edge scaling constant matching centering_mu."""
    return _edge_constants(n, p)[1]


@lru_cache(maxsize=4096)
def _edge_constants(n: int, p: int) -> tuple[float, float]:
    """(centering_mu(n, p), scaling_sigma(n, p)), computed once per (n, p)."""
    mu = centering_mu(n, p)
    return mu, math.sqrt(mu / n) * (1.0 / math.sqrt(n - 0.5) + 1.0 / math.sqrt(p - 0.5)) ** (1.0 / 3.0)
