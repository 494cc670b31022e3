"""Joint noise-level / spike-strength estimation under a k-signal hypothesis.

The noise level and the k spike eigenvalues solve a coupled nonlinear
system: each spike solves a quadratic given the noise level, and the noise
level is the trailing-eigenvalue average corrected by the spike excesses.
The system is iterated to a fixed point from the plain trailing-mean
initialiser.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import InvalidInputError
from .spectral import Spectrum, _check_integer, _check_real

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
FLOAT_MIN, FLOAT_MAX = sys.float_info.min, sys.float_info.max
# Values whose squares are normal floats.  Outside this range a square would
# overflow or lose precision down to zero, so formulas that square or
# multiply two such values switch to a scaled form there.
SQUARE_RANGE = (math.sqrt(FLOAT_MIN), math.sqrt(FLOAT_MAX))


class NoiseFit(NamedTuple):
    """Solver output for one hypothesised signal count k.

    rho_hat, lambda_hat and degenerate_roots hold one Python float or bool
    per spike.
    """

    k: int
    sigma2_hat: float
    rho_hat: tuple[float, ...]
    lambda_hat: tuple[float, ...]
    converged: bool
    iterations: int
    degenerate_roots: tuple[bool, ...]
    p: int
    n: int

    @property
    def any_degenerate(self) -> bool:
        """Whether any root was clamped."""
        return any(self.degenerate_roots)


def _roots_pass(leading, sigma2: float, shift: float) -> tuple[list[float], list[bool]]:
    """Larger root of the spike quadratic for each eigenvalue l in leading,
    with its clamp flag.

    rho solves rho^2 - b rho + l sigma2 = 0 with b = l + sigma2 * shift and
    shift = 1 - (p - k) / n.  A negative discriminant means the eigenvalue is
    too small to support a spike under this noise level; the root is then
    clamped to the quadratic vertex and flagged rather than raised, so
    sequential scans can continue.  Python floats throughout: for the few
    roots of a scan step this beats array code.  The caller checks that
    l > 0 and sigma2 > 0.

    Where b * b or 4 l sigma2 leaves the normal float range (|b| above about
    1.3e154 or below 1.5e-154, say), the discriminant is divided by b^2
    first, so the root stays finite and keeps its precision; inside the
    range the unscaled expression is used.  (4 l sigma2 is formed as
    l * (4 sigma2): scaling by 4 is exact, so that is the same float.)
    """
    bias = sigma2 * shift
    four_sigma2 = 4.0 * sigma2
    roots, degenerate = [], []
    for l in leading:
        b = l + bias
        square, product = b * b, l * four_sigma2
        if FLOAT_MIN <= square <= FLOAT_MAX and FLOAT_MIN <= product <= FLOAT_MAX:
            disc = square - product
            if disc < 0.0:
                root, flag = b / 2.0, True
            else:
                root, flag = (b + math.sqrt(disc)) / 2.0, False
        else:
            root, flag = _scaled_root(l, b, sigma2)
        roots.append(root)
        degenerate.append(flag)
    return roots, degenerate


def _scaled_root(l: float, b: float, sigma2: float) -> tuple[float, bool]:
    """_roots_pass for one eigenvalue, with the discriminant divided by b^2."""
    scale = abs(b)
    unit_disc = 1.0 - 4.0 * (l / scale) * (sigma2 / scale) if scale else -1.0
    if unit_disc < 0.0:
        return b / 2.0, True
    return 0.5 * b + 0.5 * scale * math.sqrt(unit_disc), False


def estimate_noise_and_spikes(spectrum: Spectrum, k: int,
                              tol: float = DEFAULT_TOL,
                              max_iter: int = DEFAULT_MAX_ITER) -> NoiseFit:
    """Fixed-point solve of the coupled noise/spike system for hypothesis k.

    Starts from the trailing-mean noise estimate; on non-convergence or a
    non-positive noise iterate the initialiser is returned with
    converged=False rather than raising, so estimator scans degrade
    gracefully.

    The fit is memoised on the spectrum per (k, tol, max_iter), which are
    checked first; every estimator scanning the spectrum shares one solve per k.
    """
    if not isinstance(spectrum, Spectrum):
        raise InvalidInputError(f"spectrum must be a Spectrum, got {type(spectrum).__name__}")
    _check_integer("k", k, 0)
    _check_real("tol", tol)
    _check_integer("max_iter", max_iter, 0)
    return spectrum._memoised(("noise_fit", k, tol, max_iter),
                              lambda: _fixed_point(spectrum, k, tol, max_iter))


def _fixed_point(spectrum: Spectrum, k: int, tol: float, max_iter: int) -> NoiseFit:
    """The fixed-point iteration on Python floats.

    The trailing sum is numpy's, and the initialiser tail_sum / (p - k) is
    how numpy forms the mean.  The spike excess sum(l - root) is a left
    fold from 0.0 in eigenvalue order at every k; builtin sum() would not
    do, since from Python 3.12 it compensates float sums.  The roots'
    arguments are checked once: every later noise iterate is positive.
    """
    p, n = spectrum.p, spectrum.n
    if not 0 <= k <= spectrum.kmax:
        raise InvalidInputError(f"k must lie in 0..{spectrum.kmax}, got {k}")
    vals = spectrum.eigenvalues
    tail_sum = float(vals[k:].sum())
    sigma2_init = tail_sum / (p - k)
    leading = vals[:k].tolist()
    shift = 1.0 - (p - k) / n

    def fit(sigma2, converged, iterations):
        rho, degenerate = _roots_pass(leading, sigma2, shift)
        # Tuples of lists, not of generators: CPython builds a tuple from a
        # generator by over-allocating and shrinking it, and each such tuple
        # strands a block on the tuple free lists, so memory grew per fit.
        return NoiseFit(k, sigma2, tuple(rho), tuple([r - sigma2 for r in rho]),
                        converged, iterations, tuple(degenerate), p, n)

    if k == 0:
        return fit(sigma2_init, True, 0)

    lo, hi = min(leading), max(leading)
    if sigma2_init <= 0.0 or lo <= 0.0:
        raise InvalidInputError("need l > 0 and sigma2 > 0")
    sigma2 = sigma2_init
    for iteration in range(1, max_iter + 1):
        bias, four_sigma2 = sigma2 * shift, 4.0 * sigma2
        b_lo, b_hi = lo + bias, hi + bias
        # l + bias and l * 4 sigma2 both grow with l, so once b_lo > 0 every
        # square and product lies between those of lo and hi: if theirs are
        # normal, every root takes _roots_pass's unscaled form, and the
        # excess l - root is summed as it is formed.
        excess = 0.0
        if b_lo > 0.0 and FLOAT_MIN <= b_lo * b_lo and b_hi * b_hi <= FLOAT_MAX \
                and FLOAT_MIN <= lo * four_sigma2 and hi * four_sigma2 <= FLOAT_MAX:
            for l in leading:
                b = l + bias
                disc = b * b - l * four_sigma2
                excess += l - (b / 2.0 if disc < 0.0 else (b + math.sqrt(disc)) / 2.0)
        else:
            for l, root in zip(leading, _roots_pass(leading, sigma2, shift)[0]):
                excess += l - root
        sigma2_new = (tail_sum + excess) / (p - k)
        if sigma2_new <= 0.0:
            return fit(sigma2_init, False, iteration)
        if abs(sigma2_new - sigma2) < tol * sigma2_new:
            return fit(sigma2_new, True, iteration)
        sigma2 = sigma2_new

    return fit(sigma2_init, False, max_iter)
