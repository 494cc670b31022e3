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
from .spectral import Spectrum

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


def _spike_roots(leading, sigma2: float, shift: float) -> tuple[list[float], list[bool]]:
    """Larger root of the spike quadratic for each eigenvalue l in leading.

    rho solves rho^2 - b rho + l sigma2 = 0 with b = l + sigma2 * shift and
    shift = 1 - (p - k) / n.  A negative discriminant means the eigenvalue is
    too small to support a spike under this noise level; the root is then
    clamped to the quadratic vertex and flagged rather than raised, so
    sequential scans can continue.  Python floats throughout: for the few
    roots of a scan step this beats array code.

    Where b * b or 4 l sigma2 leaves the normal float range (|b| above about
    1.3e154 or below 1.5e-154, say), the discriminant is divided by b^2
    first, so the root stays finite and keeps its precision; inside the
    range the unscaled expression is used.  (4 l sigma2 is formed as
    l * (4 sigma2): scaling by 4 is exact, so that is the same float.)
    """
    _check_roots_args(leading, sigma2)
    roots, degenerate, _ = _roots_pass(leading, sigma2, shift)
    return roots, degenerate


def _check_roots_args(leading, sigma2: float) -> None:
    if sigma2 <= 0.0 or min(leading) <= 0.0:
        raise InvalidInputError("need l > 0 and sigma2 > 0")


def _roots_pass(leading, sigma2: float,
                shift: float) -> tuple[list[float], list[bool], list[float]]:
    """_spike_roots without the argument check, plus the terms l - rho.

    One pass yields everything a fixed-point iteration or a fit reads, so
    the quadratic is written once.
    """
    bias = sigma2 * shift
    four_sigma2 = 4.0 * sigma2
    roots, degenerate, excess = [], [], []
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
        excess.append(l - root)
    return roots, degenerate, excess


def _scaled_root(l: float, b: float, sigma2: float) -> tuple[float, bool]:
    """_spike_roots for one eigenvalue, with the discriminant divided by b^2."""
    scale = abs(b)
    unit_disc = 1.0 - 4.0 * (l / scale) * (sigma2 / scale) if scale else -1.0
    if unit_disc < 0.0:
        return b / 2.0, True
    return 0.5 * b + 0.5 * scale * math.sqrt(unit_disc), False


def _pairwise_sum(values: list[float]) -> float:
    """Sum of a list of floats in numpy's order, so it equals np.sum bit for bit.

    numpy adds a float64 vector from an initial 0.0: a plain left fold below
    8 elements, 8 interleaved partial sums up to 128 elements, and above
    that the two halves (split at a multiple of 8) summed recursively.  The
    builtin sum() is no substitute: from Python 3.12 it compensates float
    sums.
    """
    if len(values) < 8:
        # A left fold from 0.0 never yields -0.0, so the leading 0.0 + is moot.
        total = 0.0
        for value in values:
            total += value
        return total
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], start: int, stop: int) -> float:
    """numpy's pairwise sum of values[start:stop], which holds 8 or more."""
    count = stop - start
    if count <= 128:
        lanes = values[start:start + 8]
        tail = stop - count % 8
        for i in range(start + 8, tail, 8):
            for j in range(8):
                lanes[j] += values[i + j]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + \
            ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        for i in range(tail, stop):
            total += values[i]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise(values, start, start + half) + _pairwise(values, start + half, stop)


def estimate_noise_and_spikes(spectrum: Spectrum, k: int,
                              tol: float = DEFAULT_TOL,
                              max_iter: int = DEFAULT_MAX_ITER) -> NoiseFit:
    """Fixed-point solve of the coupled noise/spike system for hypothesis k.

    Starts from the trailing-mean noise estimate; on non-convergence or a
    non-positive noise iterate the initialiser is returned with
    converged=False rather than raising, so estimator scans degrade
    gracefully.

    The fit is memoised on the spectrum per (k, tol, max_iter), so every
    estimator scanning the same spectrum shares one solve per k.
    """
    return spectrum._memoised(("noise_fit", k, tol, max_iter),
                              lambda: _fixed_point(spectrum, k, tol, max_iter))


def _fixed_point(spectrum: Spectrum, k: int, tol: float, max_iter: int) -> NoiseFit:
    """The fixed-point iteration on Python floats.

    Every sum is formed in numpy's order (_pairwise_sum), and the
    initialiser tail_sum / (p - k) is how numpy forms the mean, so the fit
    is bit-identical to the same iteration on float64 arrays.  The roots'
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
        rho, degenerate, _ = _roots_pass(leading, sigma2, shift)
        # Tuples of lists, not of generators: CPython builds a tuple from a
        # generator by over-allocating and shrinking it, and each such tuple
        # strands a block on the tuple free lists, so memory grew per fit.
        return NoiseFit(k, sigma2, tuple(rho), tuple([r - sigma2 for r in rho]),
                        converged, iterations, tuple(degenerate), p, n)

    if k == 0:
        return fit(sigma2_init, True, 0)

    _check_roots_args(leading, sigma2_init)
    lo, hi = min(leading), max(leading)
    sigma2 = sigma2_init
    for iteration in range(1, max_iter + 1):
        bias, four_sigma2 = sigma2 * shift, 4.0 * sigma2
        b_lo, b_hi = lo + bias, hi + bias
        # Below 8 terms numpy's sum is a left fold, so the excess l - root can
        # be summed as it is formed.  l + bias and l * 4 sigma2 both grow
        # with l, so once b_lo > 0 every square and product lies between
        # those of lo and hi: if theirs are normal, every root takes
        # _roots_pass's unscaled form.
        if k < 8 and b_lo > 0.0 and FLOAT_MIN <= b_lo * b_lo and b_hi * b_hi <= FLOAT_MAX \
                and FLOAT_MIN <= lo * four_sigma2 and hi * four_sigma2 <= FLOAT_MAX:
            excess = 0.0
            for l in leading:
                b = l + bias
                disc = b * b - l * four_sigma2
                excess += l - (b / 2.0 if disc < 0.0 else (b + math.sqrt(disc)) / 2.0)
        else:
            excess = _pairwise_sum(_roots_pass(leading, sigma2, shift)[2])
        sigma2_new = (tail_sum + excess) / (p - k)
        if sigma2_new <= 0.0:
            return fit(sigma2_init, False, iteration)
        if abs(sigma2_new - sigma2) < tol * sigma2_new:
            return fit(sigma2_new, True, iteration)
        sigma2 = sigma2_new

    return fit(sigma2_init, False, max_iter)
