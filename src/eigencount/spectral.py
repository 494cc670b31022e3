"""Sample covariance, symmetric eigendecomposition, and the asymptotic /
finite-sample eigenvalue formulas for the spiked covariance model."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SolverError

# Eigenvalues of a PSD matrix may round off slightly negative; anything in
# [-NEG_RTOL * scale, 0) is clamped to 0, anything lower is rejected, where
# scale is the largest eigenvalue magnitude.
NEG_RTOL = 1e-10
SYMMETRY_RTOL = 1e-10
SORT_RTOL = 1e-12


def _is_integer(value) -> bool:
    """Whether value is an integer: numpy integers are; a bool, a float (2.0
    included) or NaN is not."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise InvalidInputError unless value is an integer of at least minimum."""
    if not _is_integer(value) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise InvalidInputError unless value is a real number: ints, floats
    and numpy reals are; a bool, a string or a complex number is not."""
    # A float skips the abstract-class check, the slow part: the scans pass
    # the noise fit a float tol at every step.
    if type(value) is not float and (not isinstance(value, numbers.Real)
                                     or isinstance(value, bool)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def _real_array(name: str, value, *ndims: int) -> np.ndarray:
    """value as a float64 array with one of ndims dimensions (any, if none
    are given): the one conversion of every array from outside the package.

    Integer and float arrays are admitted; a ragged nesting, strings,
    objects, bools and complex numbers raise InvalidInputError.  A float64
    array comes back as the same object, without a copy.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a rectangular array of real numbers") from None
    if array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be real numbers, got dtype {array.dtype}")
    if ndims and array.ndim not in ndims:
        raise InvalidInputError(
            f"{name} must be {' or '.join(f'{d}-D' for d in ndims)}, got shape {array.shape}")
    return array.astype(float, copy=False)


@dataclass(frozen=True)
class SnapshotMatrix:
    """p-dimensional observations as columns of a p x n matrix."""

    data: np.ndarray

    def __post_init__(self):
        data = _real_array("snapshot data", self.data, 2)
        p, n = data.shape
        if p < 2 or n < 2:
            raise InvalidInputError(f"need p >= 2 and n >= 2, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("snapshot data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Descending sample eigenvalues with their (p, n) context attached.

    The eigenvalues are stored read-only, so every quantity derived from
    them alone can be computed once per spectrum: the noise fits and the
    information-criterion likelihood terms are memoised on the instance and
    shared by every estimator that runs on it (see `_memoised`).
    """

    eigenvalues: np.ndarray
    p: int
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_integer("p", self.p, 1)
        _check_integer("n", self.n, 1)
        vals = _real_array("eigenvalues", self.eigenvalues, 1)
        if vals.size != self.p:
            raise InvalidInputError("eigenvalues must be a non-empty length-p vector")
        # Python ints, so that numpy integers give no numpy scalar in the scans.
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "n", int(self.n))
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("eigenvalues contain non-finite entries")
        # Round-off tolerances relative to the largest magnitude, so the
        # checks mean the same at every scale.
        scale = float(np.abs(vals).max())
        if np.any(np.diff(vals) > SORT_RTOL * scale):
            raise InvalidInputError("eigenvalues must be sorted in descending order")
        if np.any(vals < -NEG_RTOL * scale):
            raise InvalidInputError(
                f"eigenvalue {vals.min():g} below the PSD round-off tolerance")
        vals = np.where(vals < 0.0, 0.0, vals)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def gamma(self) -> float:
        return self.p / self.n

    @property
    def kmax(self) -> int:
        """The largest signal count a scan or criterion considers, min(p, n) - 1."""
        return min(self.p, self.n) - 1

    def _memoised(self, key, compute):
        """compute(), evaluated once per spectrum and key.

        The result is shared by every later caller with the same key, so it
        must not be mutated; arrays in it are made read-only by the callers.
        An exception propagates and leaves nothing cached.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @classmethod
    def from_values(cls, values, n: int) -> "Spectrum":
        """Build a Spectrum from an unordered eigenvalue vector.

        Sorting is descending and stable, so exact ties keep their original
        relative order.
        """
        values = _real_array("eigenvalues", values, 1)
        if values.size < 1:
            raise InvalidInputError("need a 1-D vector of eigenvalues")
        order = np.argsort(-values, kind="stable")
        return cls(values[order], values.size, n)


@dataclass(frozen=True)
class PopulationModel:
    """Spiked population: q signal strengths over a white noise floor."""

    signal_strengths: np.ndarray
    noise_variance: float
    p: int

    def __post_init__(self):
        _check_integer("p", self.p, 1)
        _check_real("noise_variance", self.noise_variance)
        # A copy, promoted to 1-D: the model owns its strengths.
        lam = np.array(_real_array("signal_strengths", self.signal_strengths, 0, 1), ndmin=1)
        if lam.size >= self.p:
            raise InvalidInputError("need q < p")
        if not np.all(np.isfinite(lam)):
            raise InvalidInputError(f"signal_strengths must be finite, got {lam}")
        if lam.size and (np.any(lam <= 0.0) or np.any(np.diff(lam) > 0.0)):
            raise InvalidInputError("signal strengths must be positive and descending")
        if not 0.0 < self.noise_variance < math.inf:
            raise InvalidInputError(
                f"noise_variance must be positive and finite, got {self.noise_variance}")
        object.__setattr__(self, "signal_strengths", lam)
        object.__setattr__(self, "noise_variance", float(self.noise_variance))

    @property
    def q(self) -> int:
        return self.signal_strengths.size

    def covariance_diagonal(self) -> np.ndarray:
        """Population eigenvalues (lambda_i + sigma^2, ..., sigma^2, ...)."""
        diag = np.full(self.p, self.noise_variance)
        diag[: self.q] += self.signal_strengths
        return diag


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """(1/n) * sum_i x(i) x(i)^T for a p x n snapshot matrix.

    The result is symmetric bitwise, S == S.T.  numpy's data @ data.T
    already is, and is then returned as it is; otherwise it is symmetrised
    as (S + S.T) / 2.
    """
    data = _real_array("snapshot data", data, 2)
    if data.size == 0:
        raise InvalidInputError("snapshot data must be a non-empty 2-D matrix")
    s = data @ data.T / data.shape[1]
    # A NaN or Inf anywhere in row i of data makes s_ii = sum_j x_ij^2 / n
    # non-finite, so data needs its own scan only when the diagonal is.
    if not np.isfinite(s.diagonal()).all() and not np.isfinite(data).all():
        raise InvalidInputError("snapshot data contains non-finite entries")
    if np.array_equal(s, s.T):
        return s
    return (s + s.T) / 2.0


def eig_sym_desc(matrix: np.ndarray, n: int) -> Spectrum:
    """Eigenvalues of a symmetric matrix, descending, as a Spectrum.

    The input must be symmetric to within SYMMETRY_RTOL (relative, max-norm);
    it is symmetrised before decomposition unless it is exactly symmetric
    already, as sample_covariance's output is; a NaN entry raises
    InvalidInputError.  Slightly negative
    eigenvalues from round-off are clamped to zero.
    """
    m = _real_array("matrix", matrix, 2)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError("matrix must be square")
    if not np.array_equal(m, m.T):  # as any matrix with a NaN entry does
        if not np.isfinite(m).all():
            raise InvalidInputError("matrix contains non-finite entries")
        scale = np.abs(m).max()
        if scale > 0.0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise InvalidInputError("matrix is not symmetric within tolerance")
        m = (m + m.T) / 2.0
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigendecomposition failed: {exc}") from exc
    return Spectrum(w[::-1].copy(), m.shape[0], n)


def detection_limit(sigma2: float, gamma: float) -> float:
    """Smallest asymptotically detectable signal strength, sigma^2 sqrt(gamma)."""
    if not (sigma2 > 0.0 and gamma > 0.0):
        raise InvalidInputError("need sigma2 > 0 and gamma > 0")
    return sigma2 * math.sqrt(gamma)

