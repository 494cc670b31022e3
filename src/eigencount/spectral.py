"""Sample covariance, symmetric eigendecomposition, and the asymptotic /
finite-sample eigenvalue formulas for the spiked covariance model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidInputError, SolverError

# Eigenvalues of a PSD matrix may round off slightly negative; anything in
# [-NEG_CLAMP, 0) is clamped to 0, anything lower is rejected.
NEG_CLAMP = 1e-10
SYMMETRY_RTOL = 1e-10
SORT_RTOL = 1e-12


@dataclass(frozen=True)
class SnapshotMatrix:
    """p-dimensional observations as columns of a p x n matrix."""

    data: np.ndarray
    p: int
    n: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidInputError("snapshot data must be a 2-D matrix")
        p, n = data.shape
        if p < 2 or n < 2:
            raise InvalidInputError(f"need p >= 2 and n >= 2, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("snapshot data contains non-finite entries")
        if (self.p, self.n) != (p, n):
            raise InvalidInputError("declared (p, n) does not match the data shape")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, data: np.ndarray) -> "SnapshotMatrix":
        data = np.asarray(data, dtype=float)
        return cls(data, data.shape[0], data.shape[1])


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
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size != self.p or self.p < 1:
            raise InvalidInputError("eigenvalues must be a non-empty length-p vector")
        if self.n < 1:
            raise InvalidInputError("sample count must be positive")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("eigenvalues contain non-finite entries")
        # Round-off tolerance relative to the largest magnitude, so the
        # check means the same at every scale.
        if np.any(np.diff(vals) > SORT_RTOL * float(np.abs(vals).max())):
            raise InvalidInputError("eigenvalues must be sorted in descending order")
        if np.any(vals < -NEG_CLAMP):
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
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
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
        lam = np.atleast_1d(np.asarray(self.signal_strengths, dtype=float))
        if lam.size >= self.p:
            raise InvalidInputError("need q < p")
        if lam.size and (np.any(lam <= 0.0) or np.any(np.diff(lam) > 0.0)):
            raise InvalidInputError("signal strengths must be positive and descending")
        if self.noise_variance <= 0.0:
            raise InvalidInputError("noise variance must be positive")
        object.__setattr__(self, "signal_strengths", lam)

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
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
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
    already, as sample_covariance's output is.  Slightly negative
    eigenvalues from round-off are clamped to zero.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("matrix must be square")
    if not np.array_equal(m, m.T):  # a NaN entry also lands here
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
    if sigma2 <= 0.0 or gamma <= 0.0:
        raise InvalidInputError("need sigma2 > 0 and gamma > 0")
    return sigma2 * math.sqrt(gamma)


def spike_limit(lam: float, sigma2: float, gamma: float) -> float:
    """Almost-sure limit of a spike's sample eigenvalue.

    Supercritical spikes escape the bulk; subcritical ones stick to the
    Marchenko-Pastur upper edge sigma^2 (1 + sqrt(gamma))^2.
    """
    if lam <= 0.0:
        raise InvalidInputError("signal strength must be positive")
    if lam > detection_limit(sigma2, gamma):
        return (lam + sigma2) * (1.0 + gamma * sigma2 / lam)
    return sigma2 * (1.0 + math.sqrt(gamma)) ** 2


def lawley_expectation(j: int, model: PopulationModel, n: int) -> float:
    """Finite-sample expectation of the j-th (1-based) spike eigenvalue,
    including the pairwise interaction sum."""
    q = model.q
    if not 1 <= j <= q:
        raise InvalidInputError(f"index must lie in 1..{q}, got {j}")
    lam = model.signal_strengths
    tie_tol = 1e-9 * lam.max()
    gaps = np.abs(np.subtract.outer(lam, lam))
    if np.any(gaps[~np.eye(q, dtype=bool)] <= tie_tol):
        raise DegenerateModelError("signal strengths must be distinct")
    sigma2 = model.noise_variance
    rho = lam + sigma2
    rho_j = rho[j - 1]
    interaction = sum(rho[i] / (rho_j - rho[i]) for i in range(q) if i != j - 1)
    return rho_j + (model.p - q) * rho_j * sigma2 / (n * (rho_j - sigma2)) \
        + rho_j / n * interaction
