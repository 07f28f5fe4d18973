"""Dense Hermitian spectral machinery.

Everything downstream (two-component Hamiltonians, metric operators,
invariant inner products) is built from the spectral resolution of the
spatial operator D, so this module owns the eigensolver and the
fractional-power calculus. The eigensolver, for one matrix or a stack, is
LAPACK's Hermitian driver (``numpy.linalg.eigh``) with fixed conventions for
ordering and eigenvector phase, so results do not depend on the BLAS/LAPACK build.
``_as_array``, here in the lowest module, is the one reader of every array argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NoConvergenceError,
    NonPositiveSpectrumError,
    NotHermitianError,
)

DEFAULT_TOL = 1e-10


@dataclass
class SpectralDecomposition:
    """Spectral resolution of a Hermitian operator.

    Attributes
    ----------
    eigenvalues : (..., n) float array, ascending
    eigenvectors : (..., n, n) complex array, orthonormal columns, column j
        belonging to eigenvalues[..., j]; any leading axes stack operators
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    def matrix(self) -> np.ndarray:
        """Reassemble the operator from its spectral data."""
        return operator_power(self, 1.0)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Mode coordinates x conj(V) of rows x; a stack's members act on rows stacked alike."""
        vc = self.eigenvectors.conj()
        return x @ vc if vc.ndim == 2 else (x[..., None, :] @ vc)[..., 0, :]

    def synthesize(self, z: np.ndarray) -> np.ndarray:
        """Rows z V^T from mode coordinates z of one operator, inverse to ``coordinates``."""
        return z @ self.eigenvectors.T


@dataclass
class BiorthonormalSystem:
    """Right/left eigenvector pair system with <left_m|right_n> = delta_mn.

    Columns of ``right_vectors`` and ``left_vectors`` correspond one-to-one;
    ``energies[j]`` is the eigenvalue of column j.
    """

    right_vectors: np.ndarray
    left_vectors: np.ndarray
    energies: np.ndarray

    @property
    def size(self) -> int:
        return self.right_vectors.shape[1]


def _as_array(x, what: str) -> np.ndarray:
    """The one reader of an array argument: ``x`` as a float array if it is
    real, else as a complex one; DimensionMismatchError for anything not
    numeric (a ragged nesting, None, a string, an object array)."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting of lists, not numeric either
        a = np.asarray(None)
    if a.dtype.kind not in "biufc":
        raise DimensionMismatchError(f"need a numeric array for {what}, got {type(x).__name__}")
    return a.astype(complex if a.dtype.kind == "c" else float, copy=False)


def _as_square(x, what: str) -> np.ndarray:
    """``_as_array`` of one (n, n) matrix; else DimensionMismatchError."""
    a = _as_array(x, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {a.shape}")
    return a


def _as_hermitian(matrix, tol: float = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Complex array of one square matrix or a stack, each finite and Hermitian
    up to ``tol`` in max norm (else NotHermitianError on the first that is not);
    InvalidParameterError unless ``tol`` is finite and >= 0."""
    if not 0.0 <= tol < np.inf:
        raise InvalidParameterError(f"tol must be finite and >= 0, got {tol!r}")
    a = _as_array(matrix, what).astype(complex, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{what} must be square, got shape {a.shape}")
    flat = (math.prod(a.shape[:-2]), a.shape[-1] ** 2)  # members, entries of one
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite member
        defect = np.abs(a - a.conj().swapaxes(-1, -2)).reshape(flat).max(axis=1, initial=0.0)
    defect[~np.isfinite(a).reshape(flat).all(axis=1)] = np.nan  # marks a non-finite member
    bad = defect[~(defect <= tol)]
    if bad.size:
        raise NotHermitianError(
            f"{what} has non-finite entries" if np.isnan(bad[0])
            else f"{what} deviates from Hermiticity by {bad[0]:.3e} (tol {tol:.3e})"
        )
    return a


def _require_positive(eigenvalues, what: str) -> np.ndarray:
    """Eigenvalues as floats; NonPositiveSpectrumError on the first spectrum not all > 0."""
    w = np.asarray(eigenvalues, dtype=float)
    if not np.all(w > 0.0):
        low = np.min(w, axis=-1).ravel()
        raise NonPositiveSpectrumError(
            f"{what} needs a strictly positive spectrum (min eigenvalue {low[~(low > 0.0)][0]:.3e})"
        )
    return w


def hermitian_eigendecompose(matrix, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Diagonalize complex Hermitian matrices with LAPACK (``numpy.linalg.eigh``).

    Parameters
    ----------
    matrix : (..., n, n) array_like
        One matrix or a stack of them, each Hermitian up to ``tol`` in max norm.
    tol : float
        Hermiticity test tolerance. The input is symmetrized before solving,
        so a defect within ``tol`` does not reach the solver.

    Returns
    -------
    SpectralDecomposition
        Stacked like the input; eigenvalues ascending, equal ones in LAPACK's
        column order. Eigenvector columns are LAPACK's, orthonormal also inside
        degenerate clusters. Each column's phase is fixed so that its largest-
        magnitude entry (the first one, among entries of equal magnitude) is
        real and positive, which keeps the result independent of the
        BLAS/LAPACK build. A zero matrix returns the identity basis.

    Raises
    ------
    InvalidParameterError
        If ``tol`` is negative or not finite.
    DimensionMismatchError
        If the input is not numeric or not square.
    NotHermitianError
        If the input is not finite/Hermitian at ``tol``.
    NoConvergenceError
        If LAPACK reports that the eigenvalue iteration failed.
    """
    a = _as_hermitian(matrix, tol)
    *lead, n = a.shape[:-1]
    # solved as one (m, n, n) stack, reshaped back to the input's leading axes
    a = 0.5 * (a + a.conj().swapaxes(-1, -2)).reshape(math.prod(lead), n, n)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    if n:  # phase convention: each column's largest-magnitude entry real, positive
        peak = (np.arange(len(v))[:, None], np.argmax(np.abs(v), axis=1), np.arange(n))
        v *= (np.conj(v[peak]) / np.abs(v[peak]))[:, None, :]
        v[peak] = v[peak].real  # drop the rounding residue of the rescale
    if not w.all():  # a zero member has only zero eigenvalues; look for one
        zero = ~a.reshape(len(a), n * n).any(axis=1)
        w[zero], v[zero] = 0.0, np.eye(n)
    return SpectralDecomposition(w.reshape(*lead, n), v.reshape(*lead, n, n))


def operator_power(spec: SpectralDecomposition, gamma: float) -> np.ndarray:
    """Fractional power of the operator from its spectral data.

    Builds ``sum_n eigenvalue_n**gamma |v_n><v_n|``, for stacked spectral
    data stacked the same way. Negative or fractional powers require a
    strictly positive spectrum; nonnegative integer powers work for any
    spectrum. ``gamma = 0`` returns the (n, n) identity. A non-finite
    ``gamma`` raises InvalidParameterError.
    """
    if not np.isfinite(gamma):
        raise InvalidParameterError(f"power must be finite, got {gamma!r}")
    w = np.asarray(spec.eigenvalues, dtype=float)
    v = spec.eigenvectors
    if gamma == 0:
        return np.eye(v.shape[-1], dtype=complex)
    if gamma < 0 or float(gamma) != int(gamma):
        _require_positive(w, f"power {gamma}")
    powered = w.astype(float) ** gamma
    return (v * powered[..., None, :]) @ v.conj().swapaxes(-1, -2)


def check_biorthonormal(system: BiorthonormalSystem) -> tuple[float, float]:
    """Defects (orthonormality, completeness) of the system: the max-norm
    distances of <left_m|right_n> and sum_n |right_n><left_n| from the
    identity."""
    r = _as_square(system.right_vectors, "right vectors").astype(complex, copy=False)
    l = _as_array(system.left_vectors, "left vectors").astype(complex, copy=False)
    if r.shape != l.shape:
        raise DimensionMismatchError(f"left/right vectors differ in shape: {l.shape} vs {r.shape}")
    eye = np.eye(r.shape[0])
    ortho = float(np.max(np.abs(l.conj().T @ r - eye)))
    complete = float(np.max(np.abs(r @ l.conj().T - eye)))
    return ortho, complete
