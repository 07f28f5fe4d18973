"""Two-component formulation of the field equation psi'' + D psi = 0.

The second-order field equation is traded for a Schrodinger-type equation
i dPsi/dt = H Psi on doubled vectors Psi = (psi + i*lam*psi', psi - i*lam*psi').
H is not Hermitian, but it is pseudo-Hermitian with respect to sigma3, and
its full eigensystem is available in closed form from the spectral data of
D. hbar = 1 throughout; the packing constant lam stays explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    LambdaMismatchError,
    NonPositiveSpectrumError,
    SingularGaugeError,
    ZeroLambdaError,
)
from .spectral import (
    BiorthonormalSystem,
    SpectralDecomposition,
    _as_array,
    _as_hermitian,
    _as_square,
    _require_positive,
    operator_power,
)


def _nonzero_lam(lam: float) -> None:
    """ZeroLambdaError unless lam is nonzero, InvalidParameterError unless finite."""
    if lam == 0.0:
        raise ZeroLambdaError("packing constant lam must be nonzero")
    if not np.isfinite(lam):
        raise InvalidParameterError(f"lam must be finite, got lam = {lam:g}")


def _lam_squared(lam: float) -> float:
    """lam^2 as a float; InvalidParameterError unless it is finite."""
    if not np.isfinite(sq := float(lam) * float(lam)):
        raise InvalidParameterError(f"lam^2 overflows, got lam = {lam:g}")
    return sq


def _vector_pair(x, y, what: str) -> tuple:
    """Two complex vectors of one length (``_as_array``); else DimensionMismatchError."""
    x, y = (np.atleast_1d(_as_array(v, what).astype(complex, copy=False)) for v in (x, y))
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(f"{what} must be matching vectors: {x.shape}, {y.shape}")
    return x, y


@dataclass
class FieldState:
    """Instantaneous field data (psi, psi_dot) on n spatial modes/sites."""

    psi: np.ndarray
    psi_dot: np.ndarray

    def __post_init__(self):
        self.psi, self.psi_dot = _vector_pair(self.psi, self.psi_dot, "psi and psi_dot")

    @property
    def n(self) -> int:
        return self.psi.shape[0]


@dataclass
class TwoComponentState:
    """Doubled state Psi = (upper, lower) with its packing constant."""

    upper: np.ndarray
    lower: np.ndarray
    lam: float

    def __post_init__(self):
        self.upper, self.lower = _vector_pair(self.upper, self.lower, "upper and lower components")
        _nonzero_lam(self.lam)

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    @property
    def vector(self) -> np.ndarray:
        """Concatenated (2n,) representation."""
        return np.concatenate([self.upper, self.lower])

    @classmethod
    def from_vector(cls, vec: np.ndarray, lam: float) -> "TwoComponentState":
        vec = _as_array(vec, "vector")
        if vec.ndim != 1 or vec.shape[0] % 2 != 0:
            raise DimensionMismatchError(f"expected an even-length vector, got {vec.shape}")
        n = vec.shape[0] // 2
        return cls(vec[:n], vec[n:], lam)


def pack(state: FieldState, lam: float) -> TwoComponentState:
    """Fold field data into the doubled representation."""
    _nonzero_lam(lam)
    shift = 1j * lam * state.psi_dot
    return TwoComponentState(state.psi + shift, state.psi - shift, lam)


def _field_data(upper: np.ndarray, lower: np.ndarray, lam: float) -> tuple:
    """(psi, psi_dot) from doubled components; any leading (sample) axes ride along."""
    return 0.5 * (upper + lower), (upper - lower) / (2j * lam)


def unpack(state: TwoComponentState) -> FieldState:
    """Invert pack(); exact round trip up to rounding."""
    return FieldState(*_field_data(state.upper, state.lower, state.lam))


def build_hamiltonian(d_matrix, lam: float) -> np.ndarray:
    """Assemble H, the dense (2n, 2n) complex generator of the doubled
    first-order system, from the spatial operator D.

    Blocks are (1/2) [[lam*D + 1/lam, lam*D - 1/lam],
                      [-lam*D + 1/lam, -lam*D - 1/lam]] with the scalar
    terms understood as multiples of the identity. H is sigma3-pseudo-
    Hermitian whenever D is Hermitian; D is checked at the default
    Hermiticity tolerance.
    """
    _nonzero_lam(lam)
    d = _as_hermitian(_as_square(d_matrix, "D"), what="D")  # one (n, n) D
    n = d.shape[0]
    eye = np.eye(n, dtype=complex)
    a = lam * d + eye / lam
    b = lam * d - eye / lam
    return 0.5 * np.block([[a, b], [-b, -a]])


def gauge_transform(h, g: np.ndarray, g_dot: np.ndarray | None = None) -> np.ndarray:
    """Apply a 2x2 gauge factor g (acting as g otimes identity) to the
    (2n, 2n) generator H.

    Returns the complex array g H g^-1 + i g_dot g^-1 (the derivative term
    enters for time-dependent gauges). Raises DimensionMismatchError unless
    H is square of even size, and SingularGaugeError if g is not invertible.
    """
    h = _as_square(h, "H").astype(complex, copy=False)
    if h.shape[0] % 2:
        raise DimensionMismatchError(f"H must have even size, got shape {h.shape}")
    g = _as_array(g, "gauge factor").astype(complex, copy=False)
    if g.shape != (2, 2):
        raise DimensionMismatchError(f"gauge factor must be 2x2, got {g.shape}")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det) < 1e-14 * max(1.0, float(np.max(np.abs(g)))) ** 2:
        raise SingularGaugeError(f"gauge factor is singular (det {det:.3e})")
    ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=complex) / det
    eye = np.eye(h.shape[0] // 2, dtype=complex)
    big_g = np.kron(g, eye)
    big_ginv = np.kron(ginv, eye)
    out = big_g @ h @ big_ginv
    if g_dot is not None:
        g_dot = _as_array(g_dot, "gauge derivative").astype(complex, copy=False)
        if g_dot.shape != (2, 2):
            raise DimensionMismatchError(f"gauge derivative must be 2x2, got {g_dot.shape}")
        out = out + 1j * np.kron(g_dot @ ginv, eye)
    return out


def eigen_system(
    d_spec: SpectralDecomposition, lam: float, allow_complex: bool = False
) -> BiorthonormalSystem:
    """Closed-form eigensystem of H from the spectral data of D, stacked or not.

    For each mode n with D-eigenvalue omega_n^2 > 0 the doubled operator has
    the eigenvalue pair +-omega_n with right eigenvectors
    (1/lam +- omega_n, 1/lam -+ omega_n) on that mode, and left (dual)
    vectors (lam +- 1/omega_n, lam -+ 1/omega_n)/4. Columns are ordered all
    plus-branch modes first, then all minus-branch modes, each in the
    eigenvalue order of ``d_spec``: column j < n is (+, mode j) with energy
    +omega_j, column n + j is (-, mode j) with energy -omega_j.

    With ``allow_complex=True`` negative D-eigenvalues are admitted: the
    branch frequencies become the conjugate pair +-i|omega_n| and the same
    algebra yields the biorthonormal pair system (the left vectors pick up
    a conjugation). Zero modes are always an error.
    """
    _nonzero_lam(lam)
    if allow_complex:
        w = np.asarray(d_spec.eigenvalues, dtype=float)
        if np.any(np.abs(w) <= 1e-300):
            raise NonPositiveSpectrumError(
                "zero eigenvalue of D: the doubled block is not diagonalizable"
            )
        omega = np.sqrt(w.astype(complex))
    else:
        w = _require_positive(d_spec.eigenvalues, "eigen_system without allow_complex")
        omega = np.sqrt(w).astype(complex)
    phi = d_spec.eigenvectors
    n = d_spec.n
    inv_lam, w = 1.0 / lam, omega[..., None, :]
    right = np.empty((*phi.shape[:-2], 2 * n, 2 * n), dtype=complex)
    left = np.empty_like(right)
    # plus branch: columns 0..n-1; minus branch: columns n..2n-1
    right[..., :n, :n] = right[..., n:, n:] = phi * (inv_lam + w)
    right[..., n:, :n] = right[..., :n, n:] = phi * (inv_lam - w)
    left[..., :n, :n] = left[..., n:, n:] = 0.25 * phi * np.conj(lam + 1.0 / w)
    left[..., n:, :n] = left[..., :n, n:] = 0.25 * phi * np.conj(lam - 1.0 / w)
    return BiorthonormalSystem(right, left, np.concatenate([omega, -omega], axis=-1))


def eta_plus(d_spec: SpectralDecomposition, lam: float) -> np.ndarray:
    """Canonical positive metric operator in closed block form.

    eta_plus = (1/8) [[lam^2 + D^-1, lam^2 - D^-1],
                      [lam^2 - D^-1, lam^2 + D^-1]]
    which equals the sum of left-eigenvector outer products over both
    branches. Requires a strictly positive spectrum.
    """
    _nonzero_lam(lam)
    _require_positive(d_spec.eigenvalues, "eta_plus")
    n = d_spec.n
    lam2 = _lam_squared(lam) * np.eye(n, dtype=complex)
    dinv = operator_power(d_spec, -1.0)
    plus = lam2 + dinv
    minus = lam2 - dinv
    return 0.125 * np.block([[plus, minus], [minus, plus]])


def _check_pair(s1: TwoComponentState, s2: TwoComponentState) -> None:
    """Doubled states paired in a product must share size and packing constant."""
    if s1.n != s2.n:
        raise DimensionMismatchError(f"state sizes differ: {s1.n} vs {s2.n}")
    if s1.lam != s2.lam:
        raise LambdaMismatchError(f"packing constants differ: {s1.lam} vs {s2.lam}")


def kg_inner(s1: TwoComponentState, s2: TwoComponentState) -> complex:
    """Indefinite sigma3 product <Psi1|sigma3 Psi2>.

    Equals 2i*lam*(<psi1|psi2_dot> - <psi1_dot|psi2>) in field data; it is
    the conserved Klein-Gordon pairing, Hermitian but not positive.
    """
    _check_pair(s1, s2)
    return complex(np.vdot(s1.upper, s2.upper) - np.vdot(s1.lower, s2.lower))

