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
    LambdaMismatchError,
    NonPositiveSpectrumError,
    NotHermitianError,
    SingularGaugeError,
    ZeroLambdaError,
)
from .spectral import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectralDecomposition,
    _as_square_complex,
    operator_power,
)


@dataclass
class FieldState:
    """Instantaneous field data (psi, psi_dot) on n spatial modes/sites."""

    psi: np.ndarray
    psi_dot: np.ndarray

    def __post_init__(self):
        self.psi = np.atleast_1d(np.asarray(self.psi, dtype=complex))
        self.psi_dot = np.atleast_1d(np.asarray(self.psi_dot, dtype=complex))
        if self.psi.shape != self.psi_dot.shape or self.psi.ndim != 1:
            raise DimensionMismatchError(
                f"psi and psi_dot must be matching vectors, "
                f"got {self.psi.shape} and {self.psi_dot.shape}"
            )

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
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=complex))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=complex))
        if self.upper.shape != self.lower.shape or self.upper.ndim != 1:
            raise DimensionMismatchError(
                f"upper and lower components must be matching vectors, "
                f"got {self.upper.shape} and {self.lower.shape}"
            )
        if self.lam == 0.0:
            raise ZeroLambdaError("packing constant lam must be nonzero")

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    @property
    def vector(self) -> np.ndarray:
        """Concatenated (2n,) representation."""
        return np.concatenate([self.upper, self.lower])

    @classmethod
    def from_vector(cls, vec: np.ndarray, lam: float) -> "TwoComponentState":
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim != 1 or vec.shape[0] % 2 != 0:
            raise DimensionMismatchError(f"expected an even-length vector, got {vec.shape}")
        n = vec.shape[0] // 2
        return cls(vec[:n], vec[n:], lam)


@dataclass
class TwoComponentHamiltonian:
    """Dense 2n x 2n generator of the doubled first-order system."""

    matrix: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2


def pack(state: FieldState, lam: float) -> TwoComponentState:
    """Fold field data into the doubled representation."""
    shift = 1j * lam * state.psi_dot
    return TwoComponentState(state.psi + shift, state.psi - shift, lam)


def _field_data(upper: np.ndarray, lower: np.ndarray, lam: float) -> tuple:
    """(psi, psi_dot) from doubled components; any leading (sample) axes ride along."""
    return 0.5 * (upper + lower), (upper - lower) / (2j * lam)


def unpack(state: TwoComponentState) -> FieldState:
    """Invert pack(); exact round trip up to rounding."""
    return FieldState(*_field_data(state.upper, state.lower, state.lam))


def build_hamiltonian(
    d_matrix, lam: float, tol: float = DEFAULT_TOL
) -> TwoComponentHamiltonian:
    """Assemble H from the spatial operator D.

    Blocks are (1/2) [[lam*D + 1/lam, lam*D - 1/lam],
                      [-lam*D + 1/lam, -lam*D - 1/lam]] with the scalar
    terms understood as multiples of the identity. H is sigma3-pseudo-
    Hermitian whenever D is Hermitian; D is checked at ``tol``.
    """
    if lam == 0.0:
        raise ZeroLambdaError("packing constant lam must be nonzero")
    d = _as_square_complex(d_matrix, "D")
    defect = float(np.max(np.abs(d - d.conj().T))) if d.size else 0.0
    if not np.all(np.isfinite(d.view(float))) or defect > tol:
        raise NotHermitianError(
            f"D deviates from Hermiticity by {defect:.3e} (tol {tol:.3e})"
        )
    n = d.shape[0]
    eye = np.eye(n, dtype=complex)
    a = lam * d + eye / lam
    b = lam * d - eye / lam
    h = 0.5 * np.block([[a, b], [-b, -a]])
    return TwoComponentHamiltonian(h, lam)


def gauge_transform(
    h: TwoComponentHamiltonian, g: np.ndarray, g_dot: np.ndarray | None = None
) -> TwoComponentHamiltonian:
    """Apply a 2x2 gauge factor g (acting as g otimes identity) to H.

    Returns g H g^-1 + i g_dot g^-1 (the derivative term enters for
    time-dependent gauges). Raises SingularGaugeError if g is not
    invertible.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise DimensionMismatchError(f"gauge factor must be 2x2, got {g.shape}")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det) < 1e-14 * max(1.0, float(np.max(np.abs(g)))) ** 2:
        raise SingularGaugeError(f"gauge factor is singular (det {det:.3e})")
    ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=complex) / det
    n = h.n
    eye = np.eye(n, dtype=complex)
    big_g = np.kron(g, eye)
    big_ginv = np.kron(ginv, eye)
    out = big_g @ h.matrix @ big_ginv
    if g_dot is not None:
        g_dot = np.asarray(g_dot, dtype=complex)
        if g_dot.shape != (2, 2):
            raise DimensionMismatchError(f"gauge derivative must be 2x2, got {g_dot.shape}")
        out = out + 1j * np.kron(g_dot @ ginv, eye)
    return TwoComponentHamiltonian(out, h.lam)


def _mode_frequencies(
    d_spec: SpectralDecomposition, allow_complex: bool
) -> np.ndarray:
    w = np.asarray(d_spec.eigenvalues, dtype=float)
    if np.any(np.abs(w) <= 1e-300):
        raise NonPositiveSpectrumError(
            "zero eigenvalue of D: the doubled block is not diagonalizable"
        )
    if not allow_complex:
        if np.min(w) <= 0.0:
            raise NonPositiveSpectrumError(
                f"negative eigenvalue of D ({np.min(w):.3e}); "
                "pass allow_complex=True to build the pseudo-real pair system"
            )
        return np.sqrt(w).astype(complex)
    return np.sqrt(w.astype(complex))


def eigen_system(
    d_spec: SpectralDecomposition, lam: float, allow_complex: bool = False
) -> BiorthonormalSystem:
    """Closed-form eigensystem of H from the spectral data of D.

    For each mode n with D-eigenvalue omega_n^2 > 0 the doubled operator has
    the eigenvalue pair +-omega_n with right eigenvectors
    (1/lam +- omega_n, 1/lam -+ omega_n) on that mode, and left (dual)
    vectors (lam +- 1/omega_n, lam -+ 1/omega_n)/4. Columns are ordered all
    plus-branch modes first, then all minus-branch modes, each in the
    eigenvalue order of ``d_spec``; ``labels[j] = (sign, mode)``.

    With ``allow_complex=True`` negative D-eigenvalues are admitted: the
    branch frequencies become the conjugate pair +-i|omega_n| and the same
    algebra yields the biorthonormal pair system (the left vectors pick up
    a conjugation). Zero modes are always an error.
    """
    if lam == 0.0:
        raise ZeroLambdaError("packing constant lam must be nonzero")
    omega = _mode_frequencies(d_spec, allow_complex)
    phi = d_spec.eigenvectors
    n = d_spec.n
    inv_lam = 1.0 / lam
    inv_omega = 1.0 / omega

    right = np.empty((2 * n, 2 * n), dtype=complex)
    left = np.empty((2 * n, 2 * n), dtype=complex)
    # plus branch: columns 0..n-1; minus branch: columns n..2n-1
    right[:n, :n] = phi * (inv_lam + omega)
    right[n:, :n] = phi * (inv_lam - omega)
    right[:n, n:] = phi * (inv_lam - omega)
    right[n:, n:] = phi * (inv_lam + omega)
    left[:n, :n] = 0.25 * phi * np.conj(lam + inv_omega)
    left[n:, :n] = 0.25 * phi * np.conj(lam - inv_omega)
    left[:n, n:] = 0.25 * phi * np.conj(lam - inv_omega)
    left[n:, n:] = 0.25 * phi * np.conj(lam + inv_omega)

    energies = np.concatenate([omega, -omega])
    labels = tuple([(+1, k) for k in range(n)] + [(-1, k) for k in range(n)])
    return BiorthonormalSystem(right, left, labels, energies)


def eta_plus(d_spec: SpectralDecomposition, lam: float) -> np.ndarray:
    """Canonical positive metric operator in closed block form.

    eta_plus = (1/8) [[lam^2 + D^-1, lam^2 - D^-1],
                      [lam^2 - D^-1, lam^2 + D^-1]]
    which equals the sum of left-eigenvector outer products over both
    branches. Requires a strictly positive spectrum.
    """
    if lam == 0.0:
        raise ZeroLambdaError("packing constant lam must be nonzero")
    if np.min(d_spec.eigenvalues) <= 0.0:
        raise NonPositiveSpectrumError(
            "eta_plus needs a strictly positive spectrum "
            f"(min eigenvalue {np.min(d_spec.eigenvalues):.3e})"
        )
    n = d_spec.n
    dinv = operator_power(d_spec, -1.0)
    lam2 = lam * lam * np.eye(n, dtype=complex)
    plus = lam2 + dinv
    minus = lam2 - dinv
    return 0.125 * np.block([[plus, minus], [minus, plus]])


def kg_inner(s1: TwoComponentState, s2: TwoComponentState) -> complex:
    """Indefinite sigma3 product <Psi1|sigma3 Psi2>.

    Equals 2i*lam*(<psi1|psi2_dot> - <psi1_dot|psi2>) in field data; it is
    the conserved Klein-Gordon pairing, Hermitian but not positive.
    """
    if s1.n != s2.n:
        raise DimensionMismatchError(f"state sizes differ: {s1.n} vs {s2.n}")
    if s1.lam != s2.lam:
        raise LambdaMismatchError(f"packing constants differ: {s1.lam} vs {s2.lam}")
    return complex(np.vdot(s1.upper, s2.upper) - np.vdot(s1.lower, s2.lower))
