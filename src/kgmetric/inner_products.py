"""Metric operators and the invariant inner products they induce.

A positive metric eta turns the doubled evolution into unitary quantum
mechanics: <Psi1|eta Psi2> is conserved whenever H is eta-pseudo-Hermitian.
This module builds the canonical positive metric, its full positive family
(parametrized by per-mode coefficient sequences), the general sign-classified
metric for pseudo-real spectra (one classifier, ``_real_labels``, splits the
spectrum into real labels and conjugate pairs), and the equivalent inner
products expressed directly on field data (psi, psi_dot). It also transports
a fixed initial metric along a propagator, which is what keeps the product
invariant under time-dependent D.

Every metric is returned as a plain (2n, 2n) complex Hermitian array; whether
it is positive is read from its spectrum where needed (the sign of its lowest
eigenvalue from ``hermitian_eigendecompose``). check_pseudo_unitary returns
its defect as a float, for the caller to compare with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    LengthMismatchError,
    MissingSignError,
    NonPositiveCoefficientError,
    SingularPropagatorError,
    UnpairedComplexEigenvalueError,
)
from .spectral import (
    BiorthonormalSystem,
    SpectralDecomposition,
    _as_array,
    _as_square,
    _require_positive,
    operator_power,
)
from .two_component import FieldState, TwoComponentState, _check_pair, _lam_squared, _nonzero_lam

# relative gap below which _real_labels treats an eigenvalue as real, and
# eta_general two eigenvalues as a conjugate pair
PAIRING_TOL = 1e-12


@dataclass
class InnerProductSpec:
    """Per-mode coefficient sequences |a_n+|^2 and |a_n-|^2.

    Both sequences must be real and strictly positive; they fix one member of the
    positive-definite inner-product family. The uniform spec (all ones)
    reproduces the canonical metric.
    """

    a_plus_sq: np.ndarray
    a_minus_sq: np.ndarray

    def __post_init__(self):
        self.a_plus_sq = np.atleast_1d(_as_array(self.a_plus_sq, "a_plus_sq"))
        self.a_minus_sq = np.atleast_1d(_as_array(self.a_minus_sq, "a_minus_sq"))
        if self.a_plus_sq.shape != self.a_minus_sq.shape or self.a_plus_sq.ndim != 1:
            raise LengthMismatchError(
                f"coefficient sequences must be matching vectors, "
                f"got {self.a_plus_sq.shape} and {self.a_minus_sq.shape}"
            )
        for name, arr in (("a_plus_sq", self.a_plus_sq), ("a_minus_sq", self.a_minus_sq)):
            if arr.dtype.kind == "c" or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise NonPositiveCoefficientError(
                    f"{name} must be real, strictly positive and finite"
                )

    @classmethod
    def uniform(cls, n: int) -> "InnerProductSpec":
        return cls(np.ones(n), np.ones(n))

    @property
    def n(self) -> int:
        return self.a_plus_sq.shape[0]

    @property
    def l_plus_coeff(self) -> np.ndarray:
        """Eigenvalues of L+ : (|a_n+|^2 + |a_n-|^2)/2."""
        return 0.5 * self.a_plus_sq + 0.5 * self.a_minus_sq

    @property
    def l_minus_coeff(self) -> np.ndarray:
        """Eigenvalues of L- : (|a_n+|^2 - |a_n-|^2)/2."""
        return 0.5 * self.a_plus_sq - 0.5 * self.a_minus_sq


@dataclass
class SignAssignment:
    """One sign per real-eigenvalue label of a biorthonormal system."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(_as_array(self.sigma, "sigma"))
        if sigma.ndim != 1 or not np.all(np.isin(sigma, (-1, 1))):
            raise InvalidParameterError("sigma must be a vector of +-1 entries")
        self.sigma = sigma.real.astype(int)

    @classmethod
    def all_plus(cls, n: int) -> "SignAssignment":
        return cls(np.ones(n, dtype=int))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def build_L(
    spec: InnerProductSpec, d_spec: SpectralDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the commuting coefficient operators L+ and L- of D.

    L+- = (1/2) sum_n (|a_n+|^2 +- |a_n-|^2) |v_n><v_n| in the eigenbasis of
    d_spec. L+ is positive by construction; L- may have either sign.
    """
    if spec.n != d_spec.n:
        raise LengthMismatchError(
            f"spec length {spec.n} does not match mode count {d_spec.n}"
        )
    v = d_spec.eigenvectors
    vh = v.conj().T
    return (v * spec.l_plus_coeff) @ vh, (v * spec.l_minus_coeff) @ vh


def eta_tilde_plus(
    d_spec: SpectralDecomposition, lam: float, spec: InnerProductSpec
) -> np.ndarray:
    """General positive metric for a positive spectrum, in block closed form.

    (1/8) [[L+(lam^2 + D^-1) + 2 lam L- D^-1/2,  L+(lam^2 - D^-1)],
           [L+(lam^2 - D^-1),  L+(lam^2 + D^-1) - 2 lam L- D^-1/2]]

    The uniform spec reduces this to the canonical metric. Every factor is a
    function of D, so the blocks are Hermitian and the whole operator is a
    positive, invertible metric for H.
    """
    _nonzero_lam(lam)
    _require_positive(d_spec.eigenvalues, "the positive family")
    n = d_spec.n
    lam2 = _lam_squared(lam) * np.eye(n, dtype=complex)
    l_plus, l_minus = build_L(spec, d_spec)
    dinv = operator_power(d_spec, -1.0)
    dinvhalf = operator_power(d_spec, -0.5)
    sym = l_plus @ (lam2 + dinv)
    skew = l_plus @ (lam2 - dinv)
    shift = 2.0 * lam * (l_minus @ dinvhalf)
    return 0.125 * np.block([[sym + shift, skew], [skew, sym - shift]])


def _real_labels(energies) -> tuple[np.ndarray, float]:
    """Mask of the real labels of a doubled spectrum, |Im E| <= PAIRING_TOL *
    scale, and that scale, max(|E|, 1); the other labels must pair up."""
    e = np.asarray(energies, dtype=complex)
    scale = max(float(np.max(np.abs(e))), 1.0)
    return np.abs(e.imag) <= PAIRING_TOL * scale, scale


def eta_general(system: BiorthonormalSystem, signs: SignAssignment) -> np.ndarray:
    """Sign-classified metric, as a (2n, 2n) Hermitian array, from a
    biorthonormal eigensystem.

    Real-eigenvalue columns contribute sigma_j |phi_j><phi_j| with the
    caller's sign choice; complex-conjugate eigenvalue pairs contribute the
    off-diagonal coupling |phi_j><phi_k| + |phi_k><phi_j|. Pseudo-norms of
    the right eigenvectors then come out as sigma_j for real labels and 0
    for pair members.

    Raises MissingSignError if the sign count does not match the number of
    real labels (tested first), and UnpairedComplexEigenvalueError if some
    complex eigenvalue has no conjugate partner.
    """
    e = np.asarray(system.energies, dtype=complex)
    is_real, scale = _real_labels(e)
    n_real = np.count_nonzero(is_real)
    if signs.n != n_real:
        raise MissingSignError(f"{n_real} real labels but {signs.n} signs supplied")

    left = system.left_vectors
    eta = np.zeros((left.shape[0], left.shape[0]), dtype=complex)
    for sigma, j in zip(signs.sigma, np.flatnonzero(is_real)):
        eta += sigma * np.outer(left[:, j], left[:, j].conj())
    # each complex label, in index order, takes its first unused partner
    unused = np.flatnonzero(~is_real).tolist()
    while unused:
        j = unused.pop(0)
        partners = [k for k in unused if abs(e[k] - np.conj(e[j])) <= PAIRING_TOL * scale]
        if not partners:
            raise UnpairedComplexEigenvalueError(
                f"eigenvalue {e[j]:.6g} has no conjugate partner"
            )
        k = partners[0]
        unused.remove(k)
        eta += np.outer(left[:, j], left[:, k].conj())
        eta += np.outer(left[:, k], left[:, j].conj())
    return eta


def two_component_inner(
    s1: TwoComponentState, s2: TwoComponentState, eta
) -> complex:
    """<Psi1|eta Psi2> on doubled states, eta a (2n, 2n) matrix."""
    _check_pair(s1, s2)
    mat = _as_array(eta, "metric").astype(complex, copy=False)
    if mat.shape != (2 * s1.n, 2 * s1.n):
        raise DimensionMismatchError(
            f"metric shape {mat.shape} does not match doubled size {2 * s1.n}"
        )
    return complex(np.vdot(s1.vector, mat @ s2.vector))


def _check_state_size(n: int, operator_n: int) -> None:
    """States fed to an operator must have its size (DimensionMismatchError)."""
    if n != operator_n:
        raise DimensionMismatchError(
            f"state size {n} does not match operator size {operator_n}"
        )


def _field_inner(
    psi1: np.ndarray,
    dot1: np.ndarray,
    psi2: np.ndarray,
    dot2: np.ndarray,
    d_spec: SpectralDecomposition,
    spec: InnerProductSpec,
) -> np.ndarray:
    """solution_inner on field data stacked along leading axes.

    Each of psi1, dot1, psi2, dot2 is (..., n), the pairs sharing their
    leading shape, as d_spec does if stacked; the result has that shape.
    """
    n1, n2 = psi1.shape[-1], psi2.shape[-1]
    if n1 != n2:
        raise DimensionMismatchError(f"state sizes differ: {n1} vs {n2}")
    _check_state_size(n1, d_spec.n)
    if spec.n != d_spec.n:
        raise LengthMismatchError(
            f"spec length {spec.n} does not match mode count {d_spec.n}"
        )
    w = _require_positive(d_spec.eigenvalues, "inner product")
    c1, c2, d1, d2 = map(d_spec.coordinates, (psi1, psi2, dot1, dot2))
    lp = spec.l_plus_coeff
    lm = spec.l_minus_coeff
    total = (
        np.sum(lp * np.conj(c1) * c2, axis=-1)
        + np.sum((lp / w) * np.conj(d1) * d2, axis=-1)
        + 1j * np.sum((lm / np.sqrt(w)) * (np.conj(c1) * d2 - np.conj(d1) * c2), axis=-1)
    )
    return 0.5 * total


def solution_inner(
    f1: FieldState,
    f2: FieldState,
    d_spec: SpectralDecomposition,
    spec: InnerProductSpec,
) -> complex:
    """Positive-definite inner product directly on field data.

    (1/2) [ <psi1|L+|psi2> + <psi1_dot|L+ D^-1|psi2_dot>
            + i (<psi1|L- D^-1/2|psi2_dot> - <psi1_dot|L- D^-1/2|psi2>) ]

    evaluated in the eigenbasis of D, where all the coefficient operators
    are diagonal. Equal to lam^-2 <Psi1|eta_tilde_plus Psi2> for any lam.
    """
    return complex(_field_inner(f1.psi, f1.psi_dot, f2.psi, f2.psi_dot, d_spec, spec))


def _propagator_and_metric(u, eta0) -> tuple[np.ndarray, np.ndarray]:
    """Square propagator U and metric eta0, which must match U, as complex arrays."""
    u = _as_square(u, "propagator").astype(complex, copy=False)
    m0 = _as_array(eta0, "metric").astype(complex, copy=False)
    if m0.shape != u.shape:
        raise DimensionMismatchError(
            f"metric shape {m0.shape} does not match propagator shape {u.shape}"
        )
    return u, m0


def eta_inv(u: np.ndarray, eta0) -> np.ndarray:
    """Transport the initial metric along a propagator.

    Returns the array U^-1-dagger eta0 U^-1, the unique metric that keeps
    <Psi1(t)|eta(t) Psi2(t)> frozen at its initial value when both states
    evolve with U. Congruence preserves signature, so the result is
    positive exactly when eta0 is.
    """
    u, m0 = _propagator_and_metric(u, eta0)
    try:
        uinv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise SingularPropagatorError(f"propagator not invertible: {exc}") from exc
    defect = float(np.max(np.abs(u @ uinv - np.eye(u.shape[0]))))
    if not np.isfinite(defect) or defect > 1e-6:
        raise SingularPropagatorError(
            f"propagator numerically singular (inverse defect {defect:.3e})"
        )
    return uinv.conj().T @ m0 @ uinv


def check_pseudo_unitary(u: np.ndarray, eta0) -> float:
    """How far U is from being eta0-pseudo-unitary, as the float defect
    max |eta0^-1 U^dag eta0 U - 1|; for a constant pseudo-Hermitian
    generator the exact propagator makes it zero up to rounding.
    """
    u, m0 = _propagator_and_metric(u, eta0)
    rhs = u.conj().T @ m0 @ u
    try:
        prod = np.linalg.solve(m0, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularPropagatorError(f"metric not invertible: {exc}") from exc
    return float(np.max(np.abs(prod - np.eye(u.shape[0]))))
