"""Metric operators and the invariant inner products they induce.

A positive metric eta turns the doubled evolution into unitary quantum
mechanics: <Psi1|eta Psi2> is conserved whenever H is eta-pseudo-Hermitian.
This module builds the canonical positive metric, its full positive family
(parametrized by per-mode coefficient sequences), the general sign-classified
metric for pseudo-real spectra, and the equivalent inner products expressed
directly on field data (psi, psi_dot). It also transports a fixed initial
metric along a propagator, which is what keeps the product invariant under
time-dependent D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LambdaMismatchError,
    LengthMismatchError,
    MissingSignError,
    NonPositiveCoefficientError,
    NonPositiveSpectrumError,
    SingularPropagatorError,
    UnpairedComplexEigenvalueError,
    ZeroLambdaError,
)
from .spectral import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectralDecomposition,
    operator_power,
)
from .two_component import FieldState, TwoComponentState


@dataclass
class InnerProductSpec:
    """Per-mode coefficient sequences |a_n+|^2 and |a_n-|^2.

    Both sequences must be strictly positive; they fix one member of the
    positive-definite inner-product family. The uniform spec (all ones)
    reproduces the canonical metric.
    """

    a_plus_sq: np.ndarray
    a_minus_sq: np.ndarray

    def __post_init__(self):
        self.a_plus_sq = np.atleast_1d(np.asarray(self.a_plus_sq, dtype=float))
        self.a_minus_sq = np.atleast_1d(np.asarray(self.a_minus_sq, dtype=float))
        if self.a_plus_sq.shape != self.a_minus_sq.shape or self.a_plus_sq.ndim != 1:
            raise LengthMismatchError(
                f"coefficient sequences must be matching vectors, "
                f"got {self.a_plus_sq.shape} and {self.a_minus_sq.shape}"
            )
        for name, arr in (("a_plus_sq", self.a_plus_sq), ("a_minus_sq", self.a_minus_sq)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise NonPositiveCoefficientError(
                    f"{name} must be strictly positive and finite"
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
        return 0.5 * (self.a_plus_sq + self.a_minus_sq)

    @property
    def l_minus_coeff(self) -> np.ndarray:
        """Eigenvalues of L- : (|a_n+|^2 - |a_n-|^2)/2."""
        return 0.5 * (self.a_plus_sq - self.a_minus_sq)


@dataclass
class SignAssignment:
    """One sign per real-eigenvalue label of a biorthonormal system."""

    sigma: np.ndarray

    def __post_init__(self):
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=int))
        if self.sigma.ndim != 1 or not np.all(np.isin(self.sigma, (-1, 1))):
            raise ValueError("sigma must be a vector of +-1 entries")

    @classmethod
    def all_plus(cls, n: int) -> "SignAssignment":
        return cls(np.ones(n, dtype=int))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass
class EtaOperator:
    """A metric operator together with its positivity tag."""

    matrix: np.ndarray
    positive: bool
    lam: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class PseudoUnitaryReport:
    """Defect of eta0^-1 U^dag eta0 U against the identity."""

    defect: float
    tol: float
    passed: bool


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
    l_plus = (v * spec.l_plus_coeff) @ v.conj().T
    l_minus = (v * spec.l_minus_coeff) @ v.conj().T
    return l_plus, l_minus


def eta_tilde_plus(
    d_spec: SpectralDecomposition, lam: float, spec: InnerProductSpec
) -> EtaOperator:
    """General positive metric for a positive spectrum, in block closed form.

    (1/8) [[L+(lam^2 + D^-1) + 2 lam L- D^-1/2,  L+(lam^2 - D^-1)],
           [L+(lam^2 - D^-1),  L+(lam^2 + D^-1) - 2 lam L- D^-1/2]]

    The uniform spec reduces this to the canonical metric. Every factor is a
    function of D, so the blocks are Hermitian and the whole operator is a
    positive, invertible metric for H.
    """
    if lam == 0.0:
        raise ZeroLambdaError("packing constant lam must be nonzero")
    if np.min(d_spec.eigenvalues) <= 0.0:
        raise NonPositiveSpectrumError(
            "the positive family needs a strictly positive spectrum "
            f"(min eigenvalue {np.min(d_spec.eigenvalues):.3e})"
        )
    n = d_spec.n
    l_plus, l_minus = build_L(spec, d_spec)
    dinv = operator_power(d_spec, -1.0)
    dinvhalf = operator_power(d_spec, -0.5)
    lam2 = lam * lam * np.eye(n, dtype=complex)
    sym = l_plus @ (lam2 + dinv)
    skew = l_plus @ (lam2 - dinv)
    shift = 2.0 * lam * (l_minus @ dinvhalf)
    block = 0.125 * np.block([[sym + shift, skew], [skew, sym - shift]])
    return EtaOperator(block, positive=True, lam=lam)


def eta_general(
    system: BiorthonormalSystem,
    signs: SignAssignment,
    tol: float = 1e-12,
) -> EtaOperator:
    """Sign-classified metric from a biorthonormal eigensystem.

    Real-eigenvalue columns contribute sigma_j |phi_j><phi_j| with the
    caller's sign choice; complex-conjugate eigenvalue pairs contribute the
    off-diagonal coupling |phi_j><phi_k| + |phi_k><phi_j|. Pseudo-norms of
    the right eigenvectors then come out as sigma_j for real labels and 0
    for pair members.

    Raises UnpairedComplexEigenvalueError if some complex eigenvalue has no
    conjugate partner, and MissingSignError if the sign count does not match
    the number of real labels.
    """
    if system.energies is None:
        raise ValueError("system carries no eigenvalues; eta_general needs them")
    e = np.asarray(system.energies, dtype=complex)
    m = system.size
    scale = max(float(np.max(np.abs(e))), 1.0)
    is_real = np.abs(e.imag) <= tol * scale

    real_idx = [j for j in range(m) if is_real[j]]
    complex_idx = [j for j in range(m) if not is_real[j]]
    if signs.n != len(real_idx):
        raise MissingSignError(
            f"{len(real_idx)} real labels but {signs.n} signs supplied"
        )

    pairs = []
    unused = set(complex_idx)
    for j in complex_idx:
        if j not in unused:
            continue
        unused.discard(j)
        partner = None
        for k in sorted(unused):
            if abs(e[k] - np.conj(e[j])) <= tol * scale:
                partner = k
                break
        if partner is None:
            raise UnpairedComplexEigenvalueError(
                f"eigenvalue {e[j]:.6g} has no conjugate partner"
            )
        unused.discard(partner)
        pairs.append((j, partner))

    left = system.left_vectors
    eta = np.zeros((left.shape[0], left.shape[0]), dtype=complex)
    for sigma, j in zip(signs.sigma, real_idx):
        eta += sigma * np.outer(left[:, j], left[:, j].conj())
    for j, k in pairs:
        eta += np.outer(left[:, j], left[:, k].conj())
        eta += np.outer(left[:, k], left[:, j].conj())
    positive = not pairs and bool(np.all(signs.sigma == 1))
    return EtaOperator(eta, positive=positive, lam=0.0)


def _eta_matrix(eta) -> np.ndarray:
    return eta.matrix if isinstance(eta, EtaOperator) else np.asarray(eta, dtype=complex)


def two_component_inner(
    s1: TwoComponentState, s2: TwoComponentState, eta
) -> complex:
    """<Psi1|eta Psi2> on doubled states; eta may be EtaOperator or matrix."""
    if s1.n != s2.n:
        raise DimensionMismatchError(f"state sizes differ: {s1.n} vs {s2.n}")
    if s1.lam != s2.lam:
        raise LambdaMismatchError(f"packing constants differ: {s1.lam} vs {s2.lam}")
    mat = _eta_matrix(eta)
    if mat.shape != (2 * s1.n, 2 * s1.n):
        raise DimensionMismatchError(
            f"metric shape {mat.shape} does not match doubled size {2 * s1.n}"
        )
    return complex(np.vdot(s1.vector, mat @ s2.vector))


def _field_inner(
    psi1: np.ndarray,
    dot1: np.ndarray,
    psi2: np.ndarray,
    dot2: np.ndarray,
    d_spec: SpectralDecomposition,
    spec: InnerProductSpec,
) -> np.ndarray:
    """solution_inner on field data stacked along leading axes.

    Each of psi1, dot1, psi2, dot2 is (..., n) and the pairs must share
    their leading shape; the result carries that leading shape.
    """
    n1, n2 = psi1.shape[-1], psi2.shape[-1]
    if n1 != n2:
        raise DimensionMismatchError(f"state sizes differ: {n1} vs {n2}")
    if n1 != d_spec.n:
        raise DimensionMismatchError(
            f"state size {n1} does not match operator size {d_spec.n}"
        )
    if spec.n != d_spec.n:
        raise LengthMismatchError(
            f"spec length {spec.n} does not match mode count {d_spec.n}"
        )
    w = d_spec.eigenvalues
    if np.min(w) <= 0.0:
        raise NonPositiveSpectrumError(
            f"inner product needs a strictly positive spectrum "
            f"(min eigenvalue {np.min(w):.3e})"
        )
    # rows times conj(V) are the rows' coordinates V^dagger psi in the eigenbasis
    vc = np.conj(d_spec.eigenvectors)
    c1, c2 = psi1 @ vc, psi2 @ vc
    d1, d2 = dot1 @ vc, dot2 @ vc
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


def invariant_inner_frozen(
    traj1,
    traj2,
    t0: float,
    d_spec_at_t0: SpectralDecomposition,
    spec: InnerProductSpec,
) -> complex:
    """Inner product frozen at the initial time.

    Evaluates solution_inner on the t0 samples of both trajectories; by
    definition the value never drifts, which is what makes it the invariant
    choice when D depends on time. Both trajectories must carry a sample at
    t0 (see FieldTrajectory.at_time).
    """
    f1 = traj1.at_time(t0)
    f2 = traj2.at_time(t0)
    return solution_inner(f1, f2, d_spec_at_t0, spec)


def eta_inv(u: np.ndarray, eta0) -> EtaOperator:
    """Transport the initial metric along a propagator.

    Returns U^-1-dagger eta0 U^-1, the unique metric that keeps
    <Psi1(t)|eta(t) Psi2(t)> frozen at its initial value when both states
    evolve with U. Positivity is inherited from eta0 (congruence preserves
    signature).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"propagator must be square, got {u.shape}")
    m0 = _eta_matrix(eta0)
    if m0.shape != u.shape:
        raise DimensionMismatchError(
            f"metric shape {m0.shape} does not match propagator shape {u.shape}"
        )
    try:
        uinv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise SingularPropagatorError(f"propagator not invertible: {exc}") from exc
    defect = float(np.max(np.abs(u @ uinv - np.eye(u.shape[0]))))
    if not np.isfinite(defect) or defect > 1e-6:
        raise SingularPropagatorError(
            f"propagator numerically singular (inverse defect {defect:.3e})"
        )
    out = uinv.conj().T @ m0 @ uinv
    positive = eta0.positive if isinstance(eta0, EtaOperator) else False
    lam = eta0.lam if isinstance(eta0, EtaOperator) else 0.0
    return EtaOperator(out, positive=positive, lam=lam)


def check_pseudo_unitary(u: np.ndarray, eta0, tol: float = 1e-9) -> PseudoUnitaryReport:
    """Measure how far U is from being eta0-pseudo-unitary.

    defect = max |eta0^-1 U^dag eta0 U - 1|; for a constant pseudo-Hermitian
    generator the exact propagator satisfies this identically.
    """
    u = np.asarray(u, dtype=complex)
    m0 = _eta_matrix(eta0)
    if u.shape != m0.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(
            f"propagator {u.shape} and metric {m0.shape} must be square and matching"
        )
    rhs = u.conj().T @ m0 @ u
    try:
        prod = np.linalg.solve(m0, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularPropagatorError(f"metric not invertible: {exc}") from exc
    defect = float(np.max(np.abs(prod - np.eye(u.shape[0]))))
    return PseudoUnitaryReport(defect=defect, tol=tol, passed=bool(defect <= tol))
