"""Free Klein-Gordon field on a periodic 1-D lattice.

The continuum field in a box of length l becomes a finite problem by keeping
the discrete Fourier modes k_j = 2 pi j / l, j in {-floor(N/2), ...,
ceil(N/2)-1}, with the spectral dispersion omega_k^2 = k^2 + mu^2 (not the
finite-difference one, so every mode frequency is exact). Modes carry
Kronecker normalization: sum_m conj(phi_k[m]) phi_k'[m] = delta_kk'.

Besides the operator itself, this module provides the one-parameter family
of invariant positive inner products on the solution space, the gauge-fixed
product it contains as its symmetric member, and the nonrelativistic-limit
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import NonPositiveAError, OutOfFamilyError
from ..inner_products import InnerProductSpec, solution_inner
from ..spectral import SpectralDecomposition
from ..two_component import FieldState

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class KleinGordonLattice:
    """Periodic lattice with sites points, mass parameter mu, box length l.

    Mode data is exposed in canonical order: ascending omega^2 with ties
    (the +-j pairs) kept in ascending-j order.
    """

    sites: int
    mu: float
    box_length: float = TWO_PI

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.box_length > 0.0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Integer labels j in canonical (ascending-frequency) order."""
        n = self.sites
        j = np.arange(-(n // 2), (n + 1) // 2)
        k = TWO_PI * j / self.box_length
        order = np.argsort(k * k + self.mu * self.mu, kind="stable")
        return j[order]

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return TWO_PI * self.mode_indices / self.box_length

    @cached_property
    def omega_sq(self) -> np.ndarray:
        return self.wavenumbers**2 + self.mu**2

    @cached_property
    def omegas(self) -> np.ndarray:
        return np.sqrt(self.omega_sq)

    @cached_property
    def modes(self) -> np.ndarray:
        """Mode vectors as columns, canonical order, Kronecker-normalized."""
        m = np.arange(self.sites)
        x = m * (self.box_length / self.sites)
        return np.exp(1j * np.outer(x, self.wavenumbers)) / np.sqrt(self.sites)

    @cached_property
    def d_spec(self) -> SpectralDecomposition:
        return SpectralDecomposition(
            eigenvalues=self.omega_sq, eigenvectors=self.modes
        )

    @cached_property
    def d_matrix(self) -> np.ndarray:
        return (self.modes * self.omega_sq) @ self.modes.conj().T

    @cached_property
    def d_half(self) -> np.ndarray:
        return (self.modes * self.omegas) @ self.modes.conj().T

    @cached_property
    def d_minus_half(self) -> np.ndarray:
        return (self.modes / self.omegas) @ self.modes.conj().T

    def column_of(self, j: int) -> int:
        """Canonical-order column index of mode label j."""
        hits = np.nonzero(self.mode_indices == j)[0]
        if hits.size == 0:
            raise ValueError(f"mode label {j} not on this lattice")
        return int(hits[0])


def kg_build(lattice: KleinGordonLattice) -> SpectralDecomposition:
    """Spectral data of D = -d^2/dx^2 + mu^2 restricted to the lattice modes."""
    return lattice.d_spec


def _check_eps(eps: int) -> int:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")
    return eps


def _lattice_solution(
    lattice: KleinGordonLattice, cols, eps, amps, t: float
) -> FieldState:
    """Solution sum_m amps[m] exp(-i eps[m] omega t) phi at time t, one term per
    (canonical column, branch, amplitude) triple, with its velocity."""
    cols = np.asarray(cols, dtype=int)
    freq = np.asarray(eps) * lattice.omegas[cols]
    coeff = np.asarray(amps, dtype=complex) * np.exp(-1j * freq * t)
    v = lattice.modes[:, cols]
    return FieldState(psi=v @ coeff, psi_dot=v @ (-1j * freq * coeff))


def kg_mode_solution(
    lattice: KleinGordonLattice,
    eps: int,
    j: int,
    t: float = 0.0,
    normalization: complex = 1.0,
) -> FieldState:
    """Basic solution N exp(-i eps omega_j t) phi_j sampled at time t."""
    return kg_superposition(lattice, {(eps, j): normalization}, t)


def kg_superposition(lattice: KleinGordonLattice, coeffs: dict, t: float = 0.0) -> FieldState:
    """Solution sum_(eps,j) c exp(-i eps omega_j t) phi_j at time t.

    coeffs maps (eps, j) pairs to complex amplitudes.
    """
    eps = [_check_eps(e) for e, _ in coeffs]
    cols = [lattice.column_of(j) for _, j in coeffs]
    return _lattice_solution(lattice, cols, eps, list(coeffs.values()), t)


def kg_band_limited_solution(
    lattice: KleinGordonLattice,
    k_max: float,
    rng: np.random.Generator,
    t: float = 0.0,
    positive_energy: bool = True,
) -> FieldState:
    """Random solution supported on modes with |k| <= k_max.

    k = 0 is always in band, so the result is never empty. Restricting to
    the positive-energy branch is the default (the nonrelativistic-limit
    comparisons assume it). Amplitudes are standard complex normals drawn
    in (column, branch) order, branch +1 before -1.
    """
    in_band = np.nonzero(np.abs(lattice.wavenumbers) <= k_max)[0]
    branches = (1,) if positive_energy else (1, -1)
    draws = rng.normal(size=(in_band.size, len(branches), 2))
    return _lattice_solution(
        lattice,
        np.repeat(in_band, len(branches)),
        np.tile(branches, in_band.size),
        (draws[..., 0] + 1j * draws[..., 1]).ravel(),
        t,
    )


def kg_relativistic_spec(
    lattice: KleinGordonLattice, a_plus: float, a_minus: float
) -> InnerProductSpec:
    """Per-mode coefficients of the relativistically motivated family.

    Branch weights scale with the mode frequency: alpha_eps(k) = a_eps
    omega_k / mu, one positive dimensionless scalar per branch.
    """
    if not (a_plus > 0.0 and a_minus > 0.0):
        raise NonPositiveAError(
            f"branch weights must be positive, got a_plus={a_plus}, a_minus={a_minus}"
        )
    scale = lattice.omegas / lattice.mu
    return InnerProductSpec(a_plus_sq=a_plus * scale, a_minus_sq=a_minus * scale)


def kg_inner_ri(f1: FieldState, f2: FieldState, lattice: KleinGordonLattice, a: float) -> complex:
    """The one-parameter invariant product, normalized to branch-weight sum 2.

    (1/2mu) [ <psi1|D^(1/2)|psi2> + <psidot1|D^(-1/2)|psidot2>
              + i a (<psi1|psidot2> - <psidot1|psi2>) ]

    Positive-definite exactly on the open interval |a| < 1; the boundary is
    rejected. Equals the general-coefficient product with branch weights
    (1 + a, 1 - a).
    """
    if not abs(a) < 1.0:
        raise OutOfFamilyError(f"parameter must satisfy |a| < 1, got a={a}")
    _check_pair(f1, f2, lattice)
    sym = np.vdot(f1.psi, lattice.d_half @ f2.psi) + np.vdot(
        f1.psi_dot, lattice.d_minus_half @ f2.psi_dot
    )
    skew = np.vdot(f1.psi, f2.psi_dot) - np.vdot(f1.psi_dot, f2.psi)
    return complex((sym + 1j * a * skew) / (2.0 * lattice.mu))


def woodard_inner(
    f1: FieldState, f2: FieldState, lattice: KleinGordonLattice, form: str = "projection"
) -> complex:
    """The gauge-fixed positive product, by either of its two expressions.

    form="projection": i mu^-1 (<psi1+|psidot2+> - <psi1-|psidot2->) with
    psi+- the frequency-sign parts cut out by spectral projection, each
    part's velocity fixed by its branch (psidot+- = -+ i D^(1/2) psi+-).
    form="direct": (1/2mu) [<psi1|D^(1/2)|psi2> + <psidot1|D^(-1/2)|psidot2>].
    The two agree identically; both are exposed so the agreement can be
    measured rather than assumed.
    """
    _check_pair(f1, f2, lattice)
    if form == "direct":
        sym = np.vdot(f1.psi, lattice.d_half @ f2.psi) + np.vdot(
            f1.psi_dot, lattice.d_minus_half @ f2.psi_dot
        )
        return complex(sym / (2.0 * lattice.mu))
    if form != "projection":
        raise ValueError(f"form must be 'projection' or 'direct', got {form!r}")
    v = lattice.modes
    w = lattice.omegas
    c1 = v.conj().T @ f1.psi
    d1 = v.conj().T @ f1.psi_dot
    c2 = v.conj().T @ f2.psi
    d2 = v.conj().T @ f2.psi_dot
    c1_plus = 0.5 * (c1 + 1j * d1 / w)
    c1_minus = 0.5 * (c1 - 1j * d1 / w)
    c2_plus = 0.5 * (c2 + 1j * d2 / w)
    c2_minus = 0.5 * (c2 - 1j * d2 / w)
    d2_plus = -1j * w * c2_plus
    d2_minus = 1j * w * c2_minus
    total = np.sum(np.conj(c1_plus) * d2_plus) - np.sum(np.conj(c1_minus) * d2_minus)
    return complex(1j * total / lattice.mu)


@dataclass
class NonRelLimitReport:
    """Comparison of the invariant product with its low-momentum limit."""

    lhs: complex
    rhs: complex
    relative_gap: float


def kg_nonrel_limit_check(
    f1: FieldState, f2: FieldState, lattice: KleinGordonLattice, a_plus: float
) -> NonRelLimitReport:
    """Compare the invariant product against a_plus <psi1|psi2>.

    On positive-energy solutions band-limited to |k| <= k_max the two agree
    up to O((k_max/mu)^2): each mode weight is a_plus omega_k/mu =
    a_plus (1 + k^2/(2 mu^2) + ...). The minus-branch weight is irrelevant
    on such data, so it is pinned to a_plus here.
    """
    spec = kg_relativistic_spec(lattice, a_plus, a_plus)
    lhs = solution_inner(f1, f2, lattice.d_spec, spec)
    rhs = complex(a_plus * np.vdot(f1.psi, f2.psi))
    scale = abs(rhs) if abs(rhs) > 1e-300 else 1.0
    return NonRelLimitReport(lhs=lhs, rhs=rhs, relative_gap=abs(lhs - rhs) / scale)


def _check_pair(f1: FieldState, f2: FieldState, lattice: KleinGordonLattice) -> None:
    if f1.n != lattice.sites or f2.n != lattice.sites:
        raise ValueError(
            f"field states have {f1.n} and {f2.n} sites, lattice has {lattice.sites}"
        )
