"""Free Klein-Gordon field on a periodic 1-D lattice.

The continuum field in a box of length l (BOX_LENGTH, 2 pi) becomes a finite
problem by keeping the discrete Fourier modes k_j = 2 pi j / l, j in
{-floor(N/2), ..., ceil(N/2)-1}, with the spectral dispersion
omega_k^2 = k^2 + mu^2 (not the finite-difference one, so every mode
frequency is exact). Modes carry Kronecker normalization:
sum_m conj(phi_k[m]) phi_k'[m] = delta_kk'.

Besides the operator itself, this module provides the one-parameter family
of invariant positive inner products on the solution space, the gauge-fixed
product it contains as its symmetric member, and the nonrelativistic-limit
comparison.

Solutions and products also come as (rows, sites) stacks: _lattice_solution
and _band_limited_rows build many states from one matrix product and one
random draw, and _kg_gram and _woodard_rows measure them pair by pair. The
paper-named single-state functions are thin wrappers over these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidParameterError, NonPositiveAError, OutOfFamilyError
from ..inner_products import InnerProductSpec, _check_state_size, solution_inner
from ..spectral import SpectralDecomposition
from ..two_component import FieldState

TWO_PI = 2.0 * np.pi
BOX_LENGTH = TWO_PI
# fewest sites a lattice may have
MIN_SITES = 2


@dataclass(frozen=True)
class KleinGordonLattice:
    """Periodic lattice with `sites` points (at least MIN_SITES) and mass
    parameter mu > 0, in a box of length BOX_LENGTH.

    Mode data is exposed in canonical order: ascending omega^2 with ties
    (the +-j pairs) kept in ascending-j order.
    """

    sites: int
    mu: float

    def __post_init__(self):
        if self.sites < MIN_SITES:
            raise InvalidParameterError(f"need at least {MIN_SITES} sites, got {self.sites}")
        if not self.mu > 0.0:
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        # every omega^2 holds mu^2, which must stay in the float range
        if not float(self.mu) * float(self.mu) < np.inf:
            raise InvalidParameterError(f"mu^2 overflows, got mu = {self.mu}")

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Integer labels j in canonical (ascending-frequency) order."""
        n = self.sites
        j = np.arange(-(n // 2), (n + 1) // 2)
        k = TWO_PI * j / BOX_LENGTH
        order = np.argsort(k * k + self.mu * self.mu, kind="stable")
        return j[order]

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return TWO_PI * self.mode_indices / BOX_LENGTH

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
        x = m * (BOX_LENGTH / self.sites)
        return np.exp(1j * np.outer(x, self.wavenumbers)) / np.sqrt(self.sites)

    @cached_property
    def d_spec(self) -> SpectralDecomposition:
        return _PlaneWaves(self)

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
            raise InvalidParameterError(f"mode label {j} not on this lattice")
        return int(hits[0])


class _PlaneWaves(SpectralDecomposition):
    """A lattice's omega_sq and modes, column c the 1/sqrt(N) DFT vector of bin
    mode_indices[c] % sites: its pair is an FFT gathered or scattered at the bins."""

    def __init__(self, lattice: KleinGordonLattice):
        super().__init__(eigenvalues=lattice.omega_sq, eigenvectors=lattice.modes)
        self._bins = lattice.mode_indices % lattice.sites
        self._columns = np.argsort(self._bins)  # the column at each bin

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(x, norm="ortho")[..., self._bins]

    def synthesize(self, z: np.ndarray) -> np.ndarray:
        return np.fft.ifft(z[..., self._columns], norm="ortho")


def _check_eps(eps: int) -> int:
    if eps not in (1, -1):
        raise InvalidParameterError(f"eps must be +1 or -1, got {eps!r}")
    return eps


def _lattice_solution(lattice: KleinGordonLattice, cols, eps, amps, t: float) -> tuple:
    """(psi, psi_dot) at time t of sum_m amps[..., m] exp(-i eps[m] omega t) phi,
    one term per (canonical column, branch) pair. (rows, terms) amps give
    (rows, sites) stacks from one matrix product; 1-D amps give one state, by
    a vector-matrix product that rounds as the matvec modes[:, cols] @ coeff
    (a many-row product rounds otherwise)."""
    cols = np.asarray(cols, dtype=int)
    freq = np.asarray(eps) * lattice.omegas[cols]
    coeff = np.asarray(amps, dtype=complex) * np.exp(-1j * freq * t)
    vt = lattice.modes[:, cols].T
    return coeff @ vt, (-1j * freq * coeff) @ vt


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
    return FieldState(*_lattice_solution(lattice, cols, eps, list(coeffs.values()), t))


def _band_limited_rows(lattice, k_max: float, rng, t: float, positive_energy: bool, rows) -> tuple:
    """(psi, psi_dot) stacks of random band-limited solutions, leading shape
    `rows` (() for one state), drawn in one call: row-major over `rows`, each
    state's amplitudes in kg_band_limited_solution's order, so the stream is
    that of one such call per state."""
    in_band = np.nonzero(np.abs(lattice.wavenumbers) <= k_max)[0]
    branches = (1,) if positive_energy else (1, -1)
    draws = rng.normal(size=(*rows, in_band.size, len(branches), 2))
    cols, eps = np.repeat(in_band, len(branches)), np.tile(branches, in_band.size)
    amps = (draws[..., 0] + 1j * draws[..., 1]).reshape(*rows, -1)
    return _lattice_solution(lattice, cols, eps, amps, t)


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
    return FieldState(*_band_limited_rows(lattice, k_max, rng, t, positive_energy, ()))


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


def _kg_gram(psi1, dot1, psi2, dot2, lattice: KleinGordonLattice, a: float):
    """Gram matrix of the family product between two row stacks of states.

    (1/2mu) [ <psi1|D^(1/2)|psi2> + <psidot1|D^(-1/2)|psidot2>
              + i a (<psi1|psidot2> - <psidot1|psi2>) ]

    Row r of psi1/dot1 holds state r's (psi, psi_dot), so (k1, sites) and
    (k2, sites) stacks give the (k1, k2) matrix; 1-D vectors give the
    scalar. No checks: the public wrappers below own them.
    """
    c1, e1 = psi1.conj(), dot1.conj()
    sym = c1 @ (lattice.d_half @ psi2.T) + e1 @ (lattice.d_minus_half @ dot2.T)
    skew = c1 @ dot2.T - e1 @ psi2.T
    return (sym + 1j * a * skew) / (2.0 * lattice.mu)


def kg_inner_ri(f1: FieldState, f2: FieldState, lattice: KleinGordonLattice, a: float) -> complex:
    """The one-parameter invariant product (_kg_gram), normalized to
    branch-weight sum 2.

    Positive-definite exactly on the open interval |a| < 1; the boundary is
    rejected. Equals the general-coefficient product with branch weights
    (1 + a, 1 - a).
    """
    if not abs(a) < 1.0:
        raise OutOfFamilyError(f"parameter must satisfy |a| < 1, got a={a}")
    _check_pair(f1, f2, lattice)
    return complex(_kg_gram(f1.psi, f1.psi_dot, f2.psi, f2.psi_dot, lattice, a))


def _woodard_rows(psi1, dot1, psi2, dot2, lattice: KleinGordonLattice):
    """woodard_inner's projection formula, pair by pair, on two (..., sites)
    row stacks of states (1-D vectors give the scalar). No checks."""
    vc = lattice.modes.conj()
    w = lattice.omegas
    # rows times conj(modes) are the mode coordinates V^dagger psi
    c1, d1, c2, d2 = psi1 @ vc, dot1 @ vc, psi2 @ vc, dot2 @ vc
    c1_plus = 0.5 * (c1 + 1j * d1 / w)
    c1_minus = 0.5 * (c1 - 1j * d1 / w)
    c2_plus = 0.5 * (c2 + 1j * d2 / w)
    c2_minus = 0.5 * (c2 - 1j * d2 / w)
    d2_plus = -1j * w * c2_plus
    d2_minus = 1j * w * c2_minus
    total = np.sum(np.conj(c1_plus) * d2_plus, -1) - np.sum(np.conj(c1_minus) * d2_minus, -1)
    return 1j * total / lattice.mu


def woodard_inner(f1: FieldState, f2: FieldState, lattice: KleinGordonLattice) -> complex:
    """The gauge-fixed positive product by spectral projection (_woodard_rows).

    i mu^-1 (<psi1+|psidot2+> - <psi1-|psidot2->) with psi+- the
    frequency-sign parts of each state, each part's velocity fixed by its
    branch (psidot+- = -+ i D^(1/2) psi+-). It equals kg_inner_ri at a = 0,
    (1/2mu) [<psi1|D^(1/2)|psi2> + <psidot1|D^(-1/2)|psidot2>], by an
    independent route, so that agreement can be measured rather than assumed.
    """
    _check_pair(f1, f2, lattice)
    return complex(_woodard_rows(f1.psi, f1.psi_dot, f2.psi, f2.psi_dot, lattice))


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
    _check_state_size(f1.n, lattice.sites)
    _check_state_size(f2.n, lattice.sites)
