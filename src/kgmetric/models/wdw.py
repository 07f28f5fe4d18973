"""FRW minisuperspace with a massive scalar field, alpha = ln(scale factor).

The constraint equation has the wave form psi'' + D(alpha) psi = 0 in alpha,
with D(alpha) = -d^2/dphi^2 + m^2 e^(6 alpha) phi^2 - kappa e^(4 alpha): a
harmonic well in the matter variable phi whose width tightens as the
universe grows, rigidly shifted by the curvature term. Its exact spectrum is

    w_n(alpha) = m e^(3 alpha) (2n + 1) - kappa e^(4 alpha),  n = 0, 1, ...

with the scaled Hermite functions as eigenfunctions. For kappa = +1 the
spectrum loses positivity once e^alpha reaches m, which is what limits the
invariant-product construction to the e^alpha < m regime.

The truncated basis is re-anchored: the model works in the N lowest
eigenfunctions of D(alpha0), where phi^2 and -d^2/dphi^2 are pentadiagonal,
and takes D(alpha) there as its exact Galerkin projection P D(alpha) P,
whose eigenvalues bound the w_n(alpha) from above. The change-of-basis
overlaps, by Gauss-Hermite quadrature (exact for the polynomial degrees a
desk-scale truncation meets), are an independent route to the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ..errors import InvalidParameterError, NonPositiveSpectrumError, NotHermitianError
from ..evolution import AffineSource
from ..inner_products import _check_state_size
from ..spectral import SpectralDecomposition, _as_array
from ..two_component import FieldState

ALL_POSITIVE = "all_positive"
HAS_ZERO_MODE = "has_zero_mode"
HAS_NEGATIVE = "has_negative"

# phi-grid size of the finite-difference cross-check (wdw_numeric_crosscheck
# takes another size as an argument), and the half-width of its box
GRID = 256
BOX_HALF_WIDTH = 10.0
# least Gauss-Hermite node count of the overlap integrals (one a mode past it)
QUAD_NODES = 64
# natural log of half the largest float: a sum of two terms below it is finite
_LOG_HALF_MAX = math.log(np.finfo(float).max / 2.0)
# natural log of a third of the largest float: so is a sum of three
_LOG_THIRD_MAX = math.log(np.finfo(float).max / 3.0)
# natural log of the smallest normal float
_LOG_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class WdwFrwModel:
    """FRW minisuperspace parameters and basis truncation.

    mass: scalar-field mass m > 0 (natural units).
    kappa: spatial curvature, -1, 0, or +1.
    alpha0: anchor value of alpha (the initial "time"); the truncated basis
        is the eigenbasis of D(alpha0).
    modes: truncation count N of the Hermite basis.

    The cross-check grid (GRID, BOX_HALF_WIDTH) and the least quadrature
    order (QUAD_NODES) are module constants.
    """

    mass: float = 1.0
    kappa: int = 0
    alpha0: float = 0.0
    modes: int = 8

    def __post_init__(self):
        if not self.mass > 0.0:
            raise InvalidParameterError(f"mass must be positive, got {self.mass}")
        if self.kappa not in (-1, 0, 1):
            raise InvalidParameterError(f"kappa must be -1, 0, or +1, got {self.kappa}")
        if self.modes < 1:
            raise InvalidParameterError(f"need at least one mode, got {self.modes}")

    def basis_scale(self, alpha: float) -> float:
        """Width parameter s of the instantaneous Hermite basis h_n(s phi);
        NotHermitianError past ``_alpha_limit``, where the spectrum s^2 (2n + 1)
        would overflow, and NonPositiveSpectrumError below ``_alpha_floor``,
        where s^2 underflows."""
        self._check_range(alpha)
        return float(np.sqrt(self.mass) * np.exp(1.5 * alpha))

    def omega_sq(self, alpha: float) -> np.ndarray:
        """Exact spectrum w_n(alpha), n < modes; NotHermitianError past
        ``_alpha_limit``, where it would overflow, and NonPositiveSpectrumError
        below ``_alpha_floor``, where it would underflow to zero."""
        self._check_range(alpha)
        n = np.arange(self.modes)
        return self.mass * np.exp(3.0 * alpha) * (2 * n + 1) - self.kappa * np.exp(
            4.0 * alpha
        )

    @cached_property
    def _alpha_limit(self) -> float:
        """Least alpha at which a term of omega_sq, m e^(3 alpha) (2N - 1) or
        e^(4 alpha), reaches half the float range. A scalar test against it
        keeps the per-call cost of omega_sq and raises before numpy warns."""
        log_top = math.log(self.mass * (2 * self.modes - 1))
        return min((_LOG_HALF_MAX - log_top) / 3.0, _LOG_HALF_MAX / 4.0)

    @cached_property
    def _alpha_floor(self) -> float:
        """Alpha at which m e^(3 alpha), the scale of omega_sq and the squared
        basis scale, or its factor e^(3 alpha) falls below the smallest normal
        float."""
        return (_LOG_TINY - min(math.log(self.mass), 0.0)) / 3.0

    def _check_floor(self, alpha: float) -> None:
        if alpha < self._alpha_floor:
            raise NonPositiveSpectrumError(f"spectrum at alpha={alpha} underflows to zero")

    def _check_range(self, alpha: float) -> None:
        self._check_floor(alpha)
        if not alpha < self._alpha_limit:  # NaN alpha fails too
            raise NotHermitianError(f"spectrum at alpha={alpha} is not finite")

    def overlap_matrix(self, alpha_a: float, alpha_b: float) -> np.ndarray:
        """Overlaps B[m, n] = <basis_m(alpha_a) | basis_n(alpha_b)>.

        Both bases are scaled Hermite functions; pulling the two Gaussians
        into a single weight exp(-u^2) leaves a polynomial integrand, so
        Gauss-Hermite quadrature with Q nodes is exact while
        m + n <= 2Q - 1, so Q is the larger of QUAD_NODES and the mode count.
        """
        nodes, weights = _gauss_hermite(max(QUAD_NODES, self.modes))
        s_a = self.basis_scale(alpha_a)
        s_b = self.basis_scale(alpha_b)
        sigma = np.sqrt(0.5 * (s_a * s_a + s_b * s_b))
        table = _hermite_poly_table(self.modes, np.stack([s_a * nodes, s_b * nodes]) / sigma)
        pa, pb = table[:, 0], table[:, 1]
        return (np.sqrt(s_a * s_b) / sigma) * ((pa * weights) @ pb.T)

    @cached_property
    def _galerkin(self) -> tuple:
        """K = P(-d^2/dphi^2)P, V0 = P m^2 e^(6 alpha0) phi^2 P and I in the
        anchor basis, and the least alpha at which d_anchored would overflow.

        In u = s0 phi, with the ladder matrix a on N + 2 modes, u and d/du
        are (a +- a^T)/sqrt(2); their squares are pentadiagonal, so the
        N x N cut of each product is exact. Entries of K and V0 stay below
        s0^2 (2N - 1)/2, a quarter of the float range (``_alpha_limit``).
        """
        s0_sq = self.basis_scale(self.alpha0) ** 2
        n = self.modes
        ladder = np.diag(np.sqrt(np.arange(1.0, n + 2)), 1)
        u, du = (ladder + ladder.T) / math.sqrt(2.0), (ladder - ladder.T) / math.sqrt(2.0)
        kinetic = -s0_sq * (du @ du)[:n, :n]
        potential = s0_sq * (u @ u)[:n, :n]
        # below it, e^(6 (alpha - alpha0)) V0 and e^(4 alpha) I stay under a
        # third of the float range, so their sum with K is finite
        log_v0 = math.log(np.max(np.abs(potential)))
        limit = min(self.alpha0 + (_LOG_THIRD_MAX - log_v0) / 6.0, _LOG_THIRD_MAX / 4.0)
        return kinetic, potential, np.eye(n), limit

    @property
    def anchored(self) -> AffineSource:
        """Galerkin projection P D(alpha) P in the basis anchored at alpha0,
        K + e^(6 (alpha - alpha0)) V0 - kappa e^(4 alpha) I: terms (K, V0, I);
        uncached, as a cached source would hold its model in a reference cycle."""
        return AffineSource(np.stack(self._galerkin[:3]), self._anchored_coefficients)

    def _anchored_coefficients(self, alphas: np.ndarray) -> np.ndarray:
        """Rows (1, e^(6 (alpha - alpha0)), -kappa e^(4 alpha)) at a 1-D alpha
        array, by math.exp (np.exp differs in the last bit at some alphas).
        Raises, at the first failing alpha, NotHermitianError where an entry of
        D would leave the float range and NonPositiveSpectrumError below
        ``_alpha_floor``; only a failing array is walked alpha by alpha."""
        limit = self._galerkin[-1]
        # NaN fails both comparisons
        if not (np.all(alphas >= self._alpha_floor) and np.all(alphas < limit)):
            for a in alphas.tolist():
                self._check_floor(a)
                if not a < limit:
                    raise NotHermitianError(f"anchored operator at alpha={a} is not finite")
        c = np.ones((alphas.size, 3))
        c[:, 1] = list(map(math.exp, (6.0 * (alphas - self.alpha0)).tolist()))
        c[:, 2] = list(map(math.exp, (4.0 * alphas).tolist()))
        c[:, 2] *= -self.kappa
        return c

    def d_anchored(self, alpha) -> np.ndarray:
        """``anchored`` at alpha: one (N, N) matrix for a float, their (k, N, N)
        stack, bit for bit, for a 1-D array. Equal to diag(omega_sq(alpha0)) at
        alpha0, up to rounding; elsewhere its eigenvalues are Rayleigh-Ritz
        upper bounds on the lowest N exact w_n(alpha)."""
        d = self.anchored.at(np.atleast_1d(a := _as_array(alpha, "alpha")))
        return d if a.ndim else d[0]


@cache
def _gauss_hermite(order: int) -> tuple:
    """Nodes and weights of Gauss-Hermite quadrature of this order, computed
    on first use and shared by every model."""
    return np.polynomial.hermite.hermgauss(order)


def _hermite_poly_table(n_max: int, u: np.ndarray) -> np.ndarray:
    """Rows p_n(u) with h_n(u) = p_n(u) exp(-u^2/2) the normalized Hermite
    functions; the normalized recurrence keeps values O(1). u may have any
    shape; the table has shape (n_max,) + u.shape."""
    u = np.asarray(u, dtype=float)
    table = np.empty((n_max,) + u.shape)
    table[0] = np.pi**-0.25
    if n_max > 1:
        table[1] = np.sqrt(2.0) * u * table[0]
    for n in range(2, n_max):
        table[n] = np.sqrt(2.0 / n) * u * table[n - 1] - np.sqrt(
            (n - 1) / n
        ) * table[n - 2]
    return table


def hermite_function_table(n_max: int, u: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_n(u), rows n = 0..n_max-1."""
    u = np.asarray(u, dtype=float)
    return _hermite_poly_table(n_max, u) * np.exp(-0.5 * u * u)


def wdw_operator(model: WdwFrwModel, alpha: float) -> SpectralDecomposition:
    """D(alpha) in its own instantaneous eigenbasis: exact eigenvalues,
    identity eigenvectors. The sign of the spectrum is reported as-is."""
    return SpectralDecomposition(
        eigenvalues=model.omega_sq(alpha),
        eigenvectors=np.eye(model.modes, dtype=complex),
    )


def wdw_positivity(model: WdwFrwModel, alpha: float) -> str:
    """Classify the spectrum at alpha by its minimum entry w_0.

    Open and flat universes (kappa <= 0) are always positive; the closed
    one crosses zero exactly at e^alpha = m. Raises NotHermitianError where
    w_0 overflows (e^alpha past the float range), as the grid stencil does,
    and NonPositiveSpectrumError below ``WdwFrwModel._alpha_floor``, where
    the spectrum underflows to zero.
    """
    model._check_floor(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = model.mass * np.exp(3.0 * alpha) - model.kappa * np.exp(4.0 * alpha)
    if not np.isfinite(w0):
        raise NotHermitianError(f"spectrum at alpha={alpha} is not finite (w_0 = {w0})")
    if w0 > 0.0:
        return ALL_POSITIVE
    if w0 == 0.0:
        return HAS_ZERO_MODE
    return HAS_NEGATIVE


def wdw_invariant_inner(f1: FieldState, f2: FieldState, model: WdwFrwModel) -> complex:
    """Frozen invariant product (1/2)(<psi1|psi2> + <psidot1|D^-1|psidot2>)
    with the operator pinned at the anchor alpha0.

    States live in the anchor eigenbasis, where D(alpha0) is diagonal with
    the exact eigenvalues. Requires a positive spectrum there.
    """
    alpha = model.alpha0
    if wdw_positivity(model, alpha) != ALL_POSITIVE:
        raise NonPositiveSpectrumError(
            f"spectrum at alpha={alpha} is not positive "
            f"({wdw_positivity(model, alpha)}); no positive product exists there"
        )
    for f in (f1, f2):
        _check_state_size(f.n, model.modes)
    w = model.omega_sq(alpha)
    return complex(
        0.5
        * (
            np.sum(np.conj(f1.psi) * f2.psi)
            + np.sum(np.conj(f1.psi_dot) * f2.psi_dot / w)
        )
    )


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrix with this diagonal and off-diagonal."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@dataclass
class WdwCrosscheckReport:
    """Analytic spectrum vs a finite-difference phi-grid diagonalization."""

    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    grid: int


def wdw_numeric_crosscheck(
    model: WdwFrwModel, alpha: float | None = None, grid: int | None = None
) -> WdwCrosscheckReport:
    """Diagonalize the phi-grid discretization of D(alpha) and compare.

    Second-order central differences on the interior points of
    |phi| <= BOX_HALF_WIDTH with Dirichlet walls, on `grid` points (GRID by
    default). The lowest `modes` eigenvalues of the real tridiagonal stencil
    are compared to the exact ones, each relative to its own size; a mode
    whose exact eigenvalue is zero is measured against the largest exact
    eigenvalue in magnitude. This only measures: the `wdw` report's
    ``spectrum-grid-crosscheck`` check holds the largest error to 5%.

    The stencil is even in phi, so its spectrum is the union of an even and
    an odd block of half the size, built from the diagonal's first half and
    the off-diagonal e = -1/h^2. On a grid of 2M points both are the leading
    M x M block, with e added to (even) or taken from (odd) its last
    diagonal entry, solved in one stacked call. On 2M + 1 points the even
    block is the leading (M + 1) x (M + 1) one with sqrt(2) e as its last
    off-diagonal entry, and the odd block the leading M x M one.
    """
    if alpha is None:
        alpha = model.alpha0
    if grid is None:
        grid = GRID
    if grid < model.modes:
        raise InvalidParameterError(f"grid {grid} cannot resolve {model.modes} modes")
    box = BOX_HALF_WIDTH
    # the stencil's factors m^2 and e^(6 alpha), and its largest term, as logs
    log_m2 = 2.0 * math.log(model.mass)
    log_terms = (log_m2, 6.0 * alpha, log_m2 + 6.0 * alpha + 2.0 * math.log(box))
    if not all(t < _LOG_HALF_MAX for t in log_terms):  # NaN alpha fails too
        raise NotHermitianError(f"grid stencil at alpha={alpha} has non-finite entries")
    h = 2.0 * box / (grid + 1)
    half = (grid + 1) // 2
    phi = -box + h * np.arange(1, half + 1)
    diag = 2.0 / h**2 + (model.mass**2) * np.exp(6.0 * alpha) * phi**2 - (
        model.kappa * np.exp(4.0 * alpha)
    )
    e = -1.0 / h**2
    if grid % 2:
        off = np.full(half - 1, e)
        off[-1:] *= math.sqrt(2.0)
        blocks = (_tridiagonal(diag, off), _tridiagonal(diag[:-1], off[:-1]))
        parts = [np.linalg.eigvalsh(b) for b in blocks]
    else:
        pair = np.stack([_tridiagonal(diag, np.full(half - 1, e))] * 2)
        pair[:, -1, -1] += (e, -e)
        parts = [np.linalg.eigvalsh(pair).ravel()]
    numeric = np.sort(np.concatenate(parts))[: model.modes]
    analytic = model.omega_sq(alpha)
    scale = np.abs(analytic)
    scale = np.maximum(np.where(scale == 0.0, np.max(scale), scale), 1e-300)
    rel = np.abs(numeric - analytic) / scale
    return WdwCrosscheckReport(
        analytic=analytic,
        numeric=numeric,
        rel_errors=rel,
        max_rel_error=float(np.max(rel)),
        grid=grid,
    )
