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
eigenfunctions of D(anchor) and expresses D(alpha) there through the
change-of-basis overlaps, computed by Gauss-Hermite quadrature (exact for
the polynomial degrees a desk-scale truncation meets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import NonPositiveSpectrumError, NotHermitianError, UnresolvedBasisError
from ..spectral import SpectralDecomposition
from ..two_component import FieldState

ALL_POSITIVE = "all_positive"
HAS_ZERO_MODE = "has_zero_mode"
HAS_NEGATIVE = "has_negative"


@dataclass(frozen=True)
class WdwFrwModel:
    """FRW minisuperspace parameters and numerical knobs.

    mass: scalar-field mass m > 0 (natural units).
    kappa: spatial curvature, -1, 0, or +1.
    alpha0: anchor value of alpha (the initial "time").
    modes: truncation count N of the Hermite basis.
    grid: phi-grid size for the finite-difference cross-check.
    box_half_width: the cross-check grid spans |phi| <= this.
    quad_nodes: Gauss-Hermite node count for overlap integrals.
    """

    mass: float = 1.0
    kappa: int = 0
    alpha0: float = 0.0
    modes: int = 8
    grid: int = 256
    box_half_width: float = 10.0
    quad_nodes: int = 64

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.kappa not in (-1, 0, 1):
            raise ValueError(f"kappa must be -1, 0, or +1, got {self.kappa}")
        if self.modes < 1:
            raise ValueError(f"need at least one mode, got {self.modes}")
        if self.grid < 3:
            raise ValueError(f"grid must be at least 3, got {self.grid}")
        if self.quad_nodes < 1:
            raise ValueError(f"quad_nodes must be positive, got {self.quad_nodes}")
        if not self.box_half_width > 0.0:
            raise ValueError(f"box_half_width must be positive, got {self.box_half_width}")

    def basis_scale(self, alpha: float) -> float:
        """Width parameter s of the instantaneous Hermite basis h_n(s phi)."""
        return float(np.sqrt(self.mass) * np.exp(1.5 * alpha))

    def omega_sq(self, alpha: float) -> np.ndarray:
        n = np.arange(self.modes)
        return self.mass * np.exp(3.0 * alpha) * (2 * n + 1) - self.kappa * np.exp(
            4.0 * alpha
        )

    @cached_property
    def _quad(self) -> tuple:
        return np.polynomial.hermite.hermgauss(self.quad_nodes)

    def overlap_matrix(self, alpha_a: float, alpha_b: float) -> np.ndarray:
        """Overlaps B[m, n] = <basis_m(alpha_a) | basis_n(alpha_b)>.

        Both bases are scaled Hermite functions; pulling the two Gaussians
        into a single weight exp(-u^2) leaves a polynomial integrand, so
        Gauss-Hermite quadrature with Q nodes is exact while
        m + n <= 2Q - 1.
        """
        nodes, weights = self._quad
        s_a = self.basis_scale(alpha_a)
        s_b = self.basis_scale(alpha_b)
        sigma = np.sqrt(0.5 * (s_a * s_a + s_b * s_b))
        table = _hermite_poly_table(self.modes, np.stack([s_a * nodes, s_b * nodes]) / sigma)
        pa, pb = table[:, 0], table[:, 1]
        return (np.sqrt(s_a * s_b) / sigma) * ((pa * weights) @ pb.T)

    def d_anchored(self, alpha: float, anchor: float | None = None) -> np.ndarray:
        """D(alpha) in the truncated basis anchored at `anchor` (alpha0).

        B diag(w(alpha)) B^T, symmetrized; exact at alpha = anchor and a
        truncation of the true operator elsewhere.
        """
        if anchor is None:
            anchor = self.alpha0
        b = self.overlap_matrix(anchor, alpha)
        d = (b * self.omega_sq(alpha)) @ b.T
        return 0.5 * (d + d.T)

    def d_source(self, anchor: float | None = None):
        """Operator source alpha -> D(alpha) for the integrators."""
        pin = self.alpha0 if anchor is None else anchor
        return lambda a: self.d_anchored(a, anchor=pin)


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
    one crosses zero exactly at e^alpha = m.
    """
    w0 = model.mass * np.exp(3.0 * alpha) - model.kappa * np.exp(4.0 * alpha)
    if w0 > 0.0:
        return ALL_POSITIVE
    if w0 == 0.0:
        return HAS_ZERO_MODE
    return HAS_NEGATIVE


def wdw_invariant_inner(
    f1: FieldState, f2: FieldState, model: WdwFrwModel, alpha: float | None = None
) -> complex:
    """Frozen invariant product (1/2)(<psi1|psi2> + <psidot1|D^-1|psidot2>)
    with the operator pinned at the anchor alpha.

    States live in the anchor eigenbasis, where D(anchor) is diagonal with
    the exact eigenvalues. Requires a positive spectrum there.
    """
    if alpha is None:
        alpha = model.alpha0
    if wdw_positivity(model, alpha) != ALL_POSITIVE:
        raise NonPositiveSpectrumError(
            f"spectrum at alpha={alpha} is not positive "
            f"({wdw_positivity(model, alpha)}); no positive product exists there"
        )
    if f1.n != model.modes or f2.n != model.modes:
        raise ValueError(
            f"states have {f1.n} and {f2.n} components, model holds {model.modes}"
        )
    w = model.omega_sq(alpha)
    return complex(
        0.5
        * (
            np.sum(np.conj(f1.psi) * f2.psi)
            + np.sum(np.conj(f1.psi_dot) * f2.psi_dot / w)
        )
    )


def wdw_instantaneous_inner(
    f1: FieldState,
    f2: FieldState,
    model: WdwFrwModel,
    alpha: float,
    anchor: float | None = None,
) -> complex:
    """Same form as wdw_invariant_inner but with D read off at `alpha`
    (expressed in the anchor basis). Not invariant; the drift of this value
    against the frozen one is exactly what the frozen construction removes.

    Raises NonPositiveSpectrumError where D(alpha) has a zero mode, or where
    the anchored operator is singular.
    """
    if wdw_positivity(model, alpha) == HAS_ZERO_MODE:
        raise NonPositiveSpectrumError(
            f"D has a zero mode at alpha={alpha}; the product needs D^-1 there"
        )
    d = model.d_anchored(alpha, anchor=anchor)
    try:
        sol = np.linalg.solve(d, f2.psi_dot)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveSpectrumError(
            f"anchored operator at alpha={alpha} is singular: {exc}"
        ) from exc
    return complex(0.5 * (np.vdot(f1.psi, f2.psi) + np.vdot(f1.psi_dot, sol)))


@dataclass
class WdwCrosscheckReport:
    """Analytic spectrum vs a finite-difference phi-grid diagonalization."""

    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    grid: int
    box_half_width: float
    alpha: float


def wdw_numeric_crosscheck(
    model: WdwFrwModel, alpha: float | None = None, grid: int | None = None
) -> WdwCrosscheckReport:
    """Diagonalize the phi-grid discretization of D(alpha) and compare.

    Second-order central differences on the interior points of
    |phi| <= box_half_width with Dirichlet walls. The lowest `modes`
    eigenvalues of the real tridiagonal stencil are compared to the exact
    ones, each relative to its own size; a mode whose exact eigenvalue is
    zero is measured against the largest exact eigenvalue in magnitude. If
    the top compared mode is off by more than 5% the basis is declared
    unresolved at this grid.
    """
    if alpha is None:
        alpha = model.alpha0
    if grid is None:
        grid = model.grid
    if grid < model.modes:
        raise ValueError(f"grid {grid} cannot resolve {model.modes} modes")
    box = model.box_half_width
    h = 2.0 * box / (grid + 1)
    phi = -box + h * np.arange(1, grid + 1)
    diag = 2.0 / h**2 + (model.mass**2) * np.exp(6.0 * alpha) * phi**2 - (
        model.kappa * np.exp(4.0 * alpha)
    )
    if not np.all(np.isfinite(diag)):
        raise NotHermitianError(f"grid stencil at alpha={alpha} has non-finite entries")
    fd = np.diag(diag) + np.diag(np.full(grid - 1, -1.0 / h**2), 1) + np.diag(
        np.full(grid - 1, -1.0 / h**2), -1
    )
    numeric = np.linalg.eigvalsh(fd)[: model.modes]
    analytic = model.omega_sq(alpha)
    scale = np.abs(analytic)
    scale = np.maximum(np.where(scale == 0.0, np.max(scale), scale), 1e-300)
    rel = np.abs(numeric - analytic) / scale
    report = WdwCrosscheckReport(
        analytic=analytic,
        numeric=numeric,
        rel_errors=rel,
        max_rel_error=float(np.max(rel)),
        grid=grid,
        box_half_width=box,
        alpha=alpha,
    )
    if rel[-1] > 0.05:
        exc = UnresolvedBasisError(
            f"mode {model.modes - 1} off by {rel[-1]:.2%} at grid {grid}; "
            f"refine the grid or lower the truncation"
        )
        exc.report = report  # keep the measurements available to the caller
        raise exc
    return report
