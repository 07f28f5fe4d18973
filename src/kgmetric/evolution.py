"""Time evolution for the doubled system and the underlying field equation.

Two integrators:

* ``evolve_schrodinger`` solves i dPsi/dt = H(t) Psi. For constant D it
  samples the exact propagator U(t) = R diag(e^{-iEt}) L^dagger from the
  closed-form biorthonormal eigensystem of H at every recorded time, with no
  stepping. Only a time-dependent D is stepped, with midpoint-rule
  propagators exp(-i dt H(t_mid)) built the same way from the spectral data
  of D(t_mid); the midpoint sampling is the only error source (second
  order).
* ``evolve_field`` integrates psi'' + D(t) psi = 0 by classical fixed-step
  RK4 on (psi, psi_dot), an independent route used to cross-check the
  doubled evolution and to feed the drift monitors. ``evolve_fields`` runs
  several initial states through the same loop, building each D(t) once.

Both guard against blow-up (pseudo-real spectra can grow exponentially) and
record samples along the way.

Every operator source here (integrators and ``drift_report`` alike) is a
matrix or a SpectralDecomposition, which is constant and converted once, or
a callable t -> either, which is time-dependent and queried as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteStateError,
    ZeroStepsError,
)
from .spectral import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectralDecomposition,
    hermitian_eigendecompose,
)
from .inner_products import _field_inner
from .two_component import FieldState, TwoComponentState, _field_data, eigen_system

BLOWUP_LIMIT = 1e12

MONITOR_NAMES = ("solution_inner", "kg_inner", "frozen_inner")


@dataclass
class EvolutionResult:
    """Doubled-state trajectory with its accumulated propagator."""

    times: np.ndarray
    state_matrix: np.ndarray  # (n_samples, 2n)
    lam: float
    propagator_samples: np.ndarray | None = None  # (n_samples, 2n, 2n)
    drift: dict | None = None
    # full-interval U: an array, or a zero-argument builder run on first read
    _propagator: object = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def propagator(self) -> np.ndarray:
        """Full-interval propagator U(t1, t0), shape (2n, 2n)."""
        if callable(self._propagator):
            self._propagator = self._propagator()
        return self._propagator

    def state(self, i: int) -> TwoComponentState:
        return TwoComponentState.from_vector(self.state_matrix[i], self.lam)

    @property
    def samples(self) -> list:
        """(t, TwoComponentState) pairs for every recorded sample."""
        return [(float(t), self.state(i)) for i, t in enumerate(self.times)]


@dataclass
class FieldTrajectory:
    """Sampled field data along an integration."""

    times: np.ndarray
    psis: np.ndarray  # (n_samples, n)
    psi_dots: np.ndarray  # (n_samples, n)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def n(self) -> int:
        return self.psis.shape[1]

    def state(self, i: int) -> FieldState:
        return FieldState(self.psis[i], self.psi_dots[i])

    def at_time(self, t: float, atol: float = 1e-9) -> FieldState:
        """Sample closest to t; raises if none lies within atol."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > atol:
            raise ValueError(
                f"no sample at t={t} (closest is {self.times[i]}, atol {atol})"
            )
        return self.state(i)


@dataclass
class MonitorSeries:
    """One monitored product along a trajectory."""

    values: np.ndarray
    deviations: np.ndarray
    max_deviation: float


@dataclass
class DriftTable:
    """Per-monitor drift relative to the initial value."""

    monitors: dict

    @property
    def max_deviation(self) -> float:
        if not self.monitors:
            return 0.0
        return max(series.max_deviation for series in self.monitors.values())


def _check_steps(steps) -> int:
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ZeroStepsError(f"steps must be a positive integer, got {steps!r}")
    return int(steps)


def _as_spectral(d, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral data of one D value (matrix or SpectralDecomposition)."""
    if isinstance(d, SpectralDecomposition):
        return d
    return hermitian_eigendecompose(np.asarray(d, dtype=complex), tol)


def _as_matrix(d) -> np.ndarray:
    """Dense matrix of one D value (matrix or SpectralDecomposition)."""
    if isinstance(d, SpectralDecomposition):
        return d.matrix()
    return np.asarray(d, dtype=complex)


def _source(d_of_t, convert):
    """Normalize a D source to (t -> convert(D(t)), is_constant).

    A callable is time-dependent and converted at every query; any other
    source is constant and converted once.
    """
    if callable(d_of_t):
        return (lambda t: convert(d_of_t(t))), False
    const = convert(d_of_t)
    return (lambda t: const), True


def _guard(vec: np.ndarray, t: float) -> None:
    peak = float(np.max(np.abs(vec))) if vec.size else 0.0
    if not np.isfinite(peak) or peak > BLOWUP_LIMIT:
        raise NonFiniteStateError(
            f"state blew past {BLOWUP_LIMIT:.0e} at t={t:.6g} (max {peak:.3e})"
        )


def _propagators(system: BiorthonormalSystem, elapsed) -> np.ndarray:
    """exp(-i t H) = R diag(e^{-iEt}) L^dagger for a time t or an array of them
    (stacked along the leading axis)."""
    phases = np.exp(-1j * np.multiply.outer(elapsed, system.energies))
    return (system.right_vectors * phases[..., None, :]) @ system.left_vectors.conj().T


def _step_propagator(
    spec: SpectralDecomposition, lam: float, dt: float, allow_complex: bool
) -> np.ndarray:
    """exp(-i dt H) from the closed-form eigensystem of H."""
    return _propagators(eigen_system(spec, lam, allow_complex=allow_complex), dt)


def _recorded(k, steps: int, sample_every: int):
    """Whether step k is recorded: every sample_every-th step and the last."""
    return (k % sample_every == 0) | (k == steps)


# rows of sampled states formed per batch, so a long run's work array stays
# near 2**16 complex entries whatever the step count
_BATCH_ENTRIES = 2**16


def _evolve_closed_form(
    spec: SpectralDecomposition,
    psi0: TwoComponentState,
    t0: float,
    dt: float,
    steps: int,
    sample_every: int,
    store_propagators: bool,
    allow_complex: bool,
) -> EvolutionResult:
    """Constant D: Psi(t0 + k dt) = R (c * e^{-iE k dt}) with c = L^dagger Psi0.

    Every step's state is formed, in batches, so the blow-up guard sees the
    same states the stepping loop would; only the recorded ones are kept.
    """
    system = eigen_system(spec, psi0.lam, allow_complex=allow_complex)
    coeff = system.left_vectors.conj().T @ psi0.vector
    right_t = system.right_vectors.T
    recorded = [np.zeros(1, dtype=int)]
    rows = [psi0.vector[None, :]]
    batch = max(1, _BATCH_ENTRIES // right_t.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, steps + 1, batch):
            k = np.arange(lo, min(lo + batch, steps + 1))
            phases = np.exp(-1j * np.multiply.outer(k * dt, system.energies))
            block = (phases * coeff) @ right_t
            peaks = np.max(np.abs(block), axis=1)
            bad = np.nonzero(~(peaks <= BLOWUP_LIMIT))[0]
            if bad.size:
                _guard(block[bad[0]], t0 + k[bad[0]] * dt)
            keep = _recorded(k, steps, sample_every)
            recorded.append(k[keep])
            rows.append(block[keep])
    recorded = np.concatenate(recorded)

    # built on first read unless the samples already hold it
    full = partial(_step_propagator, spec, psi0.lam, steps * dt, allow_complex)
    props = None
    if store_propagators:
        props = _propagators(system, recorded * dt)
        props[0] = np.eye(2 * psi0.n, dtype=complex)
        full = props[-1]

    return EvolutionResult(
        times=t0 + recorded * dt,
        state_matrix=np.concatenate(rows),
        lam=psi0.lam,
        propagator_samples=props,
        _propagator=full,
    )


def evolve_schrodinger(
    d_of_t,
    psi0: TwoComponentState,
    t0: float,
    t1: float,
    steps: int,
    tol: float = DEFAULT_TOL,
    sample_every: int = 1,
    store_propagators: bool = False,
    allow_complex: bool = False,
) -> EvolutionResult:
    """Propagate the doubled system over the grid t0 + k (t1 - t0) / steps.

    Parameters
    ----------
    d_of_t : matrix, SpectralDecomposition, or callable t -> either
        The spatial operator source. A constant source (matrix or
        SpectralDecomposition) is diagonalized once and every recorded state
        is sampled from the exact propagator R diag(e^{-iEt}) L^dagger, with
        no stepping. A callable is treated as time-dependent: it is
        re-diagonalized at each step midpoint and stepped with the midpoint
        rule.
    psi0 : TwoComponentState
        Initial doubled state; its lam fixes the Hamiltonian packing.
    steps : int
        Number of equal steps from t0 to t1 (ZeroStepsError if < 1).
    sample_every : int
        Record every k-th step (the endpoint is always recorded).
    store_propagators : bool
        Also record the propagator from t0 at each sample.

    Returns
    -------
    EvolutionResult
        samples (the first is psi0 itself), the full-interval propagator
        U(t1, t0) and optionally per-sample propagators. For constant D the
        propagator is exact and is built on first read; for time-dependent D
        it is the ordered product of the step exponentials.

    Raises NonFiniteStateError as soon as the state at any step (recorded
    or not) leaves the blow-up bound.
    """
    steps = _check_steps(steps)
    sample_every = max(1, int(sample_every))
    source, constant = _source(d_of_t, partial(_as_spectral, tol=tol))
    dt = (t1 - t0) / steps
    if constant:
        return _evolve_closed_form(
            source(t0), psi0, t0, dt, steps, sample_every, store_propagators, allow_complex
        )

    u_total = np.eye(2 * psi0.n, dtype=complex)
    vec = psi0.vector.copy()
    times = [t0]
    states = [vec.copy()]
    props = [u_total.copy()] if store_propagators else None
    for k in range(1, steps + 1):
        t_mid = t0 + (k - 0.5) * dt
        u_step = _step_propagator(source(t_mid), psi0.lam, dt, allow_complex)
        vec = u_step @ vec
        u_total = u_step @ u_total
        t_k = t0 + k * dt
        _guard(vec, t_k)
        if _recorded(k, steps, sample_every):
            times.append(t_k)
            states.append(vec.copy())
            if props is not None:
                props.append(u_total.copy())

    return EvolutionResult(
        times=np.asarray(times, dtype=float),
        state_matrix=np.asarray(states),
        lam=psi0.lam,
        propagator_samples=np.asarray(props) if props is not None else None,
        _propagator=u_total,
    )


def evolve_field(
    d_of_t,
    f0: FieldState,
    t0: float,
    t1: float,
    steps: int,
    sample_every: int = 1,
) -> FieldTrajectory:
    """Classical RK4 for psi'' + D(t) psi = 0 on stacked (psi, psi_dot).

    An integration route independent of the doubled propagator: no spectral
    data is used, only D(t) matrix-vector products at the RK4 stage times.
    Fourth-order accurate in the step; blow-up guarded at 1e12.
    """
    return evolve_fields(d_of_t, [f0], t0, t1, steps, sample_every)[0]


def evolve_fields(
    d_of_t,
    states,
    t0: float,
    t1: float,
    steps: int,
    sample_every: int = 1,
) -> list:
    """``evolve_field`` for several initial FieldStates on one time grid.

    The states ride as the columns of one (n, k) block, so each D(t) is
    built once per RK4 stage time for all of them, and the end-of-step
    operator is reused as the start of the next step. Returns one
    FieldTrajectory per state, in order.
    """
    steps = _check_steps(steps)
    sample_every = max(1, int(sample_every))
    source, _ = _source(d_of_t, _as_matrix)
    dt = (t1 - t0) / steps

    psi = np.stack([f.psi for f in states], axis=1).astype(complex)
    dot = np.stack([f.psi_dot for f in states], axis=1).astype(complex)
    times = [t0]
    psis = [psi]
    dots = [dot]

    d0 = source(t0)
    for k in range(1, steps + 1):
        t_prev = t0 + (k - 1) * dt
        t_k = t0 + k * dt
        d_mid = source(t_prev + 0.5 * dt)
        d1 = source(t_k)
        # k1..k4 on y = (psi, dot), y' = (dot, -D(t) psi)
        k1p = dot
        k1d = -(d0 @ psi)
        k2p = dot + 0.5 * dt * k1d
        k2d = -(d_mid @ (psi + 0.5 * dt * k1p))
        k3p = dot + 0.5 * dt * k2d
        k3d = -(d_mid @ (psi + 0.5 * dt * k2p))
        k4p = dot + dt * k3d
        k4d = -(d1 @ (psi + dt * k3p))
        psi = psi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        dot = dot + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        d0 = d1
        _guard(psi, t_k)
        _guard(dot, t_k)
        if _recorded(k, steps, sample_every):
            times.append(t_k)
            psis.append(psi)
            dots.append(dot)

    times = np.asarray(times, dtype=float)
    psis = np.asarray(psis)  # (n_samples, n, k)
    dots = np.asarray(dots)
    return [
        FieldTrajectory(
            times=times,
            psis=np.ascontiguousarray(psis[:, :, j]),
            psi_dots=np.ascontiguousarray(dots[:, :, j]),
        )
        for j in range(psis.shape[2])
    ]


def field_trajectory(result: EvolutionResult) -> FieldTrajectory:
    """Unpack a doubled-system run into field samples."""
    n = result.state_matrix.shape[1] // 2
    psis, psi_dots = _field_data(
        result.state_matrix[:, :n], result.state_matrix[:, n:], result.lam
    )
    return FieldTrajectory(times=result.times, psis=psis, psi_dots=psi_dots)


def _deviations(values: np.ndarray) -> tuple[np.ndarray, float]:
    v0 = values[0]
    scale = abs(v0) if abs(v0) > 1e-12 else 1.0
    dev = np.abs(values - v0) / scale
    return dev, float(np.max(dev))


def drift_report(
    traj: FieldTrajectory,
    d_spec,
    spec,
    monitors=("solution_inner",),
    traj2: FieldTrajectory | None = None,
    lam: float = 1.0,
) -> DriftTable:
    """Track inner products along a trajectory (pair) against their t0 value.

    Parameters
    ----------
    traj, traj2 : FieldTrajectory
        The monitored pair; traj2 defaults to traj (self products).
    d_spec : matrix, SpectralDecomposition, or callable t -> either
        The operator source, in the same forms the integrators take. A
        constant source is diagonalized once and every sample is evaluated
        in one batch; a callable makes ``solution_inner`` instantaneous
        (re-evaluated at each sample time) while ``frozen_inner`` stays
        pinned to the t0 operator.
    monitors : iterable of {"solution_inner", "kg_inner", "frozen_inner"}

    Deviation is relative to the t0 value, falling back to absolute when the
    t0 value is below 1e-12 in magnitude. Raises the errors of
    ``solution_inner`` (size, spec length, non-positive spectrum).
    """
    other = traj if traj2 is None else traj2
    if other.n != traj.n or len(other) != len(traj):
        raise DimensionMismatchError("trajectories must share shape and sampling")
    names = tuple(monitors)
    for name in names:
        if name not in MONITOR_NAMES:
            raise ValueError(f"unknown monitor {name!r}; pick from {MONITOR_NAMES}")

    spec_at, constant = _source(d_spec, _as_spectral)
    data = (traj.psis, traj.psi_dots, other.psis, other.psi_dots)
    table = {}
    if "solution_inner" in names or "frozen_inner" in names:
        if constant:
            sol_values = _field_inner(*data, spec_at(traj.times[0]), spec)
        else:
            sol_values = np.array(
                [
                    _field_inner(*(x[i] for x in data), spec_at(t), spec)
                    for i, t in enumerate(traj.times)
                ]
            )
        if "solution_inner" in names:
            dev, peak = _deviations(sol_values)
            table["solution_inner"] = MonitorSeries(sol_values, dev, peak)
        if "frozen_inner" in names:
            frozen = np.full(len(traj), sol_values[0])
            dev, peak = _deviations(frozen)
            table["frozen_inner"] = MonitorSeries(frozen, dev, peak)
    if "kg_inner" in names:
        kg_values = 2j * lam * (
            np.sum(np.conj(traj.psis) * other.psi_dots, axis=1)
            - np.sum(np.conj(traj.psi_dots) * other.psis, axis=1)
        )
        dev, peak = _deviations(kg_values)
        table["kg_inner"] = MonitorSeries(kg_values, dev, peak)
    return DriftTable(table)
