"""Time evolution for the doubled system and the underlying field equation.

Two integrators:

* ``evolve_schrodinger`` solves i dPsi/dt = H(t) Psi for one state or a
  list. Its evolution is the field flow of psi'' + D psi = 0 in the
  packing's coordinates, built from the per-mode factors of ``_flow``,
  entire in D's eigenvalues, so no doubled eigensystem is formed and D may
  have any sign. A constant D is sampled exactly, per-mode flow factors times
  mode coordinates, synthesized a chunk at once; a time-dependent D is
  stepped by midpoint-rule field maps exp(-i dt H(D(t_mid))), second order,
  acting on the states and on U(t, t0) together.
* ``evolve_field`` integrates psi'' + D(t) psi = 0 by classical fixed-step
  RK4 on y = (psi, psi_dot), for one state or a list riding as the columns
  of one block: an independent route used to cross-check the doubled
  evolution and to feed the drift monitors. RK4 on this linear system is a
  product of step maps M_k built from D at the start, middle and end of
  each step, with no spectral data, a chunk at once (for an AffineSource,
  from its stage coefficients by one matmul). Each step is one matmul,
  y <- y + N_k y with the increment N_k = M_k - I (M_k itself would
  accumulate its rounding coherently; see ``evolve_field``).

All three routes (closed form, midpoint, RK4) run through one chunked
marching loop, ``_march``: each supplies only how a chunk of steps advances
the state. The loop forms the states of a chunk of steps under
``np.errstate``, tests them against the blow-up bound together (a negative
mode of D grows exponentially) and raises at the first step past it,
recorded or not. A source error at a later step of a chunk is therefore
raised before a blow-up earlier in it. Only then does it hand the chunk's
kept states (every sample_every-th step and the last) to a sink. The
integrators' sink, ``_store``, writes them into one array; the constant-D
closed form is one builder, ``_closed_form``, that marches into any sink.

``drift_report`` is the one function that turns a trajectory into drift
numbers, for every report: it follows the positive product
``solution_inner`` (instantaneous when D depends on time) and the indefinite
``kg_inner`` against their t0 values, both by one chunk monitor,
``_drift_monitor``, a bounded chunk of samples at a time. The paper's frozen
product reads only t0 data, so there is nothing of it to follow.
``_closed_form_drift`` is the streamed route for a constant D and a pair of
states: it gives drift_report's numbers for the closed-form trajectory
without holding it, each chunk being synthesized, guarded, unpacked and
measured by the same monitor, then dropped. So the monitor still reads
synthesized states, after the basis-change pair's round trip, never the
flowed mode coordinates.

Every entry point (both integrators and ``drift_report``) reads its operator
source one of two ways. An ``AffineSource`` D(t) = sum_j c_j(t) B_j, the one
time-dependent form, is asked the c_j of a chunk of times in one call, each
entry point checking the states' size against its terms before asking it.
Any other source is one constant (n, n) matrix or SpectralDecomposition,
read by ``_constant``, which checks its shape before any eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    KgMetricError,
    NonFiniteStateError,
    ZeroStepsError,
)
from .spectral import SpectralDecomposition, _as_array, _as_square, hermitian_eigendecompose
from .inner_products import _check_state_size, _field_inner
from .two_component import FieldState, TwoComponentState, _check_pair, _field_data, _nonzero_lam

BLOWUP_LIMIT = 1e12


@dataclass
class EvolutionResult:
    """Doubled-state trajectory with its accumulated propagator."""

    times: np.ndarray
    state_matrix: np.ndarray  # (n_samples, 2n)
    lam: float
    propagator_samples: np.ndarray | None = None  # (n_samples, 2n, 2n)
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


@dataclass
class MonitorSeries:
    """One monitored product along a trajectory."""

    values: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def _grid(t0, t1, steps) -> tuple[int, float]:
    """Step count and length of the grid t0 + k (t1 - t0) / steps, each checked."""
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ZeroStepsError(f"steps must be a positive integer, got {steps!r}")
    if not np.all(np.isfinite([t0, t1])):
        raise InvalidParameterError(f"time bounds must be finite, got t0={t0!r}, t1={t1!r}")
    dt = (float(t1) - float(t0)) / int(steps)  # Python floats overflow to inf quietly
    if not np.isfinite(dt):
        raise InvalidParameterError(f"step (t1 - t0) / steps overflows, t0={t0!r}, t1={t1!r}")
    return int(steps), dt


@dataclass(frozen=True)
class AffineSource:
    """A time-dependent D(t) = sum_j c_j(t) B_j: ``terms`` is the fixed (J, n, n)
    stack of the B_j, and ``coefficients`` maps a 1-D time array to the real
    (k, J) array of the c_j, in one call. ``at`` sums the (k, n, n) stack term
    by term, in order. Any D(t) is one, over a basis of the (n, n) matrices
    (such as the unit matrices of its entries) with its coordinates as c_j.
    Malformed terms or coefficients raise DimensionMismatchError."""

    terms: np.ndarray
    coefficients: object

    def __post_init__(self):
        terms = _as_array(self.terms, "terms")
        if terms.ndim != 3 or not len(terms) or terms.shape[1] != terms.shape[2]:
            raise DimensionMismatchError(f"terms must be (J, n, n) with J >= 1, got {terms.shape}")
        if not callable(self.coefficients):
            raise DimensionMismatchError(
                f"coefficients must map times to an array, got {type(self.coefficients).__name__}"
            )
        object.__setattr__(self, "terms", terms)

    def coefficients_at(self, times: np.ndarray) -> np.ndarray:
        """The c_j at a 1-D time array, a real (k, J) array; else DimensionMismatchError."""
        c = np.asarray(self.coefficients(times))
        want = (times.size, len(self.terms))
        if c.shape != want or c.dtype.kind not in "biuf":
            raise DimensionMismatchError(f"need real {want} coefficients, got {c.dtype} {c.shape}")
        return c.astype(float, copy=False)

    def at(self, times) -> np.ndarray:
        return reduce(np.add, map(np.multiply.outer, self.coefficients_at(times).T, self.terms))


def _constant(d, spectral: bool):
    """A constant D source (a matrix or SpectralDecomposition), checked to be
    one (n, n) operator before any eigensolve (else DimensionMismatchError):
    spectral data if ``spectral``, else a dense float or complex matrix."""
    if isinstance(d, SpectralDecomposition):
        _as_square(d.eigenvectors, "D's eigenvectors")
        return d if spectral else d.matrix()
    d = _as_square(d, "D")
    return hermitian_eigendecompose(d) if spectral else d


def _guard_block(times: np.ndarray, *parts: np.ndarray) -> None:
    """Blow-up guard for a block of steps: parts[p][i] is part p of the state
    at times[i]. Raises NonFiniteStateError at the first step any part leaves
    the bound, naming the peak of the first such part. One peak per part over
    the whole block clears a block within the bound (a NaN fails it); only a
    failing block is searched step by step."""
    if all(np.max(np.abs(p)) <= BLOWUP_LIMIT for p in parts):
        return
    peaks = np.stack([np.max(np.abs(p), axis=tuple(range(1, p.ndim))) for p in parts])
    i = np.nonzero(~np.all(peaks <= BLOWUP_LIMIT, axis=0))[0][0]
    peak = next(x for x in peaks[:, i] if not x <= BLOWUP_LIMIT)
    raise NonFiniteStateError(
        f"state blew past {BLOWUP_LIMIT:.0e} at t={times[i]:.6g} (max {peak:.3e})"
    )


def _flow(w: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Field-flow factors c = cos(sqrt(w) t) and s = sin(sqrt(w) t) / sqrt(w)
    of modes w at times t, w broadcast against t[..., None], entire in w: cosh
    and sinh where w < 0, c = 1 and s = t where w = 0."""
    t = np.asarray(t, dtype=float)[..., None]
    if np.all(w > 0):
        r = np.sqrt(w)
        return np.cos(r * t), np.sin(r * t) / r
    r = np.sqrt(np.abs(w))
    x = r * t
    s = np.where(w > 0, np.sin(x), np.sinh(x)) / np.where(r > 0, r, 1.0)
    return np.where(w > 0, np.cos(x), np.cosh(x)), np.where(r > 0, s, t)


def _field_map(spec: SpectralDecomposition, lam: float, t) -> np.ndarray:
    """exp(-i t H(D)) for D = V diag(w) V^dagger, stacked along t's axes or the
    spectra's: the field map [[C, S], [-D S, C]] in the packing's coordinates,
    [[C - iA, iB], [-iB, C + iA]] with C = V c V^dagger and A, B = V (s (1/lam
    +- lam w) / 2) V^dagger, from the flow factors c, s of ``_flow``."""
    w, v = spec.eigenvalues, spec.eigenvectors
    c, s = _flow(w, t)
    alpha, beta = (1 / lam + lam * w) / 2, (1 / lam - lam * w) / 2
    vh = v.conj().swapaxes(-1, -2)
    cc, a, b = ((v * f[..., None, :]) @ vh for f in (c, s * alpha, s * beta))
    return np.block([[cc - 1j * a, 1j * b], [-1j * b, cc + 1j * a]])


# entries formed per chunk of steps (the chunk's states, or its step maps),
# so a long run's working set is fixed whatever the step count; 2**16 raised
# the traced peak of a wdw report about threefold
_CHUNK_ENTRIES = 2**14


def _store(steps: int, sample_every, y0: np.ndarray, record):
    """The usual sink of ``_march``: the part ``record`` of the state at every
    sample_every-th step (below 1 counts as 1) and at the last, written into
    one array sized up front. Returns those step numbers (0 first), the array
    and the sink."""
    kept = np.append(np.arange(0, steps, max(1, int(sample_every))), steps)
    rows = np.empty((kept.size, *y0[record].shape), dtype=y0.dtype)

    def sink(i, states):
        rows[i : i + len(states)] = states[(slice(None), *record)]

    return kept, rows, sink


def _march(y0, t0, dt, kept, width, advance, parts, sink):
    """The one marching loop of every integrator.

    advance(k, y) returns the states after the consecutive steps k, stacked
    along a new leading axis, given y, the state after step k[0] - 1. The
    steps, up to kept[-1], go in chunks of about _CHUNK_ENTRIES / width: each
    chunk's states are formed under ``np.errstate`` and tested against the
    blow-up bound together, the index tuples ``parts`` picking the parts of a
    state to test, in order. So a source error at a later step of a chunk is
    raised before a blow-up earlier in it. Only then are the chunk's states
    at the step numbers in ``kept`` (ascending, 0 first, the last step last)
    handed to sink(i, states), i being the position of states[0] in kept;
    y0 goes first, alone. The sink may store them (``_store``) or measure
    and drop them. Returns the final state.
    """
    sink(0, y0[None])
    steps, i, y = int(kept[-1]), 1, y0
    chunk = max(1, _CHUNK_ENTRIES // width)
    for lo in range(1, steps + 1, chunk):
        k = np.arange(lo, min(lo + chunk, steps + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            block = advance(k, y)
            _guard_block(t0 + k * dt, *(block[(slice(None), *p)] for p in parts))
        y = block[-1]
        j = int(np.searchsorted(kept, k[-1], side="right"))
        at = kept[i:j] - lo
        sink(i, block if at.size == k.size else block[at])
        i = j
    return y


def _stack_states(states: list) -> tuple[float, np.ndarray]:
    """The common lam of doubled states and their (m, 2n) stack, each checked
    against the first; DimensionMismatchError for an empty list."""
    if not states:
        raise DimensionMismatchError("no states to evolve")
    for s in states[1:]:
        _check_pair(states[0], s)
    return states[0].lam, np.stack([s.vector for s in states])


def _closed_form(spec: SpectralDecomposition, y0, lam, t0, dt, kept, sink):
    """March the (m, 2n) doubled states y0 over the kept steps of length dt
    by ``evolve_schrodinger``'s closed form for the constant D that ``spec``
    resolves, into ``sink``; DimensionMismatchError if the states' size is
    not D's. Returns the final states."""
    m, n = y0.shape[0], y0.shape[1] // 2
    _check_state_size(n, spec.n)
    w = spec.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):  # a huge lam overflows
        # each state's mode coordinates, upper and lower: start on c, rate on s
        start = spec.coordinates(y0.reshape(2 * m, n))
        x, y = start[0::2], start[1::2]
        alpha, beta = (1 / lam + lam * w) / 2, (1 / lam - lam * w) / 2
        rate = 1j * np.stack([beta * y - alpha * x, alpha * y - beta * x], axis=1)
        # per mode, the (2, 2m) coordinates that its (c, s) pair weighs
        coef = np.stack([start, rate.reshape(2 * m, n)], axis=1).transpose(2, 1, 0).copy()
    # a mode no state excites has zero coordinates, so its flow is never read:
    # flowing it as w = 0 keeps an unread cosh from overflowing into inf * 0
    w_flow = np.where(np.any(start != 0, axis=0), w, 0.0)[:, None, None]

    def advance(k, _):
        # per mode, the chunk's real (k, 2) table of c, s times its coordinates
        table = np.concatenate(_flow(w_flow, k * dt), axis=-1)
        z = (table @ coef.view(float)).view(complex).transpose(1, 2, 0)
        return spec.synthesize(z.reshape(-1, n)).reshape(k.size, m, 2 * n)

    # a step's flowed coordinates and its rows are 2n entries a state each
    return _march(y0, t0, dt, kept, 4 * n * m, advance, [()], sink)


def evolve_schrodinger(
    d_of_t,
    psi0: TwoComponentState | list,
    t0: float,
    t1: float,
    steps: int,
    sample_every: int = 1,
    store_propagators: bool = False,
) -> EvolutionResult | list:
    """Propagate the doubled system over the grid t0 + k (t1 - t0) / steps.

    Parameters
    ----------
    d_of_t : matrix, SpectralDecomposition, or AffineSource
        The spatial operator source, of any sign: a negative mode grows as
        cosh until the blow-up bound, a zero mode moves freely. A constant source
        is diagonalized once, D = V diag(w) V^dagger; per mode, a chunk of k steps
        is a real (k, 2) table of c = cos(sqrt(w) t), s = sin(sqrt(w) t) / sqrt(w)
        times the states' coordinates x, y from D's basis-change pair (FFTs for a
        lattice): x, y on c, i (beta y - alpha x), i (alpha y - beta x) on s, alpha,
        beta = (1/lam +- lam w) / 2; the pair synthesizes the rows. An AffineSource
        is asked the midpoints of a chunk of steps in one call, one stacked eigensolve
        diagonalizes it there, and the field map exp(-i dt H(D_mid)) steps one
        (2n, m + 2n) block: the m states (each a matrix-vector product), then U(t, t0).
    psi0 : TwoComponentState, or a list of m of them
        Initial doubled state(s); their common lam fixes the packing.
    steps : int
        Number of equal steps from t0 to t1 (ZeroStepsError if < 1).
    sample_every : int
        Record every k-th step (the endpoint is always recorded).
    store_propagators : bool
        Also record the propagator from t0 at each sample.

    Returns
    -------
    EvolutionResult, or a list of them, one per state, for a list
        samples (the first is psi0 itself), the full-interval propagator
        U(t1, t0) and optionally per-sample propagators. For constant D the
        propagator is the exact field map, built on first read; for
        time-dependent D it is the ordered product of the step maps.

    Raises InvalidParameterError for a non-finite t0 or t1 or an overflowing
    step, DimensionMismatchError for an empty list, a state whose size does not
    match D or the first state, or a malformed source, LambdaMismatchError for states
    of different lam, and NonFiniteStateError at the first step (recorded or
    not) at which a state leaves the blow-up bound. Steps are formed and tested
    in chunks, so a source error at a later step of the same chunk is raised first.
    """
    steps, dt = _grid(t0, t1, steps)
    lam, y0 = _stack_states(psi0 if isinstance(psi0, list) else [psi0])
    m, n = y0.shape[0], y0.shape[1] // 2
    if not isinstance(d_of_t, AffineSource):
        spec = _constant(d_of_t, spectral=True)
        kept, rows, store = _store(steps, sample_every, y0, ())
        _closed_form(spec, y0, lam, t0, dt, kept, store)
        # built on first read from D's spectral data unless the samples hold it
        full = lambda: _field_map(spec, lam, steps * dt)
        props = None
        if store_propagators:
            props = _field_map(spec, lam, kept * dt)
            props[0] = np.eye(2 * n, dtype=complex)
            full = props[-1]
    else:
        _check_state_size(n, d_of_t.terms.shape[-1])  # before the source is asked

        def advance(k, y):
            spec = hermitian_eigendecompose(d_of_t.at(t0 + (k - 0.5) * dt))
            block = np.empty((k.size, *y.shape), dtype=complex)
            for u, row in zip(_field_map(spec, lam, dt), block):
                # each state as a matrix-vector product, as it steps on its own
                for j in range(m):
                    row[:, j] = u @ y[:, j]
                row[:, m:] = u @ y[:, m:]
                y = row
            return block

        y0 = np.concatenate([y0.T, np.eye(2 * n, dtype=complex)], axis=1)
        part = np.index_exp[:, :m]
        record = np.index_exp[...] if store_propagators else part
        kept, rows, store = _store(steps, sample_every, y0, record)
        y = _march(y0, t0, dt, kept, 2 * n * (2 * n + m), advance, [part], store)
        props = np.ascontiguousarray(rows[:, :, m:]) if store_propagators else None
        full = np.ascontiguousarray(y[:, m:])
        rows = np.ascontiguousarray(rows[:, :, :m].swapaxes(1, 2))

    results = [EvolutionResult(t0 + kept * dt, rows[:, j], lam, props, full) for j in range(m)]
    return results if isinstance(psi0, list) else results[0]


def _affine_increments(terms: np.ndarray, h: float):
    """N = M - I for the RK4 step maps M of (psi, dot)' = (dot, -D psi), D =
    sum_j c_j B_j, as a function of the (2k + 1, J) c_j at the stage times t,
    t + h/2, ..., t + k h of k steps of length h; the (k, 2n, 2n) increments
    follow, exactly, as the RK4 stages are linear. Each block sums the B_j and
    B_i B_j (formed here, once), weighted by fixed factors times its step's
    c0, cm, c1, cm_i c0_j and c1_i cm_j: one matmul of these (4k, J + J^2)
    weights against them, then h I upper right. A constant D is one term with
    unit c_j. h is a numpy float: its powers overflow to inf, not an error."""
    j, n = len(terms), terms.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a huge term or h overflows
        flat = np.concatenate([terms, *(terms[:, None] @ terms[None])]).reshape(j + j * j, -1)
        h = np.float64(h)
        h1, h2, h3, h4 = h / 6.0, h * h / 6.0, h**3 / 12.0, h**4 / 24.0
        # columns: the blocks upper left, upper right, lower left, lower right
        linear = [[-h2, 0, -h1, 0], [-2 * h2, -2 * h3, -4 * h1, -2 * h2], [0, 0, -h1, -h2]]
        quadratic = [[h4, 0, h3, 0], [0, 0, h3, h4]]
        weights = np.zeros((3 * j + 2 * j * j, 4, j + j * j))
        weights[: 3 * j, :, :j] = np.kron(linear, np.eye(j)).reshape(3 * j, 4, j)
        weights[3 * j :, :, j:] = np.kron(quadratic, np.eye(j * j)).reshape(-1, 4, j * j)

    def increments(c: np.ndarray) -> np.ndarray:
        k = len(c) // 2
        first, second = c[:-1].reshape(k, 2, j), c[1:].reshape(k, 2, j)  # (c0, cm), (cm, c1)
        pairs = (second[..., :, None] * first[..., None, :]).reshape(k, -1)
        feats = np.concatenate([first.reshape(k, -1), c[2::2], pairs], axis=1)
        # a complex basis is multiplied as its float view, a real gemm
        weighted = (feats @ weights.reshape(len(weights), -1)).reshape(4 * k, -1)
        blocks = (weighted @ flat.view(float)).view(flat.dtype)
        inc = np.empty((k, 2 * n, 2 * n), dtype=flat.dtype)
        inc.reshape(k, 2, n, 2, n)[...] = blocks.reshape(k, 2, 2, n, n).swapaxes(2, 3)
        inc.reshape(k, -1)[:, n : 2 * n * n : 2 * n + 1] += h
        return inc

    return increments


def evolve_field(
    d_of_t,
    f0: FieldState | list,
    t0: float,
    t1: float,
    steps: int,
    sample_every: int = 1,
) -> FieldTrajectory | list:
    """Classical RK4 for psi'' + D(t) psi = 0 on stacked (psi, psi_dot).

    An integration route independent of the doubled propagator: no spectral
    data is used, only D at the RK4 stage times. Fourth-order accurate in
    the step; blow-up guarded at 1e12. ``f0`` is one FieldState, giving one
    FieldTrajectory, or a list, giving one per state, in order; the states
    ride as the columns of one (2n, m) block y = (psi, psi_dot). Each step is
    y <- y + N_k y, where N_k = M_k - I is the increment of the exact RK4
    step map M_k, from D's coefficients at the step's start, middle and end
    (``_affine_increments``). Storing the increment rather than M_k matters:
    the rounding of a stored M_k is the same at every step it is reused, so
    over thousands of steps it adds up coherently (in a 10000- against
    20000-step constant-D run at n = 8 it cut the step-halving ratio of the
    kg_inner drift from 31 to 3.9).

    ``d_of_t`` takes the forms ``evolve_schrodinger`` takes: a constant D is
    one term with unit coefficients, giving one increment a call, and an
    AffineSource a chunk's increments from its coefficients alone (no D
    stack), asked at the chunk's stage times in one call, once per distinct
    time. Each chunk's states are tested against the blow-up bound together,
    raising NonFiniteStateError at the first step past it (psi before
    psi_dot), as stepping would; a source error at a later time in the same
    chunk is raised first.

    Raises InvalidParameterError for a non-finite t0 or t1 or an overflowing step, and
    DimensionMismatchError for an empty list, a state whose size does not match
    D, a constant D that is not one (n, n) operator, or a malformed AffineSource.
    """
    steps, dt = _grid(t0, t1, steps)
    constant = not isinstance(d_of_t, AffineSource)
    d = _constant(d_of_t, spectral=False) if constant else d_of_t.terms
    states = f0 if isinstance(f0, list) else [f0]
    if not states:
        raise DimensionMismatchError("no states to evolve")
    n = d.shape[-1]
    for f in states:
        _check_state_size(f.n, n)
    y0 = np.concatenate(
        [np.stack([f.psi for f in states], axis=1), np.stack([f.psi_dot for f in states], axis=1)]
    )
    if constant:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge D or step overflows
            fixed = _affine_increments(d[None], dt)(np.ones((3, 1)))
    else:  # asked only its coefficients; its terms and their products are fixed
        increments = _affine_increments(d, dt)
        c_prev = d_of_t.coefficients_at(np.array([t0]))  # at the last stage time asked

    def advance(k, y):
        nonlocal c_prev
        if constant:
            incs = np.broadcast_to(fixed, (k.size, *fixed.shape[1:]))
        else:
            stage_times = np.empty(2 * k.size)
            stage_times[0::2] = t0 + (k - 1) * dt + 0.5 * dt
            stage_times[1::2] = t0 + k * dt
            c = np.concatenate([c_prev, d_of_t.coefficients_at(stage_times)])
            c_prev = c[-1:]
            incs = increments(c)
        block = np.empty((k.size, *y.shape), dtype=complex)
        # a real map acts on the real and imaginary parts alike, so it steps
        # their float view, which is cheaper than a mixed matmul; each step is
        # one gemm, and ndarray.dot has less call overhead than np.matmul
        work = block.view(incs.dtype)
        prev = y.view(incs.dtype)
        for inc, row in zip(incs, work):
            inc.dot(prev, out=row)
            row += prev
            prev = row
        return block

    kept, rows, store = _store(steps, sample_every, y0, ())
    _march(y0, t0, dt, kept, (2 * n) ** 2, advance, [np.index_exp[:n], np.index_exp[n:]], store)
    times = t0 + kept * dt
    trajs = [
        FieldTrajectory(
            times=times,
            psis=np.ascontiguousarray(rows[:, :n, j]),
            psi_dots=np.ascontiguousarray(rows[:, n:, j]),
        )
        for j in range(len(states))
    ]
    return trajs if isinstance(f0, list) else trajs[0]


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
    traj2: FieldTrajectory | None = None,
    lam: float = 1.0,
) -> tuple[MonitorSeries, MonitorSeries]:
    """Track inner products along a trajectory (pair) against their t0 value.

    Parameters
    ----------
    traj, traj2 : FieldTrajectory
        The monitored pair; traj2 defaults to traj (self products).
    d_spec : matrix, SpectralDecomposition, or AffineSource
        The operator source, in the forms the integrators take. A constant (n, n)
        source is diagonalized once; an AffineSource makes ``solution_inner``
        instantaneous, on D(t) at each sample time, and is queried at all of them
        in one call, after the trajectory's size is checked against its terms.
        Chunks of _CHUNK_ENTRIES // (2n) samples (psi, psi_dot) bound the temporaries.

    Returns the two monitors ``(solution_inner, kg_inner)``: the positive
    product under ``spec`` and the indefinite product at packing ``lam``.
    Deviation is relative to the t0 value, falling back to absolute when the
    t0 value is below 1e-12 in magnitude. Raises ZeroLambdaError or
    InvalidParameterError for a zero or non-finite ``lam``, the errors of
    ``solution_inner`` (size, spec length, non-positive spectrum), and
    DimensionMismatchError for a malformed source.
    """
    _nonzero_lam(lam)
    other = traj if traj2 is None else traj2
    if other.n != traj.n or len(other) != len(traj):
        raise DimensionMismatchError("trajectories must share shape and sampling")

    if isinstance(d_spec, AffineSource):
        _check_state_size(traj.n, d_spec.terms.shape[-1])  # before the source is asked
        d_at = hermitian_eigendecompose(d_spec.at(traj.times))
    else:
        d_at = _constant(d_spec, spectral=True)
    measure, series = _drift_monitor(d_at, spec, lam, len(traj))
    data = (traj.psis, traj.psi_dots, other.psis, other.psi_dots)
    rows = max(1, _CHUNK_ENTRIES // max(1, 2 * traj.n))
    for at in (slice(i, i + rows) for i in range(0, len(traj), rows)):
        measure(at, *(a[at] for a in data))
    return series()


def _drift_monitor(d_at: SpectralDecomposition, spec, lam: float, samples: int):
    """The one chunk monitor of ``drift_report`` and ``_closed_form_drift``.

    Returns measure(at, psi1, dot1, psi2, dot2), which takes the field data
    of the samples at the slice ``at`` (each (k, n)) and writes both products
    there: ``solution_inner`` under ``spec`` on D, which is d_at, or its
    members at ``at`` if d_at is a stack of one per sample, and ``kg_inner``
    at packing ``lam``. series() then returns the two MonitorSeries.
    """
    values = np.empty((2, samples), dtype=complex)
    stacked = d_at.eigenvalues.ndim > 1

    def measure(at, psi1, dot1, psi2, dot2):
        d = SpectralDecomposition(d_at.eigenvalues[at], d_at.eigenvectors[at]) if stacked else d_at
        values[0, at] = _field_inner(psi1, dot1, psi2, dot2, d, spec)
        values[1, at] = 2j * lam * (
            np.sum(np.conj(psi1) * dot2, axis=-1) - np.sum(np.conj(dot1) * psi2, axis=-1)
        )

    def series() -> tuple[MonitorSeries, MonitorSeries]:
        return tuple(MonitorSeries(v, *_deviations(v)) for v in values)

    return measure, series


def _closed_form_drift(
    d, s1: TwoComponentState, s2: TwoComponentState, t0: float, t1: float, steps: int, spec
) -> tuple[MonitorSeries, MonitorSeries]:
    """drift_report(field_trajectory(r1), d, spec, field_trajectory(r2), lam)
    of r1, r2 = evolve_schrodinger(d, [s1, s2], t0, t1, steps), a constant d,
    every step kept, without holding the trajectory.

    The closed form runs as in ``evolve_schrodinger``: each chunk of steps is
    flowed, synthesized and guarded by ``_march``, and only then unpacked to
    field data and measured by ``drift_report``'s chunk monitor, so the
    monitor reads synthesized states, never the flowed coordinates. A chunk
    is dropped once measured. Raises what the two calls raise, in their
    order: an input the monitor refuses at t0 (a non-positive spectrum, a
    spec of the wrong length) is refused after a march that stores nothing,
    so a blow-up comes first.
    """
    steps, dt = _grid(t0, t1, steps)
    lam, y0 = _stack_states([s1, s2])
    spec_d = _constant(d, spectral=True)
    kept, n = np.arange(steps + 1), y0.shape[1] // 2
    measure, series = _drift_monitor(spec_d, spec, lam, kept.size)

    def sink(i, states):
        psi, dot = _field_data(states[..., :n], states[..., n:], lam)
        measure(slice(i, i + len(states)), psi[:, 0], dot[:, 0], psi[:, 1], dot[:, 1])

    try:
        sink(0, y0[None])
    except KgMetricError:  # refused after the march, as on the stored route
        _closed_form(spec_d, y0, lam, t0, dt, kept, lambda i, states: None)
        raise
    _closed_form(spec_d, y0, lam, t0, dt, kept, sink)
    return series()
