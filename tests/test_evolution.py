"""Propagation routes, conserved-product drift, and integrator accuracy order."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kgmetric import (
    AffineSource,
    FieldState,
    InnerProductSpec,
    check_pseudo_unitary,
    drift_report,
    eta_plus,
    evolve_field,
    evolve_schrodinger,
    field_trajectory,
    pack,
    solution_inner,
    unpack,
)
from kgmetric.errors import (
    DimensionMismatchError,
    KgMetricError,
    LambdaMismatchError,
    LengthMismatchError,
    NonFiniteStateError,
    NonPositiveSpectrumError,
    ZeroStepsError,
)
from kgmetric.evolution import (
    _CHUNK_ENTRIES,
    BLOWUP_LIMIT,
    _affine_increments,
    _closed_form_drift,
    _field_map,
    _flow,
)
from kgmetric.models.lattice import (
    KleinGordonLattice,
    kg_band_limited_solution,
    kg_mode_solution,
    kg_relativistic_spec,
)
from kgmetric.models.wdw import WdwFrwModel
from kgmetric.rng import generator, random_positive_hermitian, random_state
from kgmetric.spectral import SpectralDecomposition, hermitian_eigendecompose
from kgmetric.two_component import eigen_system


def maxabs(a):
    return float(np.max(np.abs(a)))


def scaled(d, f):
    """D(t) = f(t) d as an AffineSource, f taking the time array."""
    return AffineSource(np.asarray(d)[None], lambda ts: f(ts)[:, None])


def entrywise(d_of_t, n):
    """A Hermitian D(t), given one time a call, as an AffineSource over a real
    basis of the Hermitian (n, n) matrices: E_jj, then E_jk + E_kj and
    i (E_jk - E_kj) for j < k, with coordinates D_jj, Re D_jk and Im D_jk."""
    units = np.eye(n * n).reshape(n, n, n, n)  # units[j, k] = E_jk
    upper = np.triu_indices(n, 1)
    e = units[upper]
    terms = np.concatenate(
        [units[np.diag_indices(n)], e + e.swapaxes(1, 2), 1j * (e - e.swapaxes(1, 2))]
    )

    def coefficients(ts):
        m = np.stack([d_of_t(t) for t in ts.tolist()])
        off = m[:, upper[0], upper[1]]
        return np.concatenate([np.diagonal(m, axis1=1, axis2=2).real, off.real, off.imag], axis=1)

    return AffineSource(terms, coefficients)


def test_unit_operator_half_period_is_minus_identity():
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    result = evolve_schrodinger(np.array([[1.0]]), pack(f0, 1.0), 0.0, np.pi, 50)
    assert maxabs(result.propagator + np.eye(2)) <= 1e-12


def test_constant_operator_propagation_is_exact():
    # constant sources are sampled from the exact propagator: cos(2 t) to roundoff
    omega = 2.0
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    result = evolve_schrodinger(
        np.array([[omega**2]]), pack(f0, 1.0), 0.0, 10.0, 1000, sample_every=100
    )
    for i, t in enumerate(result.times):
        f = unpack(result.state(i))
        assert abs(f.psi[0] - np.cos(omega * t)) <= 1e-12
        assert abs(f.psi_dot[0] + omega * np.sin(omega * t)) <= 1e-12


def test_two_routes_agree_for_time_dependent_operator():
    rng = generator(0, "evo:routes")
    n = 3
    d0 = random_positive_hermitian(rng, n)
    d_of_t = scaled(d0, lambda ts: 2.0 + np.sin(ts))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 2.0, 8000)
    f_mid = unpack(result.state(-1))
    traj = evolve_field(d_of_t, f0, 0.0, 2.0, 2000)
    f_rk4 = traj.state(-1)
    assert maxabs(f_mid.psi - f_rk4.psi) <= 1e-6
    assert maxabs(f_mid.psi_dot - f_rk4.psi_dot) <= 1e-6


def test_field_route_free_particle_is_linear():
    # RK4 and the doubled routes (closed form and midpoint): D = 0 is exact
    f0 = FieldState(
        psi=np.array([1.0 + 2.0j, -0.5 + 0j]), psi_dot=np.array([0.5 - 1.0j, 2.0 + 0j])
    )
    zero = np.zeros((2, 2))
    trajs = [evolve_field(zero, f0, 0.0, 3.0, 30)] + [
        field_trajectory(evolve_schrodinger(d, pack(f0, 0.7), 0.0, 3.0, 30))
        for d in (zero, scaled(zero, np.ones_like))
    ]
    for traj in trajs:
        for i, t in enumerate(traj.times):
            f = traj.state(i)
            assert maxabs(f.psi - (f0.psi + t * f0.psi_dot)) <= 1e-12
            assert maxabs(f.psi_dot - f0.psi_dot) <= 1e-12


def test_field_route_oscillator_accuracy():
    omega = 2.0
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    traj = evolve_field(np.array([[omega**2]]), f0, 0.0, 10.0, 10000)
    f = traj.state(-1)
    assert abs(f.psi[0] - np.cos(omega * 10.0)) <= 1e-8
    assert abs(f.psi_dot[0] + omega * np.sin(omega * 10.0)) <= 1e-8


def test_field_route_lattice_mode_phase():
    lattice = KleinGordonLattice(sites=8, mu=1.0)
    j = 2
    f0 = kg_mode_solution(lattice, eps=1, j=j, t=0.0)
    omega = lattice.omegas[lattice.column_of(j)]
    traj = evolve_field(lattice.d_matrix, f0, 0.0, 5.0, 5000)
    f = traj.state(-1)
    want = kg_mode_solution(lattice, eps=1, j=j, t=5.0)
    assert maxabs(f.psi - want.psi) <= 1e-6
    assert maxabs(f.psi_dot - want.psi_dot) <= 1e-6
    assert abs(omega**2 - lattice.omega_sq[lattice.column_of(j)]) <= 1e-12


def test_drift_constant_operator_stays_flat():
    rng = generator(1, "evo:drift-const")
    n = 3
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = InnerProductSpec.uniform(n)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    traj = evolve_field(d, f0, 0.0, 10.0, 5000, sample_every=10)
    sol, kg = drift_report(traj, d_spec, spec)
    assert sol.max_deviation <= 1e-8
    assert kg.max_deviation <= 1e-8


def test_drift_constant_operator_guards():
    # the batch over samples, and the stacked samples of an affine source,
    # raise what solution_inner raises, never NaN
    rng = generator(4, "evo:drift-guards")
    f0 = FieldState(psi=random_state(rng, 2), psi_dot=random_state(rng, 2))
    traj = evolve_field(np.diag([1.0, 2.0]), f0, 0.0, 1.0, 10)
    for w in ([-1.0, 2.0], [0.0, 2.0]):
        d_spec = SpectralDecomposition(np.array(w), np.eye(2, dtype=complex))
        with pytest.raises(NonPositiveSpectrumError):
            drift_report(traj, d_spec, InnerProductSpec.uniform(2))
    # a singular D (all zeros) and an indefinite one, read off at each sample
    for d in (np.zeros((2, 2)), np.diag([-1.0, 2.0])):
        with pytest.raises(NonPositiveSpectrumError):
            drift_report(traj, scaled(d, np.ones_like), InnerProductSpec.uniform(2))
    d_spec = SpectralDecomposition(np.array([1.0, 2.0]), np.eye(2, dtype=complex))
    with pytest.raises(LengthMismatchError):
        drift_report(traj, d_spec, InnerProductSpec.uniform(3))


def test_operator_source_forms_agree():
    # matrix, SpectralDecomposition and affine sources (one term, or the
    # entry basis) are one source; an affine source is asked, in arrays and
    # in order, the floats a step-by-step route asks
    rng = generator(5, "evo:source-forms")
    n = 3
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    spec = InnerProductSpec.uniform(n)
    queried = []

    def recording_coefficients(times):
        assert times.ndim == 1
        queried.extend(times.tolist())
        return np.ones((times.size, 1))

    forms = (
        d,
        d_spec,
        AffineSource(d[None], recording_coefficients),
        entrywise(lambda t: d, n),
    )
    trajs = [evolve_field(src, f0, 0.0, 2.0, 200, sample_every=20) for src in forms]
    for traj in trajs[1:]:
        assert maxabs(traj.psis - trajs[0].psis) <= 1e-12
    dt = 2.0 / 200
    assert queried == [0.0] + [
        t for k in range(1, 201) for t in ((k - 1) * dt + 0.5 * dt, k * dt)
    ]
    queried.clear()
    values = [drift_report(trajs[0], src, spec)[0].values for src in forms]
    for v in values[1:]:
        assert maxabs(v - values[0]) <= 1e-12
    assert queried == [k * dt for k in range(0, 201, 20)] == list(trajs[0].times)
    queried.clear()
    psi0 = pack(f0, 1.0)
    states = [evolve_schrodinger(src, psi0, 0.0, 2.0, 50).state_matrix for src in forms]
    for m in states[1:]:
        assert maxabs(m - states[0]) <= 1e-10
    assert queried == [(k - 0.5) * (2.0 / 50) for k in range(1, 51)]


F1 = FieldState(psi=np.array([1.0]), psi_dot=np.array([0.5]))
F2 = FieldState(psi=np.array([1.0, 0.0]), psi_dot=np.array([0.0, 0.5]))


# D = 1 - t, and the non-Hermitian I + t E_01
sinking = AffineSource(np.ones((1, 1, 1)), lambda ts: (1.0 - ts)[:, None])
shearing = AffineSource(
    np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]),
    lambda ts: np.stack([np.ones_like(ts), ts], axis=1),
)


@pytest.mark.parametrize(
    "run,message",
    [
        pytest.param(
            lambda: drift_report(
                evolve_field(sinking, F1, 0.0, 2.0, 100, sample_every=10),
                sinking,
                InnerProductSpec.uniform(1),
            ),
            "inner product needs a strictly positive spectrum (min eigenvalue 0.000e+00)",
            id="drift-positivity",
        ),
        pytest.param(
            lambda: evolve_schrodinger(shearing, pack(F2, 1.0), 0.0, 2.0, 100),
            "matrix deviates from Hermiticity by 1.000e-02 (tol 1.000e-10)",
            id="midpoint-hermiticity",
        ),
        pytest.param(
            lambda: drift_report(
                evolve_field(np.eye(2), F2, 0.0, 2.0, 100, sample_every=10),
                shearing,
                InnerProductSpec.uniform(2),
            ),
            "matrix deviates from Hermiticity by 2.000e-01 (tol 1.000e-10)",
            id="drift-hermiticity",
        ),
    ],
)
def test_source_error_names_first_failing_time(run, message):
    # all the times of a chunk are solved together, and the error still
    # names the first failing time, as asking one time at a step would
    with pytest.raises(KgMetricError) as err:
        run()
    assert str(err.value) == message


def test_drift_time_dependent_instantaneous_vs_frozen():
    rng = generator(2, "evo:drift-td")
    n = 3
    d0 = random_positive_hermitian(rng, n)
    d_of_t = scaled(d0, lambda ts: 1.0 + 0.3 * np.sin(ts))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    traj = evolve_field(d_of_t, f0, 0.0, 6.0, 3000, sample_every=30)
    sol, _ = drift_report(traj, d_of_t, InnerProductSpec.uniform(n))
    # the instantaneous product visibly moves
    assert sol.max_deviation >= 1e-6


def test_midpoint_route_crosses_sign_change():
    # D = 1 - t turns negative at t = 1: the midpoint route carries the state
    # through, matches a fine RK4 run and stays second order (bounds set
    # before the first run)
    reference = evolve_field(sinking, F1, 0.0, 2.0, 4000).state(-1)
    errors = []
    for steps in (100, 200):
        f = unpack(evolve_schrodinger(sinking, pack(F1, 1.0), 0.0, 2.0, steps).state(-1))
        errors.append(max(maxabs(f.psi - reference.psi), maxabs(f.psi_dot - reference.psi_dot)))
    print(f"midpoint errors {errors[0]:.3e} -> {errors[1]:.3e}, ratio {errors[0] / errors[1]:.2f}")
    assert errors[0] <= 1e-3
    assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_field_map_matches_doubled_eigensystem():
    # the field map is R e^{-iEt} L^dagger from the doubled eigensystem, also
    # for a mixed-sign spectrum, stacked along t's axes (bound set before the
    # first run)
    rng = generator(17, "evo:field-map")
    v = hermitian_eigendecompose(random_positive_hermitian(rng, 4)).eigenvectors
    spec = SpectralDecomposition(np.array([-0.8, -0.1, 0.5, 2.0]), v)
    system = eigen_system(spec, 0.6, allow_complex=True)
    times = np.array([0.0, 0.3, 1.7])
    maps = _field_map(spec, 0.6, times)
    for t, u in zip(times, maps):
        want = (system.right_vectors * np.exp(-1j * t * system.energies)) @ (
            system.left_vectors.conj().T
        )
        assert maxabs(u - want) <= 1e-13 * maxabs(want)
        np.testing.assert_array_equal(u, _field_map(spec, 0.6, t))


def test_flow_factors_at_and_near_a_zero_mode():
    # c = 1 and s = t where w = 0, and to rounding for |w| = 1e-300, on the
    # mixed-sign path and on the all-positive one
    t = np.array([0.0, 0.5, 3.0])
    c, s = _flow(np.array([-1e-300, 0.0, 1e-300, 4.0, -4.0]), t)
    assert np.array_equal(c[:, 1], np.ones(3)) and np.array_equal(s[:, 1], t)
    for cj, sj in ((c[:, 0], s[:, 0]), (c[:, 2], s[:, 2]), _flow(np.array([1e-300]), t)):
        assert maxabs(cj - 1.0) <= 1e-15
        assert maxabs(sj.ravel() - t) <= 1e-15 * maxabs(t)
    assert maxabs(c[:, 3] - np.cos(2 * t)) <= 1e-15
    assert maxabs(s[:, 3] - np.sin(2 * t) / 2) <= 1e-15
    assert maxabs(c[:, 4] - np.cosh(2 * t)) <= 1e-15 * np.cosh(6)
    assert maxabs(s[:, 4] - np.sinh(2 * t) / 2) <= 1e-15 * np.cosh(6)


def exact_decaying_frequency(t):
    # psi'' + (5/4)/(1+t)^2 psi = 0 with psi(0)=1, psi'(0)=1/2 has the
    # closed solution sqrt(1+t) cos(log(1+t))
    s = 1.0 + t
    return np.sqrt(s) * np.cos(np.log(s))


def run_error(route, steps):
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.5 + 0j]))
    d_of_t = scaled([[1.25]], lambda ts: 1.0 / (1.0 + ts) ** 2)
    if route == "midpoint":
        result = evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 2.0, steps)
        f = unpack(result.state(-1))
    else:
        traj = evolve_field(d_of_t, f0, 0.0, 2.0, steps)
        f = traj.state(-1)
    return abs(f.psi[0] - exact_decaying_frequency(2.0))


def test_doubled_route_is_second_order():
    e1, e2 = run_error("midpoint", 100), run_error("midpoint", 200)
    ratio = e1 / e2
    print(f"midpoint errors {e1:.3e} -> {e2:.3e}, ratio {ratio:.2f}")
    assert 3.0 <= ratio <= 5.0


def test_field_route_is_fourth_order():
    e1, e2 = run_error("rk4", 25), run_error("rk4", 50)
    ratio = e1 / e2
    print(f"rk4 errors {e1:.3e} -> {e2:.3e}, ratio {ratio:.2f}")
    assert 13.0 <= ratio <= 19.0


def test_propagator_composition():
    rng = generator(3, "evo:compose")
    n = 2
    d_of_t = scaled(random_positive_hermitian(rng, n), lambda ts: 1.5 + 0.5 * np.cos(ts))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    s0 = pack(f0, 1.0)
    u_a = evolve_schrodinger(d_of_t, s0, 0.0, 1.0, 500).propagator
    s_mid = evolve_schrodinger(d_of_t, s0, 0.0, 1.0, 500).state(-1)
    u_b = evolve_schrodinger(d_of_t, s_mid, 1.0, 2.0, 500).propagator
    u_ab = evolve_schrodinger(d_of_t, s0, 0.0, 2.0, 1000).propagator
    assert maxabs(u_b @ u_a - u_ab) <= 1e-9


def test_pseudo_unitarity_along_flow():
    rng = generator(4, "evo:pu-flow")
    n = 3
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    eta0 = eta_plus(d_spec, 1.0)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(
        d, pack(f0, 1.0), 0.0, 5.0, 500, sample_every=50, store_propagators=True
    )
    assert result.propagator_samples is not None
    assert maxabs(result.propagator_samples[0] - np.eye(2 * n)) <= 1e-15
    for u in result.propagator_samples:
        assert check_pseudo_unitary(u, eta0) <= 1e-9


def test_trajectory_sampling_and_lookup():
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    result = evolve_schrodinger(np.array([[1.0]]), pack(f0, 1.0), 0.0, 1.0, 10, sample_every=3)
    # steps 3, 6, 9 plus forced endpoint 10 plus initial
    np.testing.assert_allclose(result.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    traj = field_trajectory(result)
    assert traj.n == 1 and len(traj) == len(result)
    f = traj.state(2)
    assert abs(f.psi[0] - np.cos(0.6)) <= 1e-12


def test_step_count_validation_and_blowup_guard():
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    with pytest.raises(ZeroStepsError):
        evolve_schrodinger(np.array([[1.0]]), pack(f0, 1.0), 0.0, 1.0, 0)
    with pytest.raises(ZeroStepsError):
        evolve_field(np.array([[1.0]]), f0, 0.0, 1.0, -2)
    # an inverted mode grows like e^t; the guard trips long before overflow
    with pytest.raises(NonFiniteStateError):
        evolve_schrodinger(np.array([[-1.0]]), pack(f0, 1.0), 0.0, 40.0, 400)


def test_solution_product_conserved_by_doubled_route():
    rng = generator(5, "evo:conserve")
    n = 4
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = InnerProductSpec(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
    f1 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    f2 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    v0 = solution_inner(f1, f2, d_spec, spec)
    r1 = evolve_schrodinger(d, pack(f1, 1.0), 0.0, 7.0, 700)
    r2 = evolve_schrodinger(d, pack(f2, 1.0), 0.0, 7.0, 700)
    v1 = solution_inner(unpack(r1.state(-1)), unpack(r2.state(-1)), d_spec, spec)
    assert abs(v1 - v0) <= 1e-10 * max(abs(v0), 1.0)


def test_closed_form_matches_stepped_constant_operator():
    # the same operator as an affine source is re-diagonalized and stepped
    rng = generator(6, "evo:closed-form")
    n = 3
    d = random_positive_hermitian(rng, n)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    s0 = pack(f0, 0.7)
    kwargs = dict(sample_every=7, store_propagators=True)
    closed = evolve_schrodinger(d, s0, 0.5, 4.5, 60, **kwargs)
    stepped = evolve_schrodinger(scaled(d, np.ones_like), s0, 0.5, 4.5, 60, **kwargs)
    np.testing.assert_array_equal(closed.times, stepped.times)
    np.testing.assert_array_equal(closed.state_matrix[0], s0.vector)
    assert maxabs(closed.state_matrix - stepped.state_matrix) <= 1e-12
    assert maxabs(closed.propagator - stepped.propagator) <= 1e-12
    assert maxabs(closed.propagator_samples - stepped.propagator_samples) <= 1e-12
    # without stored samples the full-interval propagator is built on read
    lazy = evolve_schrodinger(d, s0, 0.5, 4.5, 60)
    assert lazy.propagator_samples is None
    assert maxabs(lazy.propagator - stepped.propagator) <= 1e-12


@pytest.mark.parametrize(
    "source, allow_complex",
    [
        (KleinGordonLattice(sites=64, mu=1.0).d_spec, False),
        (KleinGordonLattice(sites=17, mu=0.5).d_spec, True),
        (SpectralDecomposition(np.array([-0.5, 1.0, 2.0]), np.eye(3, dtype=complex)), True),
    ],
    ids=["lattice-64", "lattice-17-allow-complex", "negative-mode"],
)
def test_closed_form_phases_match_full_formula(source, allow_complex):
    # states are flowed mode coordinates, synthesized, bit for bit, chunk by
    # chunk as the loop forms them: per mode w of D, a real (k, 2) table of
    # c = cos(sqrt(w) t) and s = sin(sqrt(w) t) / sqrt(w) (cosh and sinh for
    # w < 0) times the coordinates x, y of upper0 and lower0 on c and
    # i (beta y - alpha x, alpha y - beta x) on s, alpha, beta = (1/lam +- lam w) / 2,
    # and D's synthesize turns them into rows
    n, steps, t1, lam = source.n, 200, 2.0, 0.8
    rng = generator(12, "evo:phases")
    s0 = pack(FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)), lam)
    result = evolve_schrodinger(source, s0, 0.0, t1, steps)
    w = source.eigenvalues
    on_c = source.coordinates(s0.vector.reshape(2, n))  # upper, lower
    x, y = on_c
    alpha, beta = (1 / lam + lam * w) / 2, (1 / lam - lam * w) / 2
    on_s = np.stack([1j * (beta * y - alpha * x), 1j * (alpha * y - beta * x)])
    # per mode, its (c, s) rows against the (upper, lower) coordinates they weigh
    weighed = np.stack([on_c, on_s], axis=1).transpose(2, 1, 0).copy()
    rate = np.sqrt(np.abs(w))[:, None]
    rows, chunk = [s0.vector[None]], _CHUNK_ENTRIES // (4 * n)
    for lo in range(1, steps + 1, chunk):
        k = np.arange(lo, min(lo + chunk, steps + 1))
        phase = rate * (k * (t1 / steps))
        c = np.where(w[:, None] > 0, np.cos(phase), np.cosh(phase))
        s = np.where(w[:, None] > 0, np.sin(phase), np.sinh(phase)) / rate
        coords = (np.stack([c, s], axis=-1) @ weighed.view(float)).view(complex)
        rows.append(source.synthesize(coords.transpose(1, 2, 0).reshape(-1, n)).reshape(-1, 2 * n))
    np.testing.assert_array_equal(result.state_matrix, np.concatenate(rows))
    # cosh columns only where a mode is negative
    assert np.array_equal(c, np.cos(phase)) == bool(np.all(w > 0))
    # and R (e^{-iEt} * L^dagger psi0) from the doubled eigensystem to rounding;
    # the bound was set before the first run
    system = eigen_system(source, lam, allow_complex=allow_complex)
    coeff = system.left_vectors.conj().T @ s0.vector
    phases = np.exp(-1j * np.multiply.outer(result.times, system.energies))
    full = (phases * coeff) @ system.right_vectors.T
    assert maxabs(result.state_matrix - full) <= 1e-13 * maxabs(full)


def test_closed_form_propagator_is_pseudo_unitary():
    rng = generator(7, "evo:closed-pu")
    n = 8
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(d_spec, pack(f0, 1.0), 0.0, 10.0, 100)
    eta0 = eta_plus(d_spec, 1.0)
    assert check_pseudo_unitary(result.propagator, eta0) <= 1e-13


def test_blowup_guard_sees_unrecorded_steps():
    # the closed form trips at the same step as stepping, between samples; a
    # list trips where its first state to leave the bound does
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    later = FieldState(psi=np.array([0.5 + 0j]), psi_dot=np.array([0.0 + 0j]))
    messages = []
    for psi0 in (pack(f0, 1.0), [pack(later, 1.0), pack(f0, 1.0)]):
        for source in (np.array([[-1.0]]), scaled([[-1.0]], np.ones_like)):
            with pytest.raises(NonFiniteStateError) as err:
                evolve_schrodinger(source, psi0, 0.0, 40.0, 400, sample_every=1000)
            messages.append(str(err.value).split(" (max")[0])
    assert messages == messages[:1] * 4


def test_closed_form_unexcited_negative_mode_stays_bounded():
    # no state excites the negative mode, so its cosh, which overflows past
    # t = 710, is never read: the excited mode keeps its exact phase
    f0 = FieldState(psi=np.array([0.0, 1.0]), psi_dot=np.array([0.0, 0.0]))
    result = evolve_schrodinger(np.diag([-1.0, 1.0]), pack(f0, 1.0), 0, 1000, 100)
    psi = field_trajectory(result).psis[-1]
    assert psi[0] == 0.0
    assert abs(psi[1] - np.cos(1000.0)) <= 1e-12


D_LIST = random_positive_hermitian(generator(15, "evo:list"), 5)


@pytest.mark.parametrize(
    "d_of_t",
    [D_LIST, scaled(D_LIST, lambda ts: 2.0 + np.sin(ts))],
    ids=["closed-form", "midpoint"],
)
def test_state_list_matches_single_runs(d_of_t):
    rng = generator(16, "evo:list-states")
    states = [
        pack(FieldState(psi=random_state(rng, 5), psi_dot=random_state(rng, 5)), 0.6)
        for _ in range(3)
    ]
    kwargs = dict(sample_every=7, store_propagators=True)
    single = evolve_schrodinger(d_of_t, states[0], 0.0, 3.0, 150, **kwargs)
    (alone,) = evolve_schrodinger(d_of_t, states[:1], 0.0, 3.0, 150, **kwargs)
    np.testing.assert_array_equal(alone.times, single.times)
    np.testing.assert_array_equal(alone.state_matrix, single.state_matrix)
    np.testing.assert_array_equal(alone.propagator, single.propagator)
    np.testing.assert_array_equal(alone.propagator_samples, single.propagator_samples)
    batch = evolve_schrodinger(d_of_t, states, 0.0, 3.0, 150, **kwargs)
    assert len(batch) == len(states)
    for s0, result in zip(states, batch):
        single = evolve_schrodinger(d_of_t, s0, 0.0, 3.0, 150, **kwargs)
        np.testing.assert_array_equal(result.times, single.times)
        assert result.lam == s0.lam
        scale = maxabs(single.state_matrix)
        assert maxabs(result.state_matrix - single.state_matrix) <= 1e-13 * scale
        assert maxabs(result.propagator - single.propagator) <= 1e-13
        # the propagator carries each state to its last sample
        last = result.propagator @ s0.vector
        assert maxabs(last - result.state_matrix[-1]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "d_of_t",
    [np.array([[2.0]]), scaled([[1.0]], lambda ts: 2.0 + ts)],
    ids=["closed-form", "midpoint"],
)
@pytest.mark.parametrize(
    "states, error",
    [
        ([], DimensionMismatchError),
        ([pack(F1, 1.0), pack(F2, 1.0)], DimensionMismatchError),
        ([pack(F1, 1.0), pack(F1, 0.5)], LambdaMismatchError),
    ],
    ids=["empty", "mixed-sizes", "mixed-lam"],
)
def test_state_list_contract(d_of_t, states, error):
    with pytest.raises(error):
        evolve_schrodinger(d_of_t, states, 0.0, 1.0, 10)


def test_batched_field_route_matches_single_runs():
    rng = generator(8, "evo:batch")
    n = 3
    d_of_t = scaled(random_positive_hermitian(rng, n), lambda ts: 1.0 + 0.3 * np.sin(ts))
    states = [
        FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)) for _ in range(3)
    ]
    batch = evolve_field(d_of_t, states, 0.0, 2.0, 400, sample_every=40)
    assert len(batch) == len(states)
    for f0, traj in zip(states, batch):
        single = evolve_field(d_of_t, f0, 0.0, 2.0, 400, sample_every=40)
        np.testing.assert_array_equal(traj.times, single.times)
        assert maxabs(traj.psis - single.psis) <= 1e-13
        assert maxabs(traj.psi_dots - single.psi_dots) <= 1e-13


def stagewise_rk4(d_of_t, states, t0, t1, steps, sample_every=1):
    """Reference: the classical stage-by-stage RK4 loop on (psi, dot), with
    the blow-up guard after every step (psi before dot). Returns the sample
    times and the (n_samples, n, k) psi and dot stacks."""
    if isinstance(d_of_t, AffineSource):
        source = lambda t: d_of_t.at(np.array([t]))[0]
    else:
        source = lambda t: d_of_t
    dt = (t1 - t0) / steps
    psi = np.stack([f.psi for f in states], axis=1)
    dot = np.stack([f.psi_dot for f in states], axis=1)
    times, psis, dots = [t0], [psi], [dot]
    d0 = np.asarray(source(t0))
    for k in range(1, steps + 1):
        t_k = t0 + k * dt
        d_mid = np.asarray(source(t0 + (k - 1) * dt + 0.5 * dt))
        d1 = np.asarray(source(t_k))
        k1p, k1d = dot, -(d0 @ psi)
        k2p, k2d = dot + 0.5 * dt * k1d, -(d_mid @ (psi + 0.5 * dt * k1p))
        k3p, k3d = dot + 0.5 * dt * k2d, -(d_mid @ (psi + 0.5 * dt * k2p))
        k4p, k4d = dot + dt * k3d, -(d1 @ (psi + dt * k3p))
        psi = psi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        dot = dot + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        d0 = d1
        for part in (psi, dot):
            peak = maxabs(part)
            if not peak <= BLOWUP_LIMIT:
                raise NonFiniteStateError(
                    f"state blew past {BLOWUP_LIMIT:.0e} at t={t_k:.6g} (max {peak:.3e})"
                )
        if k % sample_every == 0 or k == steps:
            times.append(t_k)
            psis.append(psi)
            dots.append(dot)
    return np.array(times), np.array(psis), np.array(dots)


D_COMPLEX = random_positive_hermitian(generator(10, "evo:oracle"), 4)
# J = 2: a real diagonal term and a complex Hermitian one, both weights moving
D_TWO_TERMS = AffineSource(
    np.stack([np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), D_COMPLEX]),
    lambda ts: np.stack([1.0 + 0.5 * np.cos(ts), 0.3 + 0.1 * ts], axis=1),
)


@pytest.mark.parametrize(
    "source,n,count,t1,steps,sample_every",
    [
        pytest.param(WdwFrwModel().anchored, 8, 2, 0.3, 1500, 15, id="wdw-anchored"),
        pytest.param(
            entrywise(lambda t: (2.0 + np.sin(t)) * D_COMPLEX, 4),
            4, 1, 3.0, 700, 7, id="complex-hermitian",
        ),
        pytest.param(
            WdwFrwModel(kappa=-1).anchored, 8, 2, 0.3, 1500, 15, id="wdw-affine-open"
        ),
        pytest.param(
            WdwFrwModel(kappa=1, alpha0=0.3).anchored, 8, 2, 0.3, 1500, 15, id="wdw-affine-closed"
        ),
        pytest.param(
            AffineSource(D_COMPLEX[None], lambda ts: (2.0 + np.sin(ts))[:, None]),
            4, 1, 3.0, 700, 7, id="affine-complex-hermitian",
        ),
        pytest.param(D_TWO_TERMS, 4, 2, 3.0, 700, 7, id="affine-two-terms"),
        pytest.param(np.diag([1.0, 2.5, 4.0]), 3, 2, 10.0, 1000, 100, id="constant-two-states"),
    ],
)
def test_field_route_matches_stagewise_oracle(source, n, count, t1, steps, sample_every):
    rng = generator(11, f"evo:oracle:{n}")
    states = [
        FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)) for _ in range(count)
    ]
    times, psis, dots = stagewise_rk4(source, states, 0.0, t1, steps, sample_every)
    trajs = evolve_field(source, states, 0.0, t1, steps, sample_every)
    for j, traj in enumerate(trajs):
        np.testing.assert_array_equal(traj.times, times)
        assert maxabs(traj.psis - psis[:, :, j]) <= 1e-12 * maxabs(psis[:, :, j])
        assert maxabs(traj.psi_dots - dots[:, :, j]) <= 1e-12 * maxabs(dots[:, :, j])


def stack_increments(d: np.ndarray, h: float) -> np.ndarray:
    """Reference: N = M - I for the RK4 step maps M of (psi, dot)' = (dot,
    -D psi), from the (2k + 1, n, n) stack of D at the stage times t, t + h/2,
    ..., t + k h of k steps of length h, as products of the stacked D."""
    n = d.shape[-1]
    d0, dm, d1 = (d[i::2][: len(d) // 2] for i in range(3))
    dm_d0 = dm @ d0
    d1_dm = d1 @ dm
    inc = np.empty((len(dm), 2 * n, 2 * n), dtype=d.dtype)
    inc[..., :n, :n] = (h**4 / 24.0) * dm_d0 - (h * h / 6.0) * (d0 + 2.0 * dm)
    inc[..., :n, n:] = h * np.eye(n) - (h**3 / 6.0) * dm
    inc[..., n:, :n] = (h**3 / 12.0) * (dm_d0 + d1_dm) - (h / 6.0) * (d0 + 4.0 * dm + d1)
    inc[..., n:, n:] = (h**4 / 24.0) * d1_dm - (h * h / 6.0) * (2.0 * dm + d1)
    return inc


@pytest.mark.parametrize(
    "source,h",
    [
        pytest.param(WdwFrwModel(kappa=-1).anchored, 0.3 / 1500, id="wdw-open"),
        pytest.param(WdwFrwModel(mass=2.0, alpha0=-0.3).anchored, 0.3 / 1500, id="wdw-flat"),
        pytest.param(WdwFrwModel(kappa=1, modes=40).anchored, 0.01, id="wdw-closed-40-modes"),
        pytest.param(D_TWO_TERMS, 0.05, id="two-terms"),
        # a constant D, as evolve_field steps it: one term, every weight 1
        pytest.param(
            AffineSource(D_COMPLEX[None], lambda ts: np.ones((ts.size, 1))), 0.05, id="constant"
        ),
    ],
)
def test_affine_increments_match_stack_increments(source, h):
    # the increments from the stage coefficients are those of the D stack
    # at() builds at the same stage times, to rounding
    k = 64
    times = 0.1 + 0.5 * h * np.arange(2 * k + 1)
    got = _affine_increments(source.terms, h)(source.coefficients(times))
    want = stack_increments(source.at(times), h)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert maxabs(got - want) <= 1e-14 * maxabs(want)


@pytest.mark.parametrize(
    "d,steps",
    [
        pytest.param(-1.0, 400, id="psi-trips"),
        # the first bad step (5664) lies past the first chunk of maps
        pytest.param(-1.0, 8000, id="psi-trips-second-chunk"),
        # w = 1.1: dot = w sinh(w t) outgrows psi = cosh(w t) and trips alone
        pytest.param(-1.21, 400, id="dot-trips"),
        # coarse steps: both pass the bound at step 79, and psi is reported
        pytest.param(-0.81, 100, id="both-trip"),
        # a NaN state fails the bound as an inf one does, and is named as NaN
        pytest.param(np.nan, 400, id="nan-trips"),
    ],
)
def test_field_route_guard_trips_like_stagewise_oracle(d, steps):
    # an inverted mode grows like e^(w t); the guard trips between samples
    f0 = FieldState(psi=np.array([1.0]), psi_dot=np.array([0.0]))
    d = np.array([[d]])
    with pytest.raises(NonFiniteStateError) as want:
        stagewise_rk4(d, [f0], 0.0, 40.0, steps, sample_every=1000)
    for source in (d, scaled(d, np.ones_like)):
        with pytest.raises(NonFiniteStateError) as got:
            evolve_field(source, f0, 0.0, 40.0, steps, sample_every=1000)
        assert str(got.value) == str(want.value)
    if steps == 400 and d[0, 0] == -1.0:
        assert "at t=28.4 " in str(want.value)
    if np.isnan(d[0, 0]):
        assert str(want.value) == "state blew past 1e+12 at t=0.1 (max nan)"


@pytest.mark.parametrize("value", [-1e200, 1e300])
def test_field_route_overflow_raises_without_warnings(value):
    # the step map itself overflows; that is a blown-up state, not a warning
    f0 = FieldState(psi=np.array([1.0]), psi_dot=np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (np.array([[value]]), scaled([[value]], np.ones_like)):
            with pytest.raises(NonFiniteStateError):
                evolve_field(source, f0, 0.0, 1.0, 10)


def stored_drift(d, s1, s2, t0, t1, steps, spec):
    """The stored route that _closed_form_drift streams: the whole trajectory,
    unpacked, then drift_report."""
    res1, res2 = evolve_schrodinger(d, [s1, s2], t0, t1, steps)
    traj1, traj2 = field_trajectory(res1), field_trajectory(res2)
    return drift_report(traj1, d, spec, traj2=traj2, lam=s1.lam)


@pytest.mark.parametrize("a", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("sites", [16, 17, 64, 128])
def test_streamed_drift_matches_stored_route(sites, a):
    # the kg report's invariance monitor, measured chunk by chunk through the
    # closed form, against the stored trajectory on the same states; an odd
    # lattice also takes an odd step count, so the last chunk is partial
    lattice = KleinGordonLattice(sites=sites, mu=5.0)
    relspec = kg_relativistic_spec(lattice, 1.0 + a, 1.0 - a)
    rng = generator(sites, "evo:streamed")
    s1, s2 = (
        pack(kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False), 0.8)
        for _ in range(2)
    )
    args = (lattice.d_spec, s1, s2, 0.0, 10.0, 200 + sites % 2, relspec)
    stored, streamed = stored_drift(*args), _closed_form_drift(*args)
    for want, got in zip(stored, streamed):
        assert got.values.shape == want.values.shape == (201 + sites % 2,)
        assert maxabs(got.values - want.values) <= 1e-14 * maxabs(want.values)
        assert abs(got.max_deviation - want.max_deviation) <= 1e-14


@pytest.mark.parametrize(
    "t1, spec_n, error",
    [
        (40.0, 3, NonFiniteStateError),  # the negative mode blows up first
        (1.0, 3, NonPositiveSpectrumError),  # stays bounded; the monitor refuses it
        (1.0, 2, LengthMismatchError),
    ],
)
def test_streamed_drift_raises_like_stored_route(t1, spec_n, error):
    d = np.diag([-1.0, 2.0, 3.0])
    s1 = pack(FieldState(np.array([1.0, 0.5, 0.2]), np.zeros(3)), 1.0)
    s2 = pack(FieldState(np.array([0.3, 1.0, 0.0]), np.array([0.1, 0.0, 1.0])), 1.0)
    args = (d, s1, s2, 0.0, t1, 400, InnerProductSpec.uniform(spec_n))
    with pytest.raises(error) as stored:
        stored_drift(*args)
    with pytest.raises(error) as streamed:
        _closed_form_drift(*args)
    assert str(streamed.value) == str(stored.value)


def test_field_route_memory_stays_flat_in_steps():
    # the maps are built chunk by chunk: a long run holds its samples and a
    # fixed working set, never one map or state per step (20000 maps of this
    # size are about 82 MB)
    rng = generator(12, "evo:memory")
    n = 8
    source = scaled(random_positive_hermitian(rng, n), lambda ts: 2.0 + np.sin(ts))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    evolve_field(source, f0, 0.0, 1.0, 10)
    tracemalloc.start()
    try:
        traj = evolve_field(source, f0, 0.0, 20.0, 20000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = traj.times.nbytes + traj.psis.nbytes + traj.psi_dots.nbytes
    assert peak <= kept + 2**21


def stepwise_midpoint(d_of_t, psi0, t0, t1, steps, sample_every=1, allow_complex=False):
    """Reference: the per-step midpoint loop on the doubled state, each step's
    exp(-i dt H(D_mid)) from the closed-form eigensystem, with the blow-up
    guard after every step. Returns the sample times, states and propagators
    from t0, and U(t1, t0)."""
    dt = (t1 - t0) / steps
    vec = psi0.vector.copy()
    u_total = np.eye(vec.size, dtype=complex)
    times, states, props = [t0], [vec.copy()], [u_total.copy()]
    for k in range(1, steps + 1):
        d_mid = hermitian_eigendecompose(d_of_t.at(np.array([t0 + (k - 0.5) * dt]))[0])
        system = eigen_system(d_mid, psi0.lam, allow_complex=allow_complex)
        u_step = (system.right_vectors * np.exp(-1j * dt * system.energies)) @ (
            system.left_vectors.conj().T
        )
        vec = u_step @ vec
        u_total = u_step @ u_total
        t_k = t0 + k * dt
        peak = maxabs(vec)
        if not peak <= BLOWUP_LIMIT:
            raise NonFiniteStateError(
                f"state blew past {BLOWUP_LIMIT:.0e} at t={t_k:.6g} (max {peak:.3e})"
            )
        if k % sample_every == 0 or k == steps:
            times.append(t_k)
            states.append(vec.copy())
            props.append(u_total.copy())
    return np.array(times), np.array(states), np.array(props), u_total


def test_midpoint_route_matches_stepwise_oracle():
    rng = generator(13, "evo:midpoint-oracle")
    n = 4
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    s0 = pack(f0, 0.7)
    d_of_t = scaled(D_COMPLEX, lambda ts: 2.0 + np.sin(ts))
    times, states, props, u_total = stepwise_midpoint(d_of_t, s0, 0.5, 3.5, 700, 9)
    stored = evolve_schrodinger(d_of_t, s0, 0.5, 3.5, 700, 9, store_propagators=True)
    bare = evolve_schrodinger(d_of_t, s0, 0.5, 3.5, 700, 9)
    assert bare.propagator_samples is None
    for result in (stored, bare):
        np.testing.assert_array_equal(result.times, times)
        assert maxabs(result.state_matrix - states) <= 1e-13
        assert maxabs(result.propagator - u_total) <= 1e-13
    assert maxabs(stored.propagator_samples - props) <= 1e-13


def test_midpoint_guard_trips_like_stepwise_oracle():
    # an inverted mode grows like e^t; at 8000 steps the first bad step
    # (5596) lies past the first chunk of steps (2730 at n = 1)
    steps = 8000
    f0 = FieldState(psi=np.array([1.0]), psi_dot=np.array([0.0]))
    d_of_t = scaled([[-1.0]], np.ones_like)
    with pytest.raises(NonFiniteStateError) as want:
        stepwise_midpoint(d_of_t, pack(f0, 1.0), 0.0, 40.0, steps, 1000, allow_complex=True)
    with pytest.raises(NonFiniteStateError) as got:
        evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 40.0, steps, sample_every=1000)
    assert str(got.value) == str(want.value)


def test_midpoint_memory_records_only_states():
    # without stored propagators a long run keeps one state column a sample
    # and a fixed working set; a kept U per sample would add (2n)^2 entries
    # each (6.1 MB here)
    rng = generator(14, "evo:midpoint-memory")
    n = 4
    d_of_t = scaled(random_positive_hermitian(rng, n), lambda ts: 2.0 + np.sin(ts))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 1.0, 10)
    tracemalloc.start()
    try:
        result = evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 5.0, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.state_matrix.shape == (6001, 2 * n)
    kept = result.times.nbytes + result.state_matrix.nbytes
    assert peak <= kept + 2**21
