"""Propagation routes, conserved-product drift, and integrator accuracy order."""

import numpy as np
import pytest

from kgmetric import (
    FieldState,
    InnerProductSpec,
    check_pseudo_unitary,
    drift_report,
    eta_plus,
    evolve_field,
    evolve_fields,
    evolve_schrodinger,
    field_trajectory,
    pack,
    solution_inner,
    unpack,
)
from kgmetric.errors import (
    LengthMismatchError,
    NonFiniteStateError,
    NonPositiveSpectrumError,
    ZeroStepsError,
)
from kgmetric.models.lattice import KleinGordonLattice, kg_mode_solution
from kgmetric.rng import generator, random_positive_hermitian, random_state
from kgmetric.spectral import SpectralDecomposition, hermitian_eigendecompose


def maxabs(a):
    return float(np.max(np.abs(a)))


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

    def d_of_t(t):
        return (2.0 + np.sin(t)) * d0

    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(d_of_t, pack(f0, 1.0), 0.0, 2.0, 8000)
    f_mid = unpack(result.state(-1))
    traj = evolve_field(d_of_t, f0, 0.0, 2.0, 2000)
    f_rk4 = traj.state(-1)
    assert maxabs(f_mid.psi - f_rk4.psi) <= 1e-6
    assert maxabs(f_mid.psi_dot - f_rk4.psi_dot) <= 1e-6


def test_field_route_free_particle_is_linear():
    f0 = FieldState(
        psi=np.array([1.0 + 2.0j, -0.5 + 0j]), psi_dot=np.array([0.5 - 1.0j, 2.0 + 0j])
    )
    traj = evolve_field(np.zeros((2, 2)), f0, 0.0, 3.0, 30)
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
    # the batch over samples, and the per-sample route of a callable source,
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
            drift_report(traj, lambda t, d=d: d, InnerProductSpec.uniform(2))
    d_spec = SpectralDecomposition(np.array([1.0, 2.0]), np.eye(2, dtype=complex))
    with pytest.raises(LengthMismatchError):
        drift_report(traj, d_spec, InnerProductSpec.uniform(3))


def test_operator_source_forms_agree():
    # matrix, SpectralDecomposition and callables returning either are one source
    rng = generator(5, "evo:source-forms")
    n = 3
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    spec = InnerProductSpec.uniform(n)
    forms = (d, d_spec, lambda t: d, lambda t: d_spec)
    trajs = [evolve_field(src, f0, 0.0, 2.0, 200, sample_every=20) for src in forms]
    for traj in trajs[1:]:
        assert maxabs(traj.psis - trajs[0].psis) <= 1e-12
    values = [drift_report(trajs[0], src, spec)[0].values for src in forms]
    for v in values[1:]:
        assert maxabs(v - values[0]) <= 1e-12
    psi0 = pack(f0, 1.0)
    states = [evolve_schrodinger(src, psi0, 0.0, 2.0, 50).state_matrix for src in forms]
    for m in states[1:]:
        assert maxabs(m - states[0]) <= 1e-10


def test_drift_time_dependent_instantaneous_vs_frozen():
    rng = generator(2, "evo:drift-td")
    n = 3
    d0 = random_positive_hermitian(rng, n)

    def spec_of_t(t):
        return hermitian_eigendecompose((1.0 + 0.3 * np.sin(t)) * d0)

    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    traj = evolve_field(
        lambda t: (1.0 + 0.3 * np.sin(t)) * d0, f0, 0.0, 6.0, 3000, sample_every=30
    )
    sol, _ = drift_report(traj, spec_of_t, InnerProductSpec.uniform(n))
    # the instantaneous product visibly moves
    assert sol.max_deviation >= 1e-6


def exact_decaying_frequency(t):
    # psi'' + (5/4)/(1+t)^2 psi = 0 with psi(0)=1, psi'(0)=1/2 has the
    # closed solution sqrt(1+t) cos(log(1+t))
    s = 1.0 + t
    return np.sqrt(s) * np.cos(np.log(s))


def run_error(route, steps):
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.5 + 0j]))

    def d_of_t(t):
        return np.array([[1.25 / (1.0 + t) ** 2]])

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
    d0 = random_positive_hermitian(rng, n)

    def d_of_t(t):
        return (1.5 + 0.5 * np.cos(t)) * d0

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
        evolve_schrodinger(
            np.array([[-1.0]]), pack(f0, 1.0), 0.0, 40.0, 400, allow_complex=True
        )


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
    # the same operator as a callable is re-diagonalized and stepped
    rng = generator(6, "evo:closed-form")
    n = 3
    d = random_positive_hermitian(rng, n)
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    s0 = pack(f0, 0.7)
    kwargs = dict(sample_every=7, store_propagators=True)
    closed = evolve_schrodinger(d, s0, 0.5, 4.5, 60, **kwargs)
    stepped = evolve_schrodinger(lambda t: d, s0, 0.5, 4.5, 60, **kwargs)
    np.testing.assert_array_equal(closed.times, stepped.times)
    np.testing.assert_array_equal(closed.state_matrix[0], s0.vector)
    assert maxabs(closed.state_matrix - stepped.state_matrix) <= 1e-12
    assert maxabs(closed.propagator - stepped.propagator) <= 1e-12
    assert maxabs(closed.propagator_samples - stepped.propagator_samples) <= 1e-12
    # without stored samples the full-interval propagator is built on read
    lazy = evolve_schrodinger(d, s0, 0.5, 4.5, 60)
    assert lazy.propagator_samples is None
    assert maxabs(lazy.propagator - stepped.propagator) <= 1e-12


def test_closed_form_propagator_is_pseudo_unitary():
    rng = generator(7, "evo:closed-pu")
    n = 8
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(d_spec, pack(f0, 1.0), 0.0, 10.0, 100)
    eta0 = eta_plus(d_spec, 1.0)
    assert check_pseudo_unitary(result.propagator, eta0) <= 1e-13


def test_blowup_guard_sees_unrecorded_steps():
    # the closed form trips at the same step as stepping, between samples
    f0 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    messages = []
    for source in (np.array([[-1.0]]), lambda t: np.array([[-1.0]])):
        with pytest.raises(NonFiniteStateError) as err:
            evolve_schrodinger(
                source, pack(f0, 1.0), 0.0, 40.0, 400, sample_every=1000, allow_complex=True
            )
        messages.append(str(err.value).split(" (max")[0])
    assert messages[0] == messages[1]


def test_batched_field_route_matches_single_runs():
    rng = generator(8, "evo:batch")
    n = 3
    d0 = random_positive_hermitian(rng, n)

    def d_of_t(t):
        return (1.0 + 0.3 * np.sin(t)) * d0

    states = [
        FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)) for _ in range(3)
    ]
    batch = evolve_fields(d_of_t, states, 0.0, 2.0, 400, sample_every=40)
    assert len(batch) == len(states)
    for f0, traj in zip(states, batch):
        single = evolve_field(d_of_t, f0, 0.0, 2.0, 400, sample_every=40)
        np.testing.assert_array_equal(traj.times, single.times)
        assert maxabs(traj.psis - single.psis) <= 1e-13
        assert maxabs(traj.psi_dots - single.psi_dots) <= 1e-13
