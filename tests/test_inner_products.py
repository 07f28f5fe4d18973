"""Positive metric family, sign-classified metrics, and metric transport."""

import numpy as np
import pytest

from kgmetric import (
    AffineSource,
    BiorthonormalSystem,
    FieldState,
    InnerProductSpec,
    SignAssignment,
    build_L,
    build_hamiltonian,
    check_pseudo_unitary,
    eigen_system,
    eta_general,
    eta_inv,
    eta_plus,
    eta_tilde_plus,
    evolve_schrodinger,
    kg_inner,
    pack,
    solution_inner,
    two_component_inner,
)
from kgmetric.errors import (
    LengthMismatchError,
    MissingSignError,
    NonPositiveCoefficientError,
    NonPositiveSpectrumError,
    SingularPropagatorError,
    UnpairedComplexEigenvalueError,
)
from kgmetric.inner_products import PAIRING_TOL
from kgmetric.rng import generator, random_positive_hermitian, random_state
from kgmetric.spectral import hermitian_eigendecompose
from kgmetric.two_component import TwoComponentState


def maxabs(a):
    return float(np.max(np.abs(a)))


def random_spec(rng, n):
    return InnerProductSpec(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))


def test_spec_validation():
    s = InnerProductSpec.uniform(3)
    np.testing.assert_allclose(s.l_plus_coeff, np.ones(3))
    np.testing.assert_allclose(s.l_minus_coeff, np.zeros(3))
    s2 = InnerProductSpec([3.0], [1.0])
    assert s2.l_plus_coeff[0] == 2.0
    assert s2.l_minus_coeff[0] == 1.0
    with pytest.raises(LengthMismatchError):
        InnerProductSpec([1.0, 2.0], [1.0])
    with pytest.raises(NonPositiveCoefficientError):
        InnerProductSpec([0.0], [1.0])
    with pytest.raises(NonPositiveCoefficientError):
        InnerProductSpec([1.0], [-2.0])
    with pytest.raises(NonPositiveCoefficientError):
        InnerProductSpec([np.inf], [1.0])


def test_sign_assignment_validation():
    assert SignAssignment.all_plus(4).n == 4
    with pytest.raises(ValueError):
        SignAssignment(np.array([1, 0, -1]))


def test_build_L_uniform_is_identity_and_zero():
    rng = generator(0, "ip:L-uniform")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 5))
    l_plus, l_minus = build_L(InnerProductSpec.uniform(5), d_spec)
    assert maxabs(l_plus - np.eye(5)) <= 1e-12
    assert maxabs(l_minus) <= 1e-12


def test_build_L_explicit_single_mode():
    d_spec = hermitian_eigendecompose(np.array([[4.0]]))
    l_plus, l_minus = build_L(InnerProductSpec([3.0], [1.0]), d_spec)
    np.testing.assert_allclose(l_plus, [[2.0]], atol=1e-14)
    np.testing.assert_allclose(l_minus, [[1.0]], atol=1e-14)


def test_build_L_commutes_with_operator():
    rng = generator(1, "ip:L-commute")
    d = random_positive_hermitian(rng, 6)
    d_spec = hermitian_eigendecompose(d)
    l_plus, l_minus = build_L(random_spec(rng, 6), d_spec)
    for l in (l_plus, l_minus):
        assert maxabs(l @ d - d @ l) <= 1e-10 * max(maxabs(d), 1.0)
        assert maxabs(l - l.conj().T) <= 1e-12


def test_build_L_length_mismatch():
    d_spec = hermitian_eigendecompose(np.eye(3))
    with pytest.raises(LengthMismatchError):
        build_L(InnerProductSpec.uniform(2), d_spec)


def test_eta_tilde_uniform_reduces_to_canonical():
    rng = generator(2, "ip:uniform")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 5))
    for lam in (0.5, 1.0, 2.0):
        eta = eta_tilde_plus(d_spec, lam, InnerProductSpec.uniform(5))
        assert np.min(np.linalg.eigvalsh(eta)) > 0.0
        assert maxabs(eta - eta_plus(d_spec, lam)) <= 1e-12


def test_eta_tilde_matches_weighted_left_sum():
    rng = generator(3, "ip:weighted")
    n = 5
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
    spec = random_spec(rng, n)
    lam = 1.0
    eta = eta_tilde_plus(d_spec, lam, spec)
    system = eigen_system(d_spec, lam)
    weights = np.concatenate([spec.a_plus_sq, spec.a_minus_sq])
    direct = (system.left_vectors * weights) @ system.left_vectors.conj().T
    assert maxabs(eta - direct) <= 1e-12 * max(maxabs(eta), 1.0)


def test_eta_tilde_transport_oracle():
    # A = sum_n a_n |right_n><left_n| commutes with H and pulls the
    # canonical metric onto the weighted one: A^dag eta+ A = eta~+
    rng = generator(4, "ip:transport")
    n = 5
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = random_spec(rng, n)
    lam = 0.8
    system = eigen_system(d_spec, lam)
    a_diag = np.sqrt(np.concatenate([spec.a_plus_sq, spec.a_minus_sq]))
    a_map = (system.right_vectors * a_diag) @ system.left_vectors.conj().T
    h = build_hamiltonian(d, lam)
    assert maxabs(h @ a_map - a_map @ h) <= 1e-10 * max(maxabs(h), 1.0)
    pulled = a_map.conj().T @ eta_plus(d_spec, lam) @ a_map
    eta = eta_tilde_plus(d_spec, lam, spec)
    assert maxabs(pulled - eta) <= 1e-11 * max(maxabs(eta), 1.0)


def test_eta_tilde_pseudo_hermiticity_and_positivity():
    rng = generator(5, "ip:posdef")
    n = 6
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = random_spec(rng, n)
    for lam in (0.5, 1.0, 2.0):
        eta = eta_tilde_plus(d_spec, lam, spec)
        h = build_hamiltonian(d, lam)
        assert maxabs(eta - eta.conj().T) <= 1e-12 * maxabs(eta)
        assert maxabs(h.conj().T @ eta - eta @ h) <= 1e-10 * max(maxabs(h), 1.0)
        assert np.min(np.linalg.eigvalsh(eta)) > 0.0


def test_eta_tilde_rejects_bad_spectrum():
    d_spec = hermitian_eigendecompose(np.diag([-1.0, 2.0]))
    with pytest.raises(NonPositiveSpectrumError):
        eta_tilde_plus(d_spec, 1.0, InnerProductSpec.uniform(2))


def test_eta_general_all_plus_equals_canonical():
    rng = generator(6, "ip:general-uniform")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 4))
    system = eigen_system(d_spec, lam=1.0)
    eta = eta_general(system, SignAssignment.all_plus(8))
    assert np.min(np.linalg.eigvalsh(eta)) > 0.0
    assert maxabs(eta - eta_plus(d_spec, 1.0)) <= 1e-12


def test_eta_general_sign_flip_gives_indefinite():
    rng = generator(7, "ip:signflip")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 3))
    system = eigen_system(d_spec, lam=1.0)
    sigma = np.ones(6, dtype=int)
    sigma[0] = -1
    eta = eta_general(system, SignAssignment(sigma))
    assert np.min(np.linalg.eigvalsh(eta)) < 0.0
    for j in range(6):
        r = system.right_vectors[:, j]
        norm = np.vdot(r, eta @ r)
        assert abs(norm - sigma[j]) <= 1e-12


def test_eta_general_complex_pair_null_norms():
    # a single inverted mode gives a conjugate eigenvalue pair; the metric
    # couples the pair off-diagonally and both pseudo-norms vanish
    d_spec = hermitian_eigendecompose(np.array([[-1.0]]))
    system = eigen_system(d_spec, lam=1.0, allow_complex=True)
    eta = eta_general(system, SignAssignment.all_plus(0))
    assert np.min(np.linalg.eigvalsh(eta)) < 0.0
    assert maxabs(eta - eta.conj().T) <= 1e-13
    r0 = system.right_vectors[:, 0]
    r1 = system.right_vectors[:, 1]
    assert abs(np.vdot(r0, eta @ r0)) <= 1e-12
    assert abs(np.vdot(r1, eta @ r1)) <= 1e-12
    assert abs(np.vdot(r0, eta @ r1) - 1.0) <= 1e-12
    # the intertwining relation survives the complex pair
    h = build_hamiltonian(np.array([[-1.0]]), lam=1.0)
    assert maxabs(h.conj().T @ eta - eta @ h) <= 1e-12


def test_eta_general_error_paths():
    rng = generator(8, "ip:general-errors")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 3))
    system = eigen_system(d_spec, lam=1.0)
    with pytest.raises(MissingSignError):
        eta_general(system, SignAssignment.all_plus(3))
    eye = np.eye(2, dtype=complex)
    broken = BiorthonormalSystem(eye, eye, energies=np.array([1.0j, 2.0]))
    with pytest.raises(UnpairedComplexEigenvalueError):
        eta_general(broken, SignAssignment.all_plus(1))
    # a wrong sign count is reported before an unpaired label
    with pytest.raises(MissingSignError):
        eta_general(broken, SignAssignment.all_plus(2))
    # partners need not be adjacent: 1j pairs with -1j across the real label 2
    left = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    apart = BiorthonormalSystem(
        np.linalg.inv(left).conj().T, left, energies=np.array([1j, 2.0, -1j, 3.0])
    )
    sigma = np.array([1, -1])
    want = (
        sigma[0] * np.outer(left[:, 1], left[:, 1].conj())
        + sigma[1] * np.outer(left[:, 3], left[:, 3].conj())
        + np.outer(left[:, 0], left[:, 2].conj())
        + np.outer(left[:, 2], left[:, 0].conj())
    )
    assert maxabs(eta_general(apart, SignAssignment(sigma)) - want) <= 1e-14
    # |Im E| up to PAIRING_TOL * max(|E|, 1) counts as real, a little more does not
    for factor, real in ((0.99, True), (1.01, False)):
        e = np.array([3.0 + 1j * factor * PAIRING_TOL * 3.0, 1.0])
        near = BiorthonormalSystem(eye, eye, energies=e)
        if real:
            assert maxabs(eta_general(near, SignAssignment.all_plus(2)) - eye) == 0.0
        else:
            with pytest.raises(UnpairedComplexEigenvalueError):
                eta_general(near, SignAssignment.all_plus(1))


def mode_state(omega, eps, t):
    z = np.exp(-1j * eps * omega * t)
    return FieldState(
        psi=np.array([z]), psi_dot=np.array([-1j * eps * omega * z])
    )


def test_spec_coefficients_at_the_float_limit():
    # sho --lplus 1e308 --lminus 0: both weights are 1e308, whose sum
    # overflows although the half-sum L+ does not
    spec = InnerProductSpec([1e308], [1e308])
    assert spec.l_plus_coeff[0] == 1e308
    assert spec.l_minus_coeff[0] == 0.0
    omega = 1.3
    d_spec = hermitian_eigendecompose(np.array([[omega * omega]]))
    for t in (0.0, 0.7):
        f = mode_state(omega, 1, t)
        small = FieldState(0.1 * f.psi, 0.1 * f.psi_dot)
        v = solution_inner(small, small, d_spec, spec)
        assert abs(v - 1e306) <= 1e-12 * 1e306


def test_solution_inner_oscillator_values():
    omega = 1.3
    d_spec = hermitian_eigendecompose(np.array([[omega * omega]]))
    spec = InnerProductSpec([2.0], [1.0])
    # A_eps = L+ + eps L- : 2.0 for the positive branch, 1.0 for the negative
    for t in (0.0, 0.7, 2.4):
        for eps1 in (1, -1):
            for eps2 in (1, -1):
                v = solution_inner(
                    mode_state(omega, eps1, t), mode_state(omega, eps2, t), d_spec, spec
                )
                want = 0.0 if eps1 != eps2 else (2.0 if eps1 == 1 else 1.0)
                assert abs(v - want) <= 1e-12


def test_solution_inner_standing_wave_is_time_independent():
    d_spec = hermitian_eigendecompose(np.array([[4.0]]))
    spec = InnerProductSpec.uniform(1)
    for t in np.linspace(0.0, 3.0, 7):
        f = FieldState(
            psi=np.array([np.cos(2.0 * t) + 0j]),
            psi_dot=np.array([-2.0 * np.sin(2.0 * t) + 0j]),
        )
        assert abs(solution_inner(f, f, d_spec, spec) - 0.5) <= 1e-12


def test_solution_inner_rejects_indefinite_operator():
    d_spec = hermitian_eigendecompose(np.diag([-1.0, 1.0]))
    f = FieldState(psi=np.zeros(2, dtype=complex), psi_dot=np.zeros(2, dtype=complex))
    with pytest.raises(NonPositiveSpectrumError):
        solution_inner(f, f, d_spec, InnerProductSpec.uniform(2))


def test_two_component_inner_identity_and_sigma3():
    rng = generator(9, "ip:tci")
    n = 4
    f1 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    f2 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    s1, s2 = pack(f1, 1.0), pack(f2, 1.0)
    assert abs(two_component_inner(s1, s2, np.eye(2 * n)) - np.vdot(s1.vector, s2.vector)) <= 1e-12
    sigma3 = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    assert abs(two_component_inner(s1, s2, sigma3) - kg_inner(s1, s2)) <= 1e-12


def test_weighted_product_matches_field_product_across_lam():
    rng = generator(10, "ip:lam-sweep")
    n = 5
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
    spec = random_spec(rng, n)
    f1 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    f2 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    want = solution_inner(f1, f2, d_spec, spec)
    for lam in (0.5, 1.0, 2.0):
        eta = eta_tilde_plus(d_spec, lam, spec)
        got = two_component_inner(pack(f1, lam), pack(f2, lam), eta) / lam**2
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_weighted_product_symmetrizes_generator():
    # <Psi1|eta H Psi2> = <H Psi1|eta Psi2> : eta H is Hermitian
    rng = generator(11, "ip:symmetry")
    n = 5
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = random_spec(rng, n)
    lam = 1.0
    h = build_hamiltonian(d, lam)
    eta = eta_tilde_plus(d_spec, lam, spec)
    s1 = pack(FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)), lam)
    s2 = pack(FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n)), lam)
    hs2 = TwoComponentState.from_vector(h @ s2.vector, lam)
    hs1 = TwoComponentState.from_vector(h @ s1.vector, lam)
    lhs = two_component_inner(s1, hs2, eta)
    rhs = two_component_inner(hs1, s2, eta)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_eta_inv_transport():
    rng = generator(13, "ip:etainv")
    n = 3
    d = random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    lam = 1.0
    eta0 = eta_tilde_plus(d_spec, lam, random_spec(rng, n))
    # identity propagator returns the metric unchanged, and positive
    # whichever constructor made it
    for start in (eta0, eta_plus(d_spec, lam)):
        same = eta_inv(np.eye(2 * n, dtype=complex), start)
        assert maxabs(same - start) <= 1e-14
        assert np.min(np.linalg.eigvalsh(same)) > 0.0
    # constant generator: the exact propagator is eta0-pseudo-unitary, so
    # the transported metric is eta0 itself
    f0 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    result = evolve_schrodinger(d, pack(f0, lam), 0.0, 1.7, 300)
    moved = eta_inv(result.propagator, eta0)
    assert maxabs(moved - eta0) <= 1e-9 * maxabs(eta0)
    # congruence identity holds for any invertible map
    g = np.eye(2 * n, dtype=complex) + 0.1 * random_state(rng, (2 * n) ** 2).reshape(
        2 * n, 2 * n
    )
    back = g.conj().T @ eta_inv(g, eta0) @ g
    assert maxabs(back - eta0) <= 1e-10 * maxabs(eta0)
    with pytest.raises(SingularPropagatorError):
        eta_inv(np.zeros((2 * n, 2 * n)), eta0)


def test_check_pseudo_unitary_cases():
    eye = np.eye(4, dtype=complex)
    assert check_pseudo_unitary(eye, eye) <= 1e-15
    rng = generator(14, "ip:pu")
    d = random_positive_hermitian(rng, 2)
    d_spec = hermitian_eigendecompose(d)
    eta0 = eta_plus(d_spec, 1.0)
    f0 = FieldState(psi=random_state(rng, 2), psi_dot=random_state(rng, 2))
    result = evolve_schrodinger(d, pack(f0, 1.0), 0.0, 2.0, 200)
    assert check_pseudo_unitary(result.propagator, eta0) <= 1e-9
    bad = check_pseudo_unitary(2.0 * eye, eye)
    assert bad > 1e-9
    assert abs(bad - 3.0) <= 1e-12


def test_metric_rate_identity_time_dependent():
    # along the flow, d/dt <Psi1|eta(t) Psi2> = <Psi1|deta/dt Psi2> whenever
    # eta(t) intertwines H(t) at each instant; checked by central difference
    lam = 1.0
    spec = InnerProductSpec([1.7], [0.6])

    # D(t) = 4 + 2 sin t
    d_of_t = AffineSource(np.ones((1, 1, 1)), lambda ts: (4.0 + 2.0 * np.sin(ts))[:, None])

    def eta_at(t):
        return eta_tilde_plus(hermitian_eigendecompose(d_of_t.at(np.array([t]))[0]), lam, spec)

    f1 = FieldState(psi=np.array([1.0 + 0.3j]), psi_dot=np.array([0.2 - 1.1j]))
    f2 = FieldState(psi=np.array([-0.4 + 0.9j]), psi_dot=np.array([0.7 + 0.5j]))
    t_star, h = 0.8, 1e-4

    def states_at(t):
        steps = max(200, int(round(4000 * t)))
        r1 = evolve_schrodinger(d_of_t, pack(f1, lam), 0.0, t, steps)
        r2 = evolve_schrodinger(d_of_t, pack(f2, lam), 0.0, t, steps)
        return r1.state(-1).vector, r2.state(-1).vector

    def value(t):
        v1, v2 = states_at(t)
        return np.vdot(v1, eta_at(t) @ v2)

    lhs = (value(t_star + h) - value(t_star - h)) / (2.0 * h)
    eta_dot = (eta_at(t_star + h) - eta_at(t_star - h)) / (2.0 * h)
    v1, v2 = states_at(t_star)
    rhs = np.vdot(v1, eta_dot @ v2)
    print(f"metric rate lhs={lhs:.8e} rhs={rhs:.8e}")
    assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1.0)
