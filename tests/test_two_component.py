"""First-order doubling: packing, Hamiltonian blocks, eigensystem, indefinite product."""

import numpy as np
import pytest

from kgmetric import (
    FieldState,
    TwoComponentState,
    build_hamiltonian,
    eigen_system,
    eta_plus,
    gauge_transform,
    kg_inner,
    pack,
    unpack,
)
from kgmetric.errors import (
    DimensionMismatchError,
    LambdaMismatchError,
    NonPositiveSpectrumError,
    NotHermitianError,
    SingularGaugeError,
    ZeroLambdaError,
)
from kgmetric.rng import generator, random_positive_hermitian, random_state
from kgmetric.spectral import check_biorthonormal, hermitian_eigendecompose


def maxabs(a):
    return float(np.max(np.abs(a)))


def sigma3(n):
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)]))


def test_pack_explicit_values():
    f = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([2.0 + 0j]))
    s = pack(f, lam=1.0)
    np.testing.assert_allclose(s.upper, [1.0 + 2.0j])
    np.testing.assert_allclose(s.lower, [1.0 - 2.0j])
    g = unpack(s)
    np.testing.assert_allclose(g.psi, f.psi)
    np.testing.assert_allclose(g.psi_dot, f.psi_dot)


def test_pack_unpack_roundtrip_random():
    rng = generator(0, "two:pack")
    for lam in (0.5, 1.0, 2.0, -1.3):
        f = FieldState(psi=random_state(rng, 6), psi_dot=random_state(rng, 6))
        g = unpack(pack(f, lam))
        assert maxabs(g.psi - f.psi) <= 1e-14
        assert maxabs(g.psi_dot - f.psi_dot) <= 1e-14


def test_zero_lambda_rejected():
    f = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    with pytest.raises(ZeroLambdaError):
        pack(f, lam=0.0)
    with pytest.raises(ZeroLambdaError):
        build_hamiltonian(np.array([[1.0]]), lam=0.0)


def test_vector_roundtrip():
    rng = generator(1, "two:vector")
    s = TwoComponentState(
        upper=random_state(rng, 4), lower=random_state(rng, 4), lam=0.7
    )
    t = TwoComponentState.from_vector(s.vector, lam=0.7)
    assert maxabs(t.upper - s.upper) <= 1e-15
    assert maxabs(t.lower - s.lower) <= 1e-15


def test_hamiltonian_unit_operator():
    h = build_hamiltonian(np.array([[1.0]]), lam=1.0)
    np.testing.assert_allclose(h, np.diag([1.0, -1.0]), atol=1e-14)


def test_hamiltonian_explicit_blocks():
    h = build_hamiltonian(np.array([[4.0]]), lam=1.0)
    want = np.array([[2.5, 1.5], [-1.5, -2.5]])
    assert maxabs(h - want) <= 1e-14
    np.testing.assert_allclose(sorted(np.linalg.eigvals(h).real), [-2.0, 2.0], atol=1e-12)


def test_hamiltonian_sigma3_pseudo_hermiticity():
    rng = generator(2, "two:sigma3")
    for lam in (0.5, 1.0, 2.0):
        d = random_positive_hermitian(rng, 6)
        h = build_hamiltonian(d, lam)
        s3 = sigma3(6)
        assert maxabs(h.conj().T - s3 @ h @ s3) <= 1e-12 * max(maxabs(h), 1.0)


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        build_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), lam=1.0)


def test_gauge_identity_and_spectrum():
    rng = generator(3, "two:gauge")
    d = random_positive_hermitian(rng, 4)
    h = build_hamiltonian(d, lam=1.0)
    same = gauge_transform(h, np.eye(2, dtype=complex))
    assert maxabs(same - h) <= 1e-14
    from kgmetric.rng import random_unitary

    g = random_unitary(rng, 2)
    moved = gauge_transform(h, g)
    w0 = np.sort_complex(np.linalg.eigvals(h))
    w1 = np.sort_complex(np.linalg.eigvals(moved))
    assert maxabs(w0 - w1) <= 1e-10


def test_gauge_time_derivative_term():
    # g(t) = diag(e^{it}, 1): transformed generator picks up +i g_dot g^{-1}
    h = build_hamiltonian(np.array([[1.0]]), lam=1.0)
    g = np.diag([np.exp(1j * 0.4), 1.0])
    g_dot = np.diag([1j * np.exp(1j * 0.4), 0.0])
    moved = gauge_transform(h, g, g_dot)
    want = g @ h @ np.linalg.inv(g) + 1j * g_dot @ np.linalg.inv(g)
    assert maxabs(moved - want) <= 1e-14


def test_gauge_singular_map_rejected():
    h = build_hamiltonian(np.array([[1.0]]), lam=1.0)
    with pytest.raises(SingularGaugeError):
        gauge_transform(h, np.zeros((2, 2), dtype=complex))


def test_eigen_system_single_mode_closed_form():
    # one mode, omega = 2, lam = 1: right (3, -1), left (3, 1)/8
    d_spec = hermitian_eigendecompose(np.array([[4.0]]))
    system = eigen_system(d_spec, lam=1.0)
    np.testing.assert_allclose(system.energies, [2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(system.right_vectors[:, 0], [3.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(system.left_vectors[:, 0], [3.0 / 8.0, 1.0 / 8.0], atol=1e-12)
    np.testing.assert_allclose(system.right_vectors[:, 1], [-1.0, 3.0], atol=1e-12)
    assert abs(np.vdot(system.left_vectors[:, 0], system.right_vectors[:, 0]) - 1.0) <= 1e-12


def test_eigen_system_unit_frequency():
    d_spec = hermitian_eigendecompose(np.array([[1.0]]))
    system = eigen_system(d_spec, lam=1.0)
    np.testing.assert_allclose(system.right_vectors[:, 0], [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(system.right_vectors[:, 1], [0.0, 2.0], atol=1e-12)


def test_eigen_system_solves_hamiltonian():
    rng = generator(4, "two:eigsys")
    for lam in (0.5, 1.0, 2.0):
        d = random_positive_hermitian(rng, 5)
        d_spec = hermitian_eigendecompose(d)
        h = build_hamiltonian(d, lam)
        system = eigen_system(d_spec, lam)
        resid = h @ system.right_vectors - system.right_vectors * system.energies
        assert maxabs(resid) <= 1e-10 * max(maxabs(h), 1.0)
        # left vectors solve the adjoint problem
        lresid = h.conj().T @ system.left_vectors - system.left_vectors * np.conj(
            system.energies
        )
        assert maxabs(lresid) <= 1e-10 * max(maxabs(h), 1.0)
        assert max(check_biorthonormal(system)) <= 1e-10


def test_eigen_system_energy_labels():
    rng = generator(5, "two:labels")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 4))
    system = eigen_system(d_spec, lam=1.0)
    omegas = np.sqrt(d_spec.eigenvalues)
    np.testing.assert_allclose(system.energies[:4], omegas, atol=1e-12)
    np.testing.assert_allclose(system.energies[4:], -omegas, atol=1e-12)


def test_eigen_system_zero_mode_rejected():
    d_spec = hermitian_eigendecompose(np.diag([0.0, 1.0]))
    with pytest.raises(NonPositiveSpectrumError):
        eigen_system(d_spec, lam=1.0)
    with pytest.raises(NonPositiveSpectrumError):
        eigen_system(d_spec, lam=1.0, allow_complex=True)


def test_eigen_system_negative_mode_needs_opt_in():
    d_spec = hermitian_eigendecompose(np.diag([-1.0, 4.0]))
    with pytest.raises(NonPositiveSpectrumError):
        eigen_system(d_spec, lam=1.0)
    system = eigen_system(d_spec, lam=1.0, allow_complex=True)
    # energies come in conjugate pairs: spectrum closed under conjugation
    w = np.sort_complex(system.energies)
    wc = np.sort_complex(np.conj(system.energies))
    assert maxabs(w - wc) <= 1e-12
    assert max(check_biorthonormal(system)) <= 1e-10


def test_eta_plus_explicit_values():
    d_spec = hermitian_eigendecompose(np.array([[1.0]]))
    np.testing.assert_allclose(eta_plus(d_spec, lam=1.0), np.eye(2) / 4.0, atol=1e-14)
    d_spec4 = hermitian_eigendecompose(np.array([[4.0]]))
    want = np.array([[1.25, 0.75], [0.75, 1.25]]) / 8.0
    assert maxabs(eta_plus(d_spec4, lam=1.0) - want) <= 1e-14


def test_eta_plus_matches_left_vector_sum():
    rng = generator(6, "two:etaplus")
    for lam in (0.5, 1.0, 2.0):
        d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 6))
        eta = eta_plus(d_spec, lam)
        system = eigen_system(d_spec, lam)
        left = system.left_vectors
        direct = left @ left.conj().T
        assert maxabs(eta - direct) <= 1e-12 * max(maxabs(eta), 1.0)
        # positive definite and Hermitian
        assert maxabs(eta - eta.conj().T) <= 1e-13
        assert np.min(np.linalg.eigvalsh(eta)) > 0.0


def test_eta_plus_pseudo_hermiticity_relation():
    rng = generator(7, "two:intertwine")
    d = random_positive_hermitian(rng, 5)
    d_spec = hermitian_eigendecompose(d)
    h = build_hamiltonian(d, lam=1.0)
    eta = eta_plus(d_spec, lam=1.0)
    assert maxabs(h.conj().T @ eta - eta @ h) <= 1e-10 * max(maxabs(h), 1.0)


def test_kg_inner_mode_values():
    # single oscillator: positive branch norm 4*lam*omega, negative -4*lam*omega
    for omega in (1.0, 2.5):
        for lam in (0.5, 1.0, 2.0):
            f_plus = FieldState(
                psi=np.array([1.0 + 0j]), psi_dot=np.array([-1j * omega])
            )
            f_minus = FieldState(
                psi=np.array([1.0 + 0j]), psi_dot=np.array([1j * omega])
            )
            sp = pack(f_plus, lam)
            sm = pack(f_minus, lam)
            assert abs(kg_inner(sp, sp) - 4.0 * lam * omega) <= 1e-12
            assert abs(kg_inner(sm, sm) + 4.0 * lam * omega) <= 1e-12
            assert abs(kg_inner(sp, sm)) <= 1e-12


def test_kg_inner_real_solution_has_zero_norm():
    rng = generator(8, "two:kgreal")
    psi = rng.standard_normal(5).astype(complex)
    psi_dot = rng.standard_normal(5).astype(complex)
    s = pack(FieldState(psi=psi, psi_dot=psi_dot), lam=1.0)
    assert abs(kg_inner(s, s)) <= 1e-13


def test_kg_inner_self_product_is_real():
    rng = generator(9, "two:kgself")
    f = FieldState(psi=random_state(rng, 6), psi_dot=random_state(rng, 6))
    s = pack(f, lam=1.3)
    assert abs(kg_inner(s, s).imag) <= 1e-13


def test_kg_inner_mismatch_errors():
    f1 = FieldState(psi=np.array([1.0 + 0j]), psi_dot=np.array([0.0 + 0j]))
    f2 = FieldState(
        psi=np.array([1.0 + 0j, 0.0 + 0j]), psi_dot=np.array([0.0 + 0j, 0.0 + 0j])
    )
    with pytest.raises(DimensionMismatchError):
        kg_inner(pack(f1, 1.0), pack(f2, 1.0))
    with pytest.raises(LambdaMismatchError):
        kg_inner(pack(f1, 1.0), pack(f1, 2.0))
