"""Eigensolver, operator powers, and biorthonormality checks."""

import numpy as np
import pytest

from kgmetric import (
    BiorthonormalSystem,
    SpectralDecomposition,
    check_biorthonormal,
    hermitian_eigendecompose,
    operator_power,
)
from kgmetric.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonPositiveSpectrumError,
    NotHermitianError,
)
from kgmetric.evolution import _field_map
from kgmetric.rng import generator, random_hermitian, random_positive_hermitian, random_unitary
from kgmetric.two_component import eigen_system


def maxabs(a):
    return float(np.max(np.abs(a)))


def test_diagonal_matrix_is_its_own_decomposition():
    spec = hermitian_eigendecompose(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(spec.eigenvalues, [4.0, 9.0], atol=1e-14)
    assert maxabs(np.abs(spec.eigenvectors) - np.eye(2)) <= 1e-14


def test_two_by_two_closed_form():
    spec = hermitian_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
    # eigenvectors match (1,-1)/sqrt2 and (1,1)/sqrt2 up to phase
    want = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    for col in range(2):
        overlap = abs(np.vdot(want[:, col], spec.eigenvectors[:, col]))
        assert abs(overlap - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_random_hermitian_residuals(n):
    rng = generator(0, f"spectral:residual:{n}")
    m = random_hermitian(rng, n)
    spec = hermitian_eigendecompose(m)
    assert maxabs(m @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues) <= 1e-10 * max(
        maxabs(m), 1.0
    )
    assert maxabs(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(n)) <= 1e-10
    assert spec.eigenvalues.dtype.kind == "f"
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)


def test_known_spectrum_at_grid_size():
    rng = generator(6, "spectral:known-256")
    n = 256
    u = random_unitary(rng, n)
    w = np.sort(rng.uniform(-5.0, 5.0, size=n))
    m = (u * w) @ u.conj().T
    spec = hermitian_eigendecompose(0.5 * (m + m.conj().T))
    # backward-stable solver: errors of order n * eps * ||m|| (~6e-13 here)
    np.testing.assert_allclose(spec.eigenvalues, w, rtol=0.0, atol=1e-12 * maxabs(w))
    assert maxabs(m @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues) <= 1e-12 * maxabs(w)
    assert maxabs(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_phase_convention_largest_entry_real_positive(n):
    rng = generator(7, f"spectral:phase:{n}")
    v = hermitian_eigendecompose(random_hermitian(rng, n)).eigenvectors
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    assert np.all(peak.imag == 0.0)
    assert np.all(peak.real > 0.0)


def test_lapack_failure_maps_to_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergenceError):
        hermitian_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_degenerate_cluster_stays_orthonormal():
    # LAPACK's eigenvectors are used as returned: exact and near-degenerate
    # clusters (relative gaps 0, 1e-12, 1e-9) must still come out orthonormal
    rng = generator(1, "spectral:degenerate")
    for n in (4, 16, 64):
        for gap in (0.0, 1e-12, 1e-9):
            u = random_unitary(rng, n)
            size = 3 * n // 4
            w = np.concatenate([1.0 + gap * np.arange(size), np.linspace(2.0, 3.0, n - size)])
            m = (u * w) @ u.conj().T
            m = 0.5 * (m + m.conj().T)
            spec = hermitian_eigendecompose(m)
            np.testing.assert_allclose(spec.eigenvalues, w, atol=1e-10)
            v = spec.eigenvectors
            assert maxabs(v.conj().T @ v - np.eye(n)) <= 1e-12
            assert maxabs(spec.matrix() - m) <= 1e-12


def test_non_hermitian_input_is_rejected():
    with pytest.raises(NotHermitianError):
        hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigendecompose(np.ones((2, 3)))
    # tol = 0 asks for exact Hermiticity: a defect of one ulp fails it
    assert hermitian_eigendecompose(np.diag([1.0, 2.0]), tol=0.0).n == 2
    with pytest.raises(NotHermitianError):
        hermitian_eigendecompose(np.array([[1.0, 1.0], [np.nextafter(1.0, 2.0), 1.0]]), tol=0.0)


def test_stack_solves_like_one_call_per_matrix():
    # one eigh over a stack gives each member what its own call gives, bit for
    # bit, also for a degenerate member and an all-zero one (identity basis);
    # the doubled eigensystems and step propagators built on it stack alike
    rng = generator(8, "spectral:stack")
    n = 5
    u = random_unitary(rng, n)
    degenerate = (u * np.array([1.0, 1.0, 1.0, 2.0, 3.0])) @ u.conj().T
    stack = np.stack(
        [
            random_positive_hermitian(rng, n),
            0.5 * (degenerate + degenerate.conj().T),
            np.zeros((n, n)),
            random_positive_hermitian(rng, n),
        ]
    )
    stacked = hermitian_eigendecompose(stack)
    singles = [hermitian_eigendecompose(m) for m in stack]
    for i, one in enumerate(singles):
        assert np.array_equal(stacked.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[i], one.eigenvectors)
    assert np.array_equal(stacked.eigenvectors[2], np.eye(n))
    # any leading axes stack alike, and the stacked data reassemble per member
    nested = hermitian_eigendecompose(stack.reshape(2, 2, n, n))
    assert np.array_equal(nested.eigenvalues, stacked.eigenvalues.reshape(2, 2, n))
    assert np.array_equal(nested.eigenvectors, stacked.eigenvectors.reshape(2, 2, n, n))
    for i, one in enumerate(singles):
        assert np.array_equal(stacked.matrix()[i], one.matrix())
    positive = [0, 1, 3]
    systems = eigen_system(
        SpectralDecomposition(stacked.eigenvalues[positive], stacked.eigenvectors[positive]), 0.7
    )
    for i, j in enumerate(positive):
        one = eigen_system(singles[j], 0.7)
        assert np.array_equal(systems.right_vectors[i], one.right_vectors)
        assert np.array_equal(systems.left_vectors[i], one.left_vectors)
        assert np.array_equal(systems.energies[i], one.energies)
    # the field map of the stack, zero member included, is its members' maps
    steps = _field_map(stacked, 0.7, 0.3)
    for i, one in enumerate(singles):
        assert np.array_equal(steps[i], _field_map(one, 0.7, 0.3))


def test_zero_matrix_and_tiny_sizes():
    spec = hermitian_eigendecompose(np.zeros((3, 3)))
    np.testing.assert_allclose(spec.eigenvalues, np.zeros(3))
    spec1 = hermitian_eigendecompose(np.array([[7.0]]))
    np.testing.assert_allclose(spec1.eigenvalues, [7.0])


def test_operator_power_diagonal_inverse_sqrt():
    spec = hermitian_eigendecompose(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(
        operator_power(spec, -0.5), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
    )


def test_operator_power_reconstruction_and_inverse():
    rng = generator(2, "spectral:power")
    spec = hermitian_eigendecompose(random_positive_hermitian(rng, 8))
    d = spec.matrix()
    assert maxabs(operator_power(spec, 1.0) - d) <= 1e-12 * maxabs(d)
    assert maxabs(operator_power(spec, -1.0) @ d - np.eye(8)) <= 1e-12
    assert maxabs(operator_power(spec, 0.0) - np.eye(8)) <= 1e-15


def test_operator_power_additivity():
    rng = generator(3, "spectral:power-add")
    spec = hermitian_eigendecompose(random_positive_hermitian(rng, 6))
    for g1, g2 in [(0.5, 0.5), (-0.5, 1.5), (-1.0, 2.0), (0.25, 0.75)]:
        lhs = operator_power(spec, g1) @ operator_power(spec, g2)
        rhs = operator_power(spec, g1 + g2)
        assert maxabs(lhs - rhs) <= 1e-10 * max(maxabs(rhs), 1.0)


def test_operator_power_sign_rules():
    indef = SpectralDecomposition(
        eigenvalues=np.array([-2.0, 3.0]), eigenvectors=np.eye(2, dtype=complex)
    )
    # integer nonnegative powers work for any spectrum
    np.testing.assert_allclose(operator_power(indef, 2.0), np.diag([4.0, 9.0]))
    for gamma in (-1.0, 0.5, -0.5):
        with pytest.raises(NonPositiveSpectrumError):
            operator_power(indef, gamma)


def test_dense_basis_pair_is_the_plain_products():
    # coordinates is x conj(V), synthesize z V^T, bit for bit; a stack's
    # members each act on their own row, as (1, n) rows
    rng = generator(5, "spectral:pair")
    spec = hermitian_eigendecompose(random_hermitian(rng, 6))
    v = spec.eigenvectors
    x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    np.testing.assert_array_equal(spec.coordinates(x), x @ v.conj())
    np.testing.assert_array_equal(spec.synthesize(x), x @ v.T)
    np.testing.assert_array_equal(spec.coordinates(x[0]), x[0] @ v.conj())
    stack = hermitian_eigendecompose(np.stack([random_hermitian(rng, 6) for _ in range(4)]))
    vc = stack.eigenvectors.conj()
    np.testing.assert_array_equal(stack.coordinates(x), (x[:, None, :] @ vc)[:, 0, :])
    each = np.stack([row @ member for row, member in zip(x, vc)])
    assert maxabs(stack.coordinates(x) - each) <= 1e-14 * maxabs(each)
    assert maxabs(spec.synthesize(spec.coordinates(x)) - x) <= 1e-14 * maxabs(x)


def test_biorthonormal_identity_basis():
    eye = np.eye(4, dtype=complex)
    ortho, complete = check_biorthonormal(BiorthonormalSystem(eye, eye, np.ones(4)))
    assert ortho == 0.0
    assert complete == 0.0


def test_biorthonormal_doubled_eigensystem():
    rng = generator(4, "spectral:bio")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 8))
    assert max(check_biorthonormal(eigen_system(d_spec, 1.0))) <= 1e-10


def test_biorthonormal_scaled_rights_fail():
    eye = np.eye(3, dtype=complex)
    ortho, complete = check_biorthonormal(BiorthonormalSystem(2.0 * eye, eye, np.ones(3)))
    assert abs(ortho - 1.0) <= 1e-14
    assert max(ortho, complete) > 1e-10


def test_convergence_cap_is_enforced():
    # a well-conditioned matrix cannot fail; exercise the error type by
    # asking for an absurdly tight target on an ill-scaled matrix instead
    rng = generator(5, "spectral:converge")
    m = random_hermitian(rng, 12)
    try:
        hermitian_eigendecompose(m, tol=1e-30)
    except NoConvergenceError:
        pass  # acceptable: target below machine precision
    # the default tolerance must always succeed
    hermitian_eigendecompose(m)
