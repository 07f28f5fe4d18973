"""Three worked models: oscillator, massive lattice field, minisuperspace."""

import math

import numpy as np
import pytest

from kgmetric import (
    FieldState,
    InnerProductSpec,
    evolve_field,
    invariant_inner_frozen,
    kg_inner,
    pack,
    solution_inner,
)
from kgmetric.errors import (
    NonPositiveAError,
    NonPositiveSpectrumError,
    NotHermitianError,
    OutOfFamilyError,
    UnresolvedBasisError,
)
from kgmetric.models.lattice import (
    KleinGordonLattice,
    kg_band_limited_solution,
    kg_inner_ri,
    kg_mode_solution,
    kg_nonrel_limit_check,
    kg_relativistic_spec,
    kg_superposition,
    woodard_inner,
)
from kgmetric.models.sho import ShoModel, sho_basic_solution, sho_inner
from kgmetric.models.wdw import (
    ALL_POSITIVE,
    HAS_NEGATIVE,
    HAS_ZERO_MODE,
    WdwFrwModel,
    hermite_function_table,
    wdw_instantaneous_inner,
    wdw_invariant_inner,
    wdw_numeric_crosscheck,
    wdw_operator,
    wdw_positivity,
)
from kgmetric.rng import generator
from kgmetric.spectral import hermitian_eigendecompose


def maxabs(a):
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------- oscillator


def test_sho_model_frequency_sources():
    const = ShoModel(omega=2.0)
    assert const.omega_at(5.0) == 2.0
    np.testing.assert_allclose(const.d_matrix(), [[4.0]])
    np.testing.assert_allclose(const.d_spec().eigenvalues, [4.0])
    driven = ShoModel(omega_of_t=lambda t: 2.0 + np.sin(t))
    assert abs(driven.omega_at(np.pi / 2.0) - 3.0) <= 1e-12
    assert callable(driven.d_source())
    with pytest.raises(ValueError):
        ShoModel(omega=-1.0)
    with pytest.raises(ValueError):
        ShoModel(omega_of_t=lambda t: -1.0).omega_at(0.0)


@pytest.mark.parametrize(
    "l_plus,l_minus",
    [(1.0, 0.0), (1.5, 0.5), (2.0, -1.0)],
)
def test_sho_inner_basic_solution_table(l_plus, l_minus):
    # <<zeta_eps'|zeta_eps>> = delta * (l_plus + eps l_minus), at every time
    omega = 1.3
    for t in (0.0, 0.8, 3.1):
        for e1 in (1, -1):
            for e2 in (1, -1):
                v = sho_inner(
                    sho_basic_solution(omega, e1, t),
                    sho_basic_solution(omega, e2, t),
                    omega,
                    l_plus,
                    l_minus,
                )
                want = 0.0 if e1 != e2 else l_plus + e1 * l_minus
                assert abs(v - want) <= 1e-12


def test_sho_inner_real_solution_positive_but_kg_null():
    # cos(omega t) has zero indefinite norm but positive invariant norm
    omega = 2.0
    for t in (0.0, 0.4, 1.9):
        x = (np.cos(omega * t), -omega * np.sin(omega * t))
        v = sho_inner(x, x, omega)
        assert abs(v - 0.5) <= 1e-12
        f = FieldState(
            psi=np.array([x[0] + 0j]), psi_dot=np.array([x[1] + 0j])
        )
        assert abs(kg_inner(pack(f, 1.0), pack(f, 1.0))) <= 1e-12


def test_sho_inner_matches_generic_machinery():
    omega = 1.7
    d_spec = hermitian_eigendecompose(np.array([[omega**2]]))
    spec = InnerProductSpec([2.0], [1.0])  # l_plus 1.5, l_minus 0.5
    rng = generator(0, "models:sho-generic")
    for _ in range(5):
        x1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f1 = FieldState(psi=x1[:1], psi_dot=x1[1:])
        f2 = FieldState(psi=x2[:1], psi_dot=x2[1:])
        lhs = sho_inner((x1[0], x1[1]), (x2[0], x2[1]), omega, 1.5, 0.5)
        rhs = solution_inner(f1, f2, d_spec, spec)
        assert abs(lhs - rhs) <= 1e-12


def test_sho_inner_rejects_indefinite_weights():
    x = (1.0, 0.0)
    with pytest.raises(NonPositiveAError):
        sho_inner(x, x, 1.0, 1.0, 1.0)
    with pytest.raises(NonPositiveAError):
        sho_inner(x, x, 1.0, 0.5, -0.5)
    with pytest.raises(NonPositiveAError):
        sho_inner(x, x, 1.0, -1.0, 0.0)


def test_sho_invariance_along_evolution():
    omega = 1.3
    model = ShoModel(omega=omega)
    f0 = sho_basic_solution(omega, 1, 0.0)
    traj = evolve_field(model.d_matrix(), f0, 0.0, 6.0, 6000, sample_every=600)
    v0 = sho_inner(traj.state(0), traj.state(0), omega, 1.5, 0.5)
    for i in range(len(traj)):
        vi = sho_inner(traj.state(i), traj.state(i), omega, 1.5, 0.5)
        assert abs(vi - v0) <= 1e-9


# ------------------------------------------------------------------- lattice


def test_lattice_smallest_case_spectrum():
    lattice = KleinGordonLattice(sites=2, mu=1.0)
    assert set(lattice.mode_indices.tolist()) == {0, -1}
    np.testing.assert_allclose(np.sort(lattice.omega_sq), [1.0, 2.0], atol=1e-12)
    # d_matrix reproduces the spectral data
    w = np.linalg.eigvalsh(lattice.d_matrix)
    np.testing.assert_allclose(w, np.sort(lattice.omega_sq), atol=1e-12)


def test_lattice_modes_are_orthonormal_and_complete():
    lattice = KleinGordonLattice(sites=16, mu=5.0)
    v = lattice.modes
    assert maxabs(v.conj().T @ v - np.eye(16)) <= 1e-12
    assert maxabs(v @ v.conj().T - np.eye(16)) <= 1e-12
    np.testing.assert_allclose(
        lattice.omega_sq, lattice.wavenumbers**2 + lattice.mu**2, atol=1e-12
    )


def test_lattice_mode_solution_solves_equation():
    lattice = KleinGordonLattice(sites=8, mu=2.0)
    for eps in (1, -1):
        f = kg_mode_solution(lattice, eps, j=1, t=0.6)
        # second derivative of exp(-i eps omega t) phi is -omega^2 psi
        accel = -lattice.d_matrix @ f.psi
        omega = lattice.omegas[lattice.column_of(1)]
        assert maxabs(accel + omega**2 * f.psi) <= 1e-12
        assert maxabs(f.psi_dot + 1j * eps * omega * f.psi) <= 1e-12


def test_lattice_mode_matrix_with_normalization():
    # <<mode_eps'j'|mode_epsj>> = delta delta (1 + eps a) omega/mu |N|^2
    lattice = KleinGordonLattice(sites=4, mu=5.0)
    a = 0.5
    norm = 2.0
    t = 0.37
    js = lattice.mode_indices.tolist()
    for e1 in (1, -1):
        for e2 in (1, -1):
            for j1 in js:
                for j2 in js:
                    f1 = kg_mode_solution(lattice, e1, j1, t, normalization=norm)
                    f2 = kg_mode_solution(lattice, e2, j2, t, normalization=norm)
                    v = kg_inner_ri(f1, f2, lattice, a)
                    if (e1, j1) != (e2, j2):
                        assert abs(v) <= 1e-12
                    else:
                        omega = lattice.omegas[lattice.column_of(j1)]
                        want = (1.0 + e1 * a) * omega / lattice.mu * norm**2
                        assert abs(v - want) <= 1e-12 * max(want, 1.0)


def test_lattice_product_time_independent():
    lattice = KleinGordonLattice(sites=8, mu=1.5)
    rng = generator(1, "models:kg-time")
    f0 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    g0 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    coeffs_f = {}
    coeffs_g = {}
    # reconstruct the mode coefficients once, then resample both at any t
    v = lattice.modes
    for j in lattice.mode_indices.tolist():
        col = lattice.column_of(j)
        w = lattice.omegas[col]
        for coeffs, f in ((coeffs_f, f0), (coeffs_g, g0)):
            c = np.vdot(v[:, col], f.psi)
            d = np.vdot(v[:, col], f.psi_dot)
            coeffs[(1, j)] = 0.5 * (c + 1j * d / w)
            coeffs[(-1, j)] = 0.5 * (c - 1j * d / w)
    ref = kg_inner_ri(f0, g0, lattice, 0.3)
    for t in (0.0, 1.1, 4.7, 10.0):
        ft = kg_superposition(lattice, coeffs_f, t)
        gt = kg_superposition(lattice, coeffs_g, t)
        vt = kg_inner_ri(ft, gt, lattice, 0.3)
        assert abs(vt - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_lattice_band_limited_draw_order():
    # one batched draw equals per-mode size-2 draws in (column, eps) order
    lattice = KleinGordonLattice(sites=16, mu=1.5)
    for k_max in (np.inf, 2.0):
        for positive_energy in (True, False):
            got = kg_band_limited_solution(
                lattice, k_max, generator(7, "models:draws"), t=0.8,
                positive_energy=positive_energy,
            )
            rng = generator(7, "models:draws")
            coeffs = {}
            for col in np.nonzero(np.abs(lattice.wavenumbers) <= k_max)[0]:
                for eps in (1,) if positive_energy else (1, -1):
                    re, im = rng.normal(size=2)
                    coeffs[(eps, int(lattice.mode_indices[col]))] = re + 1j * im
            want = kg_superposition(lattice, coeffs, t=0.8)
            assert maxabs(got.psi - want.psi) <= 1e-13
            assert maxabs(got.psi_dot - want.psi_dot) <= 1e-13


def test_lattice_superposition_rejects_bad_labels():
    lattice = KleinGordonLattice(sites=16, mu=1.5)
    with pytest.raises(ValueError):
        kg_superposition(lattice, {(2, 0): 1.0})
    with pytest.raises(ValueError):
        kg_superposition(lattice, {(1, 99): 1.0})


def test_lattice_family_matches_weighted_spec():
    lattice = KleinGordonLattice(sites=8, mu=2.0)
    rng = generator(2, "models:kg-family")
    f1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    f2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    for a in (0.0, 0.5, -0.5, 0.9):
        spec = kg_relativistic_spec(lattice, 1.0 + a, 1.0 - a)
        lhs = kg_inner_ri(f1, f2, lattice, a)
        rhs = solution_inner(f1, f2, lattice.d_spec, spec)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)
    with pytest.raises(OutOfFamilyError):
        kg_inner_ri(f1, f2, lattice, 1.0)
    with pytest.raises(OutOfFamilyError):
        kg_inner_ri(f1, f2, lattice, -1.2)


def test_lattice_gauge_fixed_member_dual_forms():
    lattice = KleinGordonLattice(sites=8, mu=1.0)
    rng = generator(3, "models:woodard")
    f1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    f2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    proj = woodard_inner(f1, f2, lattice, form="projection")
    direct = woodard_inner(f1, f2, lattice, form="direct")
    member = kg_inner_ri(f1, f2, lattice, 0.0)
    assert abs(proj - direct) <= 1e-12 * max(abs(direct), 1.0)
    assert abs(proj - member) <= 1e-12 * max(abs(member), 1.0)
    with pytest.raises(ValueError):
        woodard_inner(f1, f2, lattice, form="other")


def test_lattice_positive_energy_projection_annihilation():
    # positive-energy data has no minus-frequency part: the projection form
    # loses its second term and the family reduces to (1 + a) * gauge-fixed
    lattice = KleinGordonLattice(sites=8, mu=2.0)
    rng = generator(4, "models:kg-posenergy")
    f1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=True)
    f2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=True)
    for f in (f1, f2):
        c = lattice.modes.conj().T @ f.psi
        d = lattice.modes.conj().T @ f.psi_dot
        c_minus = 0.5 * (c - 1j * d / lattice.omegas)
        assert maxabs(c_minus) <= 1e-12 * max(maxabs(c), 1.0)
    ref = woodard_inner(f1, f2, lattice)
    for a in (0.0, 0.5, -0.7, 0.95):
        got = kg_inner_ri(f1, f2, lattice, a)
        assert abs(got - (1.0 + a) * ref) <= 1e-10 * max(abs(ref), 1.0)


def test_lattice_nonrelativistic_limit():
    lattice = KleinGordonLattice(sites=32, mu=50.0)
    rng = generator(5, "models:kg-nonrel")
    k_max = 0.1 * lattice.mu
    f1 = kg_band_limited_solution(lattice, k_max, rng)
    f2 = kg_band_limited_solution(lattice, k_max, rng)
    report = kg_nonrel_limit_check(f1, f2, lattice, a_plus=1.3)
    print(f"nonrel gap at mu=50: {report.relative_gap:.3e}")
    assert report.relative_gap <= 0.02


def test_lattice_nonrelativistic_gap_scales_with_mass():
    # same spatial band, ten-fold mass: the gap falls like 1/mu^2
    rng = generator(6, "models:kg-nonrel-scale")
    gaps = {}
    for mu in (50.0, 500.0):
        lattice = KleinGordonLattice(sites=32, mu=mu)
        f1 = kg_band_limited_solution(lattice, 5.0, generator(6, "models:a"), t=0.0)
        f2 = kg_band_limited_solution(lattice, 5.0, generator(6, "models:b"), t=0.0)
        gaps[mu] = kg_nonrel_limit_check(f1, f2, lattice, a_plus=1.0).relative_gap
    ratio = gaps[50.0] / gaps[500.0]
    print(f"nonrel gaps {gaps[50.0]:.3e} -> {gaps[500.0]:.3e}, ratio {ratio:.1f}")
    assert 50.0 <= ratio <= 200.0


# ----------------------------------------------------------- minisuperspace


def test_wdw_spectrum_closed_form():
    model = WdwFrwModel(mass=1.5, kappa=1, alpha0=0.0, modes=4)
    for alpha in (0.0, 0.3, -0.4):
        w = model.omega_sq(alpha)
        n = np.arange(4)
        want = 1.5 * np.exp(3.0 * alpha) * (2 * n + 1) - np.exp(4.0 * alpha)
        np.testing.assert_allclose(w, want, atol=1e-12)
    spec = wdw_operator(model, 0.2)
    np.testing.assert_allclose(spec.eigenvalues, model.omega_sq(0.2), atol=1e-14)


def test_wdw_positivity_classification():
    assert wdw_positivity(WdwFrwModel(mass=1.0, kappa=-1), 0.0) == ALL_POSITIVE
    assert wdw_positivity(WdwFrwModel(mass=1.0, kappa=0), 5.0) == ALL_POSITIVE
    assert wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), 0.0) == HAS_ZERO_MODE
    assert wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), np.log(2.0)) == HAS_NEGATIVE
    assert wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), 0.7) == HAS_NEGATIVE
    # closed universe crosses zero where the volume matches the mass
    assert wdw_positivity(WdwFrwModel(mass=3.0, kappa=1), np.log(3.0) - 0.1) == ALL_POSITIVE
    assert wdw_positivity(WdwFrwModel(mass=3.0, kappa=1), np.log(3.0) + 0.1) == HAS_NEGATIVE


def test_wdw_basis_orthonormal_at_anchor():
    model = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.3, modes=8)
    b = model.overlap_matrix(0.3, 0.3)
    assert maxabs(b - np.eye(8)) <= 1e-12


def test_wdw_overlap_against_brute_force_integral():
    model = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.0, modes=5)
    a1, a2 = 0.0, 0.35
    b = model.overlap_matrix(a1, a2)
    phi = np.linspace(-12.0, 12.0, 20001)
    s1, s2 = model.basis_scale(a1), model.basis_scale(a2)
    h1 = np.sqrt(s1) * hermite_function_table(5, s1 * phi)
    h2 = np.sqrt(s2) * hermite_function_table(5, s2 * phi)
    brute = np.trapezoid(h1[:, None, :] * h2[None, :, :], phi, axis=2)
    assert maxabs(b - brute) <= 1e-8


def test_wdw_hermite_functions_match_numpy():
    # compare against explicitly normalized numpy Hermite polynomials
    u = np.linspace(-3.0, 3.0, 41)
    table = hermite_function_table(6, u)
    for n in range(6):
        coeff = np.zeros(n + 1)
        coeff[n] = 1.0
        h_poly = np.polynomial.hermite.hermval(u, coeff)
        norm = np.pi**-0.25 / np.sqrt(2.0**n * float(math.factorial(n)))
        want = norm * h_poly * np.exp(-0.5 * u * u)
        assert maxabs(table[n] - want) <= 1e-10


def test_wdw_hermite_table_takes_stacked_arguments():
    # the overlap builds both bases' tables in one recurrence over a (2, Q) stack
    u = np.stack([np.linspace(-3.0, 3.0, 41), np.linspace(-1.0, 5.0, 41)])
    table = hermite_function_table(6, u)
    assert table.shape == (6, 2, 41)
    for row in range(2):
        np.testing.assert_array_equal(table[:, row], hermite_function_table(6, u[row]))


def test_wdw_anchored_operator_is_diagonal_at_anchor():
    model = WdwFrwModel(mass=1.0, kappa=-1, alpha0=0.2, modes=6)
    d = model.d_anchored(0.2)
    np.testing.assert_allclose(d, np.diag(model.omega_sq(0.2)), atol=1e-12)


def test_wdw_ground_state_norm():
    model = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.0, modes=4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    f = FieldState(psi=psi, psi_dot=np.zeros(4, dtype=complex))
    assert abs(wdw_invariant_inner(f, f, model) - 0.5) <= 1e-12


def test_wdw_invariant_matches_generic_uniform_product():
    model = WdwFrwModel(mass=1.0, kappa=-1, alpha0=0.1, modes=6)
    rng = generator(7, "models:wdw-reduce")
    f1 = FieldState(
        psi=rng.standard_normal(6) + 1j * rng.standard_normal(6),
        psi_dot=rng.standard_normal(6) + 1j * rng.standard_normal(6),
    )
    f2 = FieldState(
        psi=rng.standard_normal(6) + 1j * rng.standard_normal(6),
        psi_dot=rng.standard_normal(6) + 1j * rng.standard_normal(6),
    )
    lhs = wdw_invariant_inner(f1, f2, model, alpha=0.1)
    d_spec = hermitian_eigendecompose(model.d_anchored(0.1))
    rhs = solution_inner(f1, f2, d_spec, InnerProductSpec.uniform(6))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_wdw_invariant_refuses_sign_crossing():
    model = WdwFrwModel(mass=1.0, kappa=1, alpha0=0.0, modes=4)
    f = FieldState(psi=np.zeros(4, dtype=complex), psi_dot=np.zeros(4, dtype=complex))
    with pytest.raises(NonPositiveSpectrumError):
        wdw_invariant_inner(f, f, model, alpha=0.5)


def test_wdw_instantaneous_refuses_zero_mode(monkeypatch):
    model = WdwFrwModel(mass=1.0, kappa=1, alpha0=0.0, modes=8)
    rng = generator(9, "models:wdw-zero-mode")
    f = FieldState(
        psi=rng.standard_normal(8) + 1j * rng.standard_normal(8),
        psi_dot=rng.standard_normal(8) + 1j * rng.standard_normal(8),
    )
    assert wdw_positivity(model, 0.0) == HAS_ZERO_MODE
    with pytest.raises(NonPositiveSpectrumError):
        wdw_instantaneous_inner(f, f, model, 0.0)
    # a singular anchored operator where the spectrum is positive still raises
    monkeypatch.setattr(
        WdwFrwModel, "d_anchored", lambda self, alpha, anchor=None: np.zeros((8, 8))
    )
    with pytest.raises(NonPositiveSpectrumError):
        wdw_instantaneous_inner(f, f, model, -0.5)


def test_wdw_crosscheck_zero_mode_is_measured_against_block_scale():
    model = WdwFrwModel(mass=1.0, kappa=1, alpha0=0.0, modes=8)
    report = wdw_numeric_crosscheck(model)
    assert report.analytic[0] == 0.0
    assert np.isfinite(report.max_rel_error)
    scale = maxabs(report.analytic)
    assert report.rel_errors[0] == abs(report.numeric[0]) / scale
    np.testing.assert_array_equal(
        report.rel_errors[1:],
        np.abs(report.numeric[1:] - report.analytic[1:]) / np.abs(report.analytic[1:]),
    )


def test_wdw_crosscheck_rejects_overflowing_stencil():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotHermitianError):
            wdw_numeric_crosscheck(WdwFrwModel(), alpha=200.0)


def test_wdw_frozen_product_constant_along_flow():
    model = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.0, modes=6)
    rng = generator(8, "models:wdw-frozen")
    f1 = FieldState(
        psi=rng.standard_normal(6) + 1j * rng.standard_normal(6),
        psi_dot=rng.standard_normal(6) + 1j * rng.standard_normal(6),
    )
    f2 = FieldState(
        psi=rng.standard_normal(6) + 1j * rng.standard_normal(6),
        psi_dot=rng.standard_normal(6) + 1j * rng.standard_normal(6),
    )
    source = model.d_source()
    traj1 = evolve_field(source, f1, 0.0, 0.4, 2000, sample_every=200)
    traj2 = evolve_field(source, f2, 0.0, 0.4, 2000, sample_every=200)
    d_spec0 = hermitian_eigendecompose(model.d_anchored(0.0))
    frozen = invariant_inner_frozen(traj1, traj2, 0.0, d_spec0, InnerProductSpec.uniform(6))
    want = wdw_invariant_inner(f1, f2, model)
    assert abs(frozen - want) <= 1e-12 * max(abs(want), 1.0)
    # the instantaneous product drifts; the frozen value is pinned by its t0 data
    inst0 = wdw_instantaneous_inner(f1, f2, model, 0.0)
    inst1 = wdw_instantaneous_inner(
        traj1.state(-1), traj2.state(-1), model, 0.4
    )
    assert abs(inst0 - want) <= 1e-12 * max(abs(want), 1.0)
    assert abs(inst1 - inst0) > 1e-4 * max(abs(inst0), 1.0)


def test_wdw_crosscheck_second_order_in_grid():
    model = WdwFrwModel(mass=1.0, kappa=-1, alpha0=0.0, modes=8)
    rep_coarse = wdw_numeric_crosscheck(model, grid=64)
    rep_fine = wdw_numeric_crosscheck(model, grid=128)
    ratio = rep_coarse.rel_errors[-1] / rep_fine.rel_errors[-1]
    print(
        f"crosscheck rel errors {rep_coarse.rel_errors[-1]:.3e} -> "
        f"{rep_fine.rel_errors[-1]:.3e}, ratio {ratio:.2f}"
    )
    assert rep_fine.rel_errors[-1] < rep_coarse.rel_errors[-1]
    assert 3.0 <= ratio <= 5.0
    np.testing.assert_allclose(rep_fine.analytic, model.omega_sq(0.0), atol=1e-12)


def test_wdw_crosscheck_unresolved_grid_raises_with_report():
    model = WdwFrwModel(mass=1.0, kappa=-1, alpha0=0.0, modes=8)
    with pytest.raises(UnresolvedBasisError) as excinfo:
        wdw_numeric_crosscheck(model, grid=32)
    report = excinfo.value.report
    assert report.grid == 32
    assert report.rel_errors[-1] > 0.05


def test_wdw_model_validation():
    with pytest.raises(ValueError):
        WdwFrwModel(mass=0.0)
    with pytest.raises(ValueError):
        WdwFrwModel(kappa=2)
    with pytest.raises(ValueError):
        WdwFrwModel(modes=0)
    model = WdwFrwModel(modes=16)
    with pytest.raises(ValueError):
        wdw_numeric_crosscheck(model, grid=8)
