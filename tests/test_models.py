"""Three worked models: oscillator, massive lattice field, minisuperspace."""

import math

import numpy as np
import pytest

from kgmetric import (
    AffineSource,
    FieldState,
    InnerProductSpec,
    drift_report,
    evolve_field,
    kg_inner,
    pack,
    solution_inner,
)
from kgmetric.errors import (
    DimensionMismatchError,
    KgMetricError,
    NonPositiveAError,
    NonPositiveSpectrumError,
    NotHermitianError,
    OutOfFamilyError,
)
from kgmetric.inner_products import _field_inner
from kgmetric.models.lattice import (
    KleinGordonLattice,
    _band_limited_rows,
    _kg_gram,
    _lattice_solution,
    _woodard_rows,
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
    BOX_HALF_WIDTH,
    HAS_NEGATIVE,
    HAS_ZERO_MODE,
    WdwFrwModel,
    hermite_function_table,
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
    np.testing.assert_allclose(const.d_spec().matrix(), [[4.0]])
    np.testing.assert_allclose(const.d_spec().eigenvalues, [4.0])
    with pytest.raises(ValueError):
        ShoModel(omega=-1.0)


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
    traj = evolve_field(model.d_spec(), f0, 0.0, 6.0, 6000, sample_every=600)
    v0 = sho_inner(traj.state(0), traj.state(0), omega, 1.5, 0.5)
    for i in range(len(traj)):
        vi = sho_inner(traj.state(i), traj.state(i), omega, 1.5, 0.5)
        assert abs(vi - v0) <= 1e-9


# ------------------------------------------------------------------- lattice


def test_lattice_smallest_case_spectrum():
    lattice = KleinGordonLattice(sites=2, mu=1.0)
    assert set(lattice.mode_indices.tolist()) == {0, -1}
    np.testing.assert_allclose(np.sort(lattice.omega_sq), [1.0, 2.0], atol=1e-12)
    # d_spec.matrix() reproduces the spectral data
    w = np.linalg.eigvalsh(lattice.d_spec.matrix())
    np.testing.assert_allclose(w, np.sort(lattice.omega_sq), atol=1e-12)


def test_lattice_modes_are_orthonormal_and_complete():
    lattice = KleinGordonLattice(sites=16, mu=5.0)
    v = lattice.modes
    assert maxabs(v.conj().T @ v - np.eye(16)) <= 1e-12
    assert maxabs(v @ v.conj().T - np.eye(16)) <= 1e-12
    np.testing.assert_allclose(
        lattice.omega_sq, lattice.wavenumbers**2 + lattice.mu**2, atol=1e-12
    )


@pytest.mark.parametrize("sites", [2, 3, 17, 64, 128])
def test_lattice_basis_pair_is_the_dense_products(sites):
    # the FFT pair keeps the dense spectral data; its x conj(V) and z V^T are
    # FFTs. Against the DFT matrix with its phase reduced mod N first the pair
    # holds 1e-14, and against the dense products it is off by no more than
    # their own rounding besides
    lattice = KleinGordonLattice(sites=sites, mu=1.0)
    pair, v = lattice.d_spec, lattice.modes
    assert np.array_equal(pair.eigenvalues, lattice.omega_sq)
    assert np.array_equal(pair.eigenvectors, v)
    phase = np.outer(np.arange(sites), lattice.mode_indices) % sites
    exact = np.exp(2j * np.pi * phase / sites) / np.sqrt(sites)
    rng = generator(sites, "models:fft-pair")
    for shape in ((sites,), (5, sites), (2, 3, sites)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for got, dense, want in (
            (pair.coordinates(x), x @ v.conj(), x @ exact.conj()),
            (pair.synthesize(x), x @ v.T, x @ exact.T),
        ):
            assert got.shape == shape
            scale = maxabs(want)
            assert maxabs(got - want) <= 1e-14 * scale
            assert maxabs(got - dense) <= maxabs(dense - want) + 1e-14 * scale


@pytest.mark.parametrize("sites", [2, 3, 17, 128, 1024])
def test_lattice_modes_are_the_integer_phase_dft(sites):
    # each entry is exp(2 pi i ((m j) mod N) / N) / sqrt(N) to 1e-15 of
    # 1/sqrt(N), per real and imaginary part, at every size: the reference
    # takes the integer phase in extended precision (bound set before the
    # first run; the rounded phase x k was 9.5e-14 off at 128 sites)
    lattice = KleinGordonLattice(sites=sites, mu=1.0)
    phase = np.outer(np.arange(sites), lattice.mode_indices) % sites
    angle = 2 * np.arccos(np.longdouble(-1)) * phase.astype(np.longdouble) / sites
    norm = np.sqrt(np.longdouble(sites))
    v = lattice.modes
    for got, want in ((v.real, np.cos(angle) / norm), (v.imag, np.sin(angle) / norm)):
        assert float(np.max(np.abs(got - want))) * np.sqrt(sites) <= 1e-15


def test_lattice_mode_solution_solves_equation():
    lattice = KleinGordonLattice(sites=8, mu=2.0)
    for eps in (1, -1):
        f = kg_mode_solution(lattice, eps, j=1, t=0.6)
        # second derivative of exp(-i eps omega t) phi is -omega^2 psi
        accel = -lattice.d_spec.matrix() @ f.psi
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
    proj = woodard_inner(f1, f2, lattice)
    member = kg_inner_ri(f1, f2, lattice, 0.0)
    assert abs(proj - member) <= 1e-12 * max(abs(member), 1.0)


@pytest.mark.parametrize("sites", [7, 12])
def test_lattice_gram_matches_pairwise_products(sites):
    # one stacked Gram against the per-pair wrappers, rows (5) != columns (4)
    lattice = KleinGordonLattice(sites=sites, mu=1.5)
    rng = generator(6, "models:kg-gram")
    rows = [
        kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
        for _ in range(5)
    ]
    cols = rows[1:]
    psi1 = np.array([f.psi for f in rows])
    dot1 = np.array([f.psi_dot for f in rows])
    psi2 = np.array([f.psi for f in cols])
    dot2 = np.array([f.psi_dot for f in cols])
    for a in (0.0, 0.5, -0.7):
        gram = _kg_gram(psi1, dot1, psi2, dot2, lattice, a)
        assert gram.shape == (5, 4)
        for r, f1 in enumerate(rows):
            for c, f2 in enumerate(cols):
                ref = kg_inner_ri(f1, f2, lattice, a)
                assert abs(gram[r, c] - ref) <= 1e-13 * max(abs(ref), 1.0)


def relmax(got, want):
    return maxabs(got - want) / maxabs(want)


@pytest.mark.parametrize("sites", [7, 64, 128])
def test_lattice_stacked_draw_matches_single_draws(sites):
    # one (40, m, 2, 2) draw is the stream of 40 (m, 2, 2) draws, and the
    # (40, sites) stack holds the 40 single states up to product rounding
    lattice = KleinGordonLattice(sites=sites, mu=1.5)
    stacked = generator(8, "models:kg-stack").normal(size=(40, sites, 2, 2))
    rng = generator(8, "models:kg-stack")
    np.testing.assert_array_equal(stacked, [rng.normal(size=(sites, 2, 2)) for _ in range(40)])
    psi, dot = _band_limited_rows(
        lattice, np.inf, generator(8, "models:kg-stack"), 0.3, False, (40,)
    )
    rng = generator(8, "models:kg-stack")
    singles = [
        kg_band_limited_solution(lattice, np.inf, rng, t=0.3, positive_energy=False)
        for _ in range(40)
    ]
    assert relmax(psi, np.array([f.psi for f in singles])) <= 1e-14
    assert relmax(dot, np.array([f.psi_dot for f in singles])) <= 1e-14


@pytest.mark.parametrize("sites", [7, 12, 128])
def test_lattice_row_kernels_match_pair_wrappers(sites):
    # the pair stage's row-wise routes against the paper-named wrappers
    lattice = KleinGordonLattice(sites=sites, mu=1.5)
    psi, dot = _band_limited_rows(
        lattice, np.inf, generator(9, "models:kg-rows"), 0.0, False, (40,)
    )
    pair = (psi[0::2], dot[0::2], psi[1::2], dot[1::2])
    firsts = [FieldState(p, d) for p, d in zip(psi[0::2], dot[0::2])]
    seconds = [FieldState(p, d) for p, d in zip(psi[1::2], dot[1::2])]
    w_rows = _woodard_rows(*pair, lattice)
    want = [woodard_inner(f1, f2, lattice) for f1, f2 in zip(firsts, seconds)]
    assert relmax(w_rows, np.array(want)) <= 1e-14
    for a in (0.0, 0.5, -0.7):
        rows = np.diagonal(_kg_gram(*pair, lattice, a))
        want = [kg_inner_ri(f1, f2, lattice, a) for f1, f2 in zip(firsts, seconds)]
        assert relmax(rows, np.array(want)) <= 1e-14
        spec = kg_relativistic_spec(lattice, 1.0 + a, 1.0 - a)
        rows = _field_inner(*pair, lattice.d_spec, spec)
        want = [solution_inner(f1, f2, lattice.d_spec, spec) for f1, f2 in zip(firsts, seconds)]
        assert relmax(rows, np.array(want)) <= 1e-14


@pytest.mark.parametrize("sites", [2, 17, 64, 128])
def test_lattice_single_state_rounds_as_matvec(sites):
    # one state is the matvec modes[:, cols] @ coeff, bit for bit; a basic
    # mode from a one-hot stack is kg_mode_solution up to the last bit (the
    # stack's product may round its last column otherwise)
    lattice = KleinGordonLattice(sites=sites, mu=1.5)
    for k_max, positive_energy in ((np.inf, False), (2.0, True)):
        got = kg_band_limited_solution(
            lattice, k_max, generator(5, "models:matvec"), t=0.8, positive_energy=positive_energy
        )
        cols = np.nonzero(np.abs(lattice.wavenumbers) <= k_max)[0]
        branches = (1,) if positive_energy else (1, -1)
        draws = generator(5, "models:matvec").normal(size=(cols.size, len(branches), 2))
        freq = np.tile(branches, cols.size) * lattice.omegas[np.repeat(cols, len(branches))]
        coeff = (draws[..., 0] + 1j * draws[..., 1]).ravel() * np.exp(-1j * freq * 0.8)
        v = lattice.modes[:, np.repeat(cols, len(branches))]
        np.testing.assert_array_equal(got.psi, v @ coeff)
        np.testing.assert_array_equal(got.psi_dot, v @ (-1j * freq * coeff))
    count = min(sites, 16)
    eps = np.tile([1.0, -1.0], count)
    psi, dot = _lattice_solution(
        lattice, np.repeat(np.arange(count), 2), eps, np.eye(2 * count), 0.37
    )
    for r, (e, c) in enumerate(zip(eps, np.repeat(np.arange(count), 2))):
        f = kg_mode_solution(lattice, int(e), int(lattice.mode_indices[c]), 0.37)
        assert relmax(psi[r], f.psi) <= 1e-15
        assert relmax(dot[r], f.psi_dot) <= 1e-15


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


@pytest.mark.parametrize("modes", [65, 100, 256])
def test_wdw_basis_orthonormal_past_default_quadrature(modes):
    # 64 nodes integrate h_m h_n exactly only while m + n <= 127, and h_64
    # vanishes at every root of H_64: past 64 modes the node count follows
    model = WdwFrwModel(modes=modes)
    b = model.overlap_matrix(model.alpha0, model.alpha0)
    assert maxabs(b - np.eye(modes)) <= 1e-12


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


# (mass, kappa, alpha0) of the fidelity universes: flat, open, closed below
# e^alpha = m, and a heavier flat one anchored below zero
WDW_UNIVERSES = ((1.0, 0, 0.0), (1.0, -1, 0.0), (1.0, 1, -0.5), (2.0, 0, -0.3))


@pytest.mark.parametrize("mass, kappa, alpha0", WDW_UNIVERSES)
def test_wdw_anchored_operator_matches_quadrature_projection(mass, kappa, alpha0):
    # the overlap route B diag(w) B^T over 60 alpha modes, cut to 8 x 8,
    # converges to the Galerkin projection P D P of the exact operator
    alpha = alpha0 + 0.3
    wide = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0, modes=60)
    b = wide.overlap_matrix(alpha0, alpha)
    quad = ((b * wide.omega_sq(alpha)) @ b.T)[:8, :8]
    d = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0, modes=8).d_anchored(alpha)
    assert maxabs(quad - d) <= 1e-12 * maxabs(d)


@pytest.mark.parametrize("mass, kappa, alpha0", WDW_UNIVERSES)
def test_wdw_anchored_spectrum_bounds_exact_from_above(mass, kappa, alpha0):
    # Rayleigh-Ritz: the k-th eigenvalue of P D P is at least the exact w_k
    model = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0, modes=8)
    for alpha in (alpha0 - 0.3, alpha0 + 0.3, alpha0 + 1.0):
        ritz = np.linalg.eigvalsh(model.d_anchored(alpha))
        assert np.all(ritz >= model.omega_sq(alpha) - 1e-13 * maxabs(ritz))


@pytest.mark.parametrize("mass, kappa, alpha0", WDW_UNIVERSES)
def test_wdw_anchored_spectrum_converges_with_modes(mass, kappa, alpha0):
    alpha = alpha0 + 0.3
    exact = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0).omega_sq(alpha)
    errors = {}
    for modes in (8, 40):
        model = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0, modes=modes)
        ritz = np.linalg.eigvalsh(model.d_anchored(alpha))[:8]
        errors[modes] = maxabs((ritz - exact) / exact)
    assert errors[40] <= 1e-3
    assert errors[40] < errors[8]


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
    lhs = wdw_invariant_inner(f1, f2, model)
    d_spec = hermitian_eigendecompose(model.d_anchored(0.1))
    rhs = solution_inner(f1, f2, d_spec, InnerProductSpec.uniform(6))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_wdw_invariant_refuses_sign_crossing():
    # past the crossing e^alpha = m already at the anchor
    model = WdwFrwModel(mass=1.0, kappa=1, alpha0=0.5, modes=4)
    f = FieldState(psi=np.zeros(4, dtype=complex), psi_dot=np.zeros(4, dtype=complex))
    with pytest.raises(NonPositiveSpectrumError):
        wdw_invariant_inner(f, f, model)


def test_wdw_instantaneous_refuses_zero_mode(monkeypatch):
    # the instantaneous product is drift_report on the Galerkin D(alpha)
    model = WdwFrwModel(mass=1.0, kappa=1, alpha0=0.0, modes=8)
    rng = generator(9, "models:wdw-zero-mode")
    f = FieldState(
        psi=rng.standard_normal(8) + 1j * rng.standard_normal(8),
        psi_dot=rng.standard_normal(8) + 1j * rng.standard_normal(8),
    )
    assert wdw_positivity(model, 0.0) == HAS_ZERO_MODE
    uniform = InnerProductSpec.uniform(8)
    traj = evolve_field(np.eye(8), f, 0.0, 0.1, 10)
    # the exact spectrum m e^(3 alpha) (2n + 1) - kappa e^(4 alpha), zero at alpha = 0
    exact = AffineSource(
        np.stack([np.diag(2.0 * np.arange(8) + 1.0), np.eye(8)]),
        lambda alphas: np.stack(
            [model.mass * np.exp(3.0 * alphas), -model.kappa * np.exp(4.0 * alphas)], axis=1
        ),
    )
    np.testing.assert_allclose(
        np.diagonal(exact.at(traj.times), axis1=1, axis2=2),
        [wdw_operator(model, alpha).eigenvalues for alpha in traj.times.tolist()],
        rtol=1e-14,
    )
    with pytest.raises(NonPositiveSpectrumError):
        drift_report(traj, exact, uniform)
    # a singular anchored operator where the spectrum is positive still raises
    monkeypatch.setattr(
        WdwFrwModel, "_anchored_coefficients", lambda self, alphas: np.zeros((alphas.size, 3))
    )
    traj = evolve_field(np.eye(8), f, -0.5, -0.4, 10)
    with pytest.raises(NonPositiveSpectrumError):
        drift_report(traj, model.anchored, uniform)


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


def test_wdw_operators_reject_overflowing_alpha():
    # no errstate wrapper: the suite turns any RuntimeWarning into an error;
    # an overflow leaves non-finite entries, an underflow leaves zeros
    for alpha, error in ((200.0, NotHermitianError), (-300.0, NonPositiveSpectrumError)):
        for kappa in (-1, 0, 1):
            model = WdwFrwModel(kappa=kappa)
            for build in (
                model.omega_sq,
                model.d_anchored,
                lambda a: wdw_operator(model, a),
                lambda a: wdw_numeric_crosscheck(model, alpha=a),
                lambda a: wdw_positivity(model, a),
                # the basis scale is bounded where the spectrum it scales is
                model.basis_scale,
                lambda a: model.overlap_matrix(model.alpha0, a),
            ):
                with pytest.raises(error):
                    build(alpha)
    # both overlap arguments past the limit: s_a^2 + s_b^2 would overflow
    with pytest.raises(NotHermitianError):
        WdwFrwModel().overlap_matrix(240.0, 240.0)


def test_wdw_anchored_operator_rejects_overflow_far_above_anchor():
    # no errstate wrapper: m^2 e^(6 alpha) phi^2 in the anchor basis leaves the
    # float range well before the spectrum's limit, and must raise before it
    for alpha0 in (0.0, -0.5):
        model = WdwFrwModel(alpha0=alpha0)
        for alpha in (118.0, 150.0, 170.0):
            assert alpha < model._alpha_limit
            with pytest.raises(NotHermitianError):
                model.d_anchored(alpha)


# (mass, kappa, alpha0) of the five universes of the `wdw` benchmark workload
WDW_BENCH_UNIVERSES = (
    (1.0, -1, 0.0), (1.0, 1, 0.3), (1.0, 0, 0.0), (2.0, 0, -0.3), (1.0, 1, -0.5),
)


def drift_alphas(alpha0):
    """The alphas the `wdw` drift asks its operator, in order: RK4 over
    alpha0 .. alpha0 + 0.3 in 1500 steps, recorded from the coefficient
    queries of an affine source."""
    asked = []

    def record(alphas):
        asked.extend(alphas.tolist())
        return np.zeros((alphas.size, 1))

    f0 = FieldState(psi=np.ones(1), psi_dot=np.zeros(1))
    evolve_field(AffineSource(np.zeros((1, 1, 1)), record), f0, alpha0, alpha0 + 0.3, 1500)
    assert len(asked) == 3001
    return np.array(asked)


@pytest.mark.parametrize("mass, kappa, alpha0", WDW_BENCH_UNIVERSES)
def test_wdw_anchored_stack_equals_scalar_calls(mass, kappa, alpha0):
    # an array of alphas is one query whose members are the scalar answers,
    # bit for bit
    model = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0)
    alphas = drift_alphas(alpha0)
    stack = model.d_anchored(alphas)
    assert stack.shape == (3001, 8, 8)
    assert np.array_equal(stack, np.stack([model.d_anchored(a) for a in alphas.tolist()]))
    # and each member is the one-alpha formula, its factors by math.exp
    kinetic, potential, eye, _ = model._galerkin
    for alpha, member in zip(alphas.tolist(), stack):
        d = (
            kinetic
            + math.exp(6.0 * (alpha - alpha0)) * potential
            - (kappa * math.exp(4.0 * alpha)) * eye
        )
        assert np.array_equal(member, d)


@pytest.mark.parametrize(
    "alphas",
    [
        pytest.param([0.0, 0.1, -300.0, 200.0], id="below-floor-first"),
        pytest.param([0.0, 200.0, -300.0], id="over-limit-first"),
        pytest.param([0.1, math.nan, -300.0], id="nan-first"),
    ],
)
def test_wdw_anchored_stack_raises_like_first_failing_alpha(alphas):
    # no errstate wrapper: the suite turns any RuntimeWarning into an error
    model = WdwFrwModel()
    with pytest.raises(KgMetricError) as stacked:
        model.d_anchored(np.array(alphas))
    for alpha in alphas:  # the scalar calls, in order, up to the first that raises
        try:
            model.d_anchored(alpha)
        except KgMetricError as exc:
            scalar = exc
            break
    assert type(stacked.value) is type(scalar)
    assert str(stacked.value) == str(scalar)


def test_wdw_positivity_rejects_overflowing_spectrum():
    # no errstate wrapper: the suite turns any RuntimeWarning into an error
    for kappa in (-1, 0, 1):
        with pytest.raises(NotHermitianError):
            wdw_positivity(WdwFrwModel(kappa=kappa), 200.0)


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
    source = model.anchored
    traj1 = evolve_field(source, f1, 0.0, 0.4, 2000, sample_every=200)
    traj2 = evolve_field(source, f2, 0.0, 0.4, 2000, sample_every=200)
    uniform = InnerProductSpec.uniform(6)
    inst, _ = drift_report(traj1, source, uniform, traj2=traj2)
    # oracle: (1/2)(<psi1|psi2> + <psidot1|D(alpha)^-1|psidot2>) with a dense
    # solve at each sample, against the eigendecomposed series
    for i, alpha in enumerate(traj1.times):
        g1, g2 = traj1.state(i), traj2.state(i)
        oracle = 0.5 * (
            np.vdot(g1.psi, g2.psi)
            + np.vdot(g1.psi_dot, np.linalg.solve(model.d_anchored(alpha), g2.psi_dot))
        )
        assert abs(inst.values[i] - oracle) <= 1e-12 * abs(oracle)
    # the frozen value: the t0 samples under D(alpha0)
    d_spec0 = hermitian_eigendecompose(model.d_anchored(0.0))
    frozen = solution_inner(traj1.state(0), traj2.state(0), d_spec0, uniform)
    want = wdw_invariant_inner(f1, f2, model)
    assert abs(frozen - want) <= 1e-12 * max(abs(want), 1.0)
    # the instantaneous product starts there and drifts away
    inst0, inst1 = inst.values[0], inst.values[-1]
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
    # the even and odd parity blocks together hold the dense stencil's lowest
    # eigenvalues, on even and odd grids; at grids 8 and 9 the 8 modes take
    # nearly the whole spectrum, so both blocks feed them
    for mass, kappa, alpha0 in WDW_BENCH_UNIVERSES:
        model = WdwFrwModel(mass=mass, kappa=kappa, alpha0=alpha0)
        for grid in (8, 9, 33, 256):
            dense = np.linalg.eigvalsh(dense_stencil(model, alpha0, grid))
            numeric = wdw_numeric_crosscheck(model, grid=grid).numeric
            assert maxabs(numeric - dense[: model.modes]) <= 1e-10 * maxabs(dense)


def dense_stencil(model, alpha, grid):
    """The full grid x grid finite-difference stencil of D(alpha) that
    ``wdw_numeric_crosscheck`` diagonalizes by parity blocks."""
    h = 2.0 * BOX_HALF_WIDTH / (grid + 1)
    phi = -BOX_HALF_WIDTH + h * np.arange(1, grid + 1)
    diag = 2.0 / h**2 + model.mass**2 * np.exp(6.0 * alpha) * phi**2
    off = np.full(grid - 1, -1.0 / h**2)
    return np.diag(diag - model.kappa * np.exp(4.0 * alpha)) + np.diag(off, 1) + np.diag(off, -1)


def test_wdw_crosscheck_unresolved_grid_raises_with_report():
    model = WdwFrwModel(mass=1.0, kappa=-1, alpha0=0.0, modes=8)
    # measured, not raised: the top mode misses 5%, so the largest error does too
    report = wdw_numeric_crosscheck(model, grid=32)
    assert report.grid == 32
    assert report.rel_errors[-1] > 0.05
    assert report.max_rel_error >= report.rel_errors[-1]


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


_WDW4 = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.0, modes=4)
_LATTICE4 = KleinGordonLattice(sites=4, mu=1.0)


@pytest.mark.parametrize(
    "product, operator, extra",
    [
        pytest.param(wdw_invariant_inner, _WDW4, (), id="wdw_invariant_inner"),
        pytest.param(kg_inner_ri, _LATTICE4, (0.0,), id="kg_inner_ri"),
        pytest.param(woodard_inner, _LATTICE4, (), id="woodard_inner"),
    ],
)
def test_wdw_products_reject_wrong_mode_count(product, operator, extra):
    good = FieldState(psi=np.ones(4), psi_dot=np.ones(4))
    short = FieldState(psi=np.ones(3), psi_dot=np.ones(3))
    for f1, f2 in ((short, good), (good, short)):
        with pytest.raises(DimensionMismatchError, match="state size 3 .* operator size 4"):
            product(f1, f2, operator, *extra)
