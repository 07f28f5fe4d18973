"""Acceptance battery: ten exact-formula and property criteria at desk scale.

Each test prints a single PASS/FAIL line with its measured values before
asserting, so the terminal log doubles as a results table.
"""

import time

import numpy as np
import pytest

from kgmetric import (
    AffineSource,
    FieldState,
    InnerProductSpec,
    SignAssignment,
    build_hamiltonian,
    check_pseudo_unitary,
    drift_report,
    eigen_system,
    eta_general,
    eta_inv,
    eta_plus,
    eta_tilde_plus,
    evolve_field,
    evolve_schrodinger,
    kg_inner,
    pack,
    solution_inner,
    two_component_inner,
)
from kgmetric.models.lattice import (
    KleinGordonLattice,
    kg_band_limited_solution,
    kg_inner_ri,
    kg_mode_solution,
    kg_nonrel_limit_check,
    woodard_inner,
)
from kgmetric.models.sho import sho_basic_solution, sho_inner
from kgmetric.models.wdw import (
    ALL_POSITIVE,
    HAS_NEGATIVE,
    HAS_ZERO_MODE,
    WdwFrwModel,
    wdw_numeric_crosscheck,
    wdw_positivity,
)
from kgmetric.rng import generator, random_positive_hermitian, random_state
from kgmetric.spectral import hermitian_eigendecompose


def maxabs(a):
    return float(np.max(np.abs(a)))


def random_spec(rng, n):
    return InnerProductSpec(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))


def report(index, ok, detail):
    print(f"criterion {index}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_positive_metric_closed_form_oracle():
    start = time.perf_counter()
    n = 8
    worst = 0.0
    for seed in range(20):
        rng = generator(seed, "acceptance:eta-plus")
        d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
        for lam in (0.5, 1.0, 2.0):
            closed = eta_plus(d_spec, lam)
            left = eigen_system(d_spec, lam).left_vectors
            worst = max(worst, maxabs(closed - left @ left.conj().T))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"max defect {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_pseudo_hermiticity_battery():
    start = time.perf_counter()
    n = 8
    worst_sigma3, worst_eta = 0.0, 0.0
    sigma3 = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    for seed in range(20):
        rng = generator(seed, "acceptance:pseudo-hermitian")
        d = random_positive_hermitian(rng, n)
        d_spec = hermitian_eigendecompose(d)
        spec = random_spec(rng, n)
        h = build_hamiltonian(d, 1.0)
        worst_sigma3 = max(worst_sigma3, maxabs(h.conj().T @ sigma3 - sigma3 @ h))
        eta = eta_tilde_plus(d_spec, 1.0, spec)
        worst_eta = max(worst_eta, maxabs(eta @ h - h.conj().T @ eta))
    elapsed = time.perf_counter() - start
    ok = worst_sigma3 <= 1e-12 and worst_eta <= 1e-10 and elapsed < 5.0
    report(
        2, ok, f"sigma3 {worst_sigma3:.3e}, weighted {worst_eta:.3e}, {elapsed:.2f}s"
    )
    assert worst_sigma3 <= 1e-12
    assert worst_eta <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_packing_constant_independence():
    n = 8
    worst = 0.0
    for k in range(50):
        rng = generator(k, "acceptance:lam-gauge")
        d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n))
        spec = random_spec(rng, n)
        f1 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
        f2 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
        values = []
        for lam in (0.5, 1.0, 2.0):
            eta = eta_tilde_plus(d_spec, lam, spec)
            values.append(
                two_component_inner(pack(f1, lam), pack(f2, lam), eta) / lam**2
            )
        spread = max(abs(v - values[0]) for v in values[1:])
        worst = max(worst, spread)
    ok = worst <= 1e-10
    report(3, ok, f"max spread {worst:.3e} over 50 pairs")
    assert worst <= 1e-10


def test_criterion_04_invariance_under_evolution():
    start = time.perf_counter()
    n = 8
    rng = generator(0, "acceptance:invariance")
    # frequencies up to ~8 keep the truncation error above roundoff, so the
    # step-halving clause measures the integrator rather than the noise floor
    d = 16.0 * random_positive_hermitian(rng, n)
    d_spec = hermitian_eigendecompose(d)
    spec = InnerProductSpec.uniform(n)
    f1 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    f2 = FieldState(psi=random_state(rng, n), psi_dot=random_state(rng, n))
    drifts = {}
    for steps in (10000, 20000):
        tr1 = evolve_field(d, f1, 0.0, 10.0, steps, sample_every=steps // 100)
        tr2 = evolve_field(d, f2, 0.0, 10.0, steps, sample_every=steps // 100)
        sol, kg = drift_report(tr1, d_spec, spec, traj2=tr2)
        drifts[steps] = (sol.max_deviation, kg.max_deviation)
    sol, kg = drifts[10000]
    ratios = (drifts[10000][0] / drifts[20000][0], drifts[10000][1] / drifts[20000][1])
    elapsed = time.perf_counter() - start
    ok = sol <= 1e-6 and kg <= 1e-6 and min(ratios) >= 10.0 and elapsed < 30.0
    report(
        4,
        ok,
        f"drift sol {sol:.3e} kg {kg:.3e}, halving ratios "
        f"{ratios[0]:.1f}/{ratios[1]:.1f}, {elapsed:.1f}s",
    )
    assert sol <= 1e-6
    assert kg <= 1e-6
    assert min(ratios) >= 10.0
    assert elapsed < 30.0


def test_criterion_05_oscillator_exact_values():
    omega = 1.0
    worst_pos, worst_kg, worst_real = 0.0, 0.0, 0.0
    for a_plus, a_minus in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        l_plus = 0.5 * (a_plus + a_minus)
        l_minus = 0.5 * (a_plus - a_minus)
        for t in (0.0, 0.7, 2.4):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    z1 = sho_basic_solution(omega, e1, t)
                    z2 = sho_basic_solution(omega, e2, t)
                    got = sho_inner(z1, z2, omega, l_plus, l_minus)
                    want = 0.0 if e1 != e2 else (a_plus if e1 == 1 else a_minus)
                    worst_pos = max(worst_pos, abs(got - want))
    for lam in (0.5, 1.0, 2.0):
        for t in (0.0, 0.7):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    s1 = pack(sho_basic_solution(omega, e1, t), lam)
                    s2 = pack(sho_basic_solution(omega, e2, t), lam)
                    got = kg_inner(s1, s2)
                    want = 0.0 if e1 != e2 else 4.0 * lam * e1
                    worst_kg = max(worst_kg, abs(got - want))
    for t in (0.0, 0.9):
        for x in (
            (np.cos(omega * t), -omega * np.sin(omega * t)),
            (np.sin(omega * t), omega * np.cos(omega * t)),
        ):
            f = FieldState(psi=np.array([x[0] + 0j]), psi_dot=np.array([x[1] + 0j]))
            worst_real = max(worst_real, abs(kg_inner(pack(f, 1.0), pack(f, 1.0))))
            assert sho_inner(x, x, omega).real > 0.0
    ok = worst_pos <= 1e-12 and worst_kg <= 1e-12 and worst_real <= 1e-12
    report(
        5,
        ok,
        f"positive table {worst_pos:.3e}, indefinite table {worst_kg:.3e}, "
        f"real-solution norms {worst_real:.3e}",
    )
    assert worst_pos <= 1e-12
    assert worst_kg <= 1e-12
    assert worst_real <= 1e-12


def test_criterion_06_lattice_family_and_mode_matrix():
    lattice = KleinGordonLattice(sites=64, mu=5.0)
    rng = generator(0, "acceptance:family")
    worst_pair = 0.0
    for _ in range(100):
        f1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
        f2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
        member = kg_inner_ri(f1, f2, lattice, 0.0)
        proj = woodard_inner(f1, f2, lattice)
        scale = max(abs(member), 1.0)
        worst_pair = max(worst_pair, abs(member - proj) / scale)
    a, norm, t = 0.3, 2.0, 0.37
    states = []
    for eps in (1, -1):
        for j in lattice.mode_indices.tolist():
            states.append((eps, j, kg_mode_solution(lattice, eps, j, t, normalization=norm)))
    worst_matrix = 0.0
    for e1, j1, f1 in states:
        for e2, j2, f2 in states:
            got = kg_inner_ri(f1, f2, lattice, a)
            if (e1, j1) != (e2, j2):
                worst_matrix = max(worst_matrix, abs(got))
            else:
                omega = lattice.omegas[lattice.column_of(j1)]
                want = (1.0 + e1 * a) * omega / lattice.mu * norm**2
                worst_matrix = max(worst_matrix, abs(got - want) / max(want, 1.0))
    ok = worst_pair <= 1e-10 and worst_matrix <= 1e-10
    report(
        6,
        ok,
        f"family vs gauge-fixed {worst_pair:.3e} on 100 pairs, "
        f"mode matrix {worst_matrix:.3e}",
    )
    assert worst_pair <= 1e-10
    assert worst_matrix <= 1e-10


def test_criterion_07_nonrelativistic_limit():
    gaps = {}
    for mu in (50.0, 500.0):
        lattice = KleinGordonLattice(sites=32, mu=mu)
        f1 = kg_band_limited_solution(lattice, 5.0, generator(0, "acceptance:nonrel-1"))
        f2 = kg_band_limited_solution(lattice, 5.0, generator(0, "acceptance:nonrel-2"))
        gaps[mu] = kg_nonrel_limit_check(f1, f2, lattice, a_plus=1.3).relative_gap
    ratio = gaps[50.0] / gaps[500.0]
    ok = gaps[50.0] <= 0.02 and 50.0 <= ratio <= 200.0
    report(
        7,
        ok,
        f"gap {gaps[50.0]:.3e} at band ratio 0.1, tenfold-mass ratio {ratio:.1f}",
    )
    assert gaps[50.0] <= 0.02
    assert 50.0 <= ratio <= 200.0


def test_criterion_08_minisuperspace_spectrum_crosscheck():
    model = WdwFrwModel(mass=1.0, kappa=0, alpha0=0.0, modes=8)
    rep_256 = wdw_numeric_crosscheck(model, grid=256)
    rep_512 = wdw_numeric_crosscheck(model, grid=512)
    rel = rep_256.max_rel_error
    ratio = rel / rep_512.max_rel_error
    classifier_ok = (
        wdw_positivity(WdwFrwModel(mass=1.0, kappa=-1), 0.8) == ALL_POSITIVE
        and wdw_positivity(WdwFrwModel(mass=1.0, kappa=0), -0.5) == ALL_POSITIVE
        and wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), 0.0) == HAS_ZERO_MODE
        and wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), 0.2) == HAS_NEGATIVE
        and wdw_positivity(WdwFrwModel(mass=1.0, kappa=1), -0.2) == ALL_POSITIVE
    )
    ok = rel <= 1e-3 and 3.0 <= ratio <= 5.0 and classifier_ok
    report(
        8,
        ok,
        f"grid-256 max rel error {rel:.4e} against bound 1e-03, "
        f"doubling ratio {ratio:.2f}, classifier {'ok' if classifier_ok else 'bad'}",
    )
    assert 3.0 <= ratio <= 5.0
    assert classifier_ok
    # the second-order stencil at grid 256, box 10 lands near 2.9e-3 for the
    # highest retained mode; the 1e-3 target is not reachable at that grid
    assert rel <= 1e-3


def test_criterion_09_transported_metric_machinery():
    lam = 1.0
    # D(t) = (2 + sin t)^2
    d_of_t = AffineSource(np.ones((1, 1, 1)), lambda ts: ((2.0 + np.sin(ts)) ** 2)[:, None])
    f1 = FieldState(psi=np.array([1.0 + 0.2j]), psi_dot=np.array([0.3 - 0.8j]))
    f2 = FieldState(psi=np.array([-0.5 + 1.0j]), psi_dot=np.array([0.6 + 0.4j]))
    eta0 = eta_plus(hermitian_eigendecompose(d_of_t.at(np.zeros(1))[0]), lam)
    steps = 20000
    sched = evolve_schrodinger(
        d_of_t, pack(f1, lam), 0.0, 10.0, steps,
        sample_every=steps // 10, store_propagators=True,
    )
    tr1 = evolve_field(d_of_t, f1, 0.0, 10.0, steps, sample_every=steps // 10)
    tr2 = evolve_field(d_of_t, f2, 0.0, 10.0, steps, sample_every=steps // 10)
    v0, worst = None, 0.0
    for i in range(len(tr1)):
        eta_t = eta_inv(sched.propagator_samples[i], eta0)
        s1 = pack(tr1.state(i), lam).vector
        s2 = pack(tr2.state(i), lam).vector
        v = np.vdot(s1, eta_t @ s2)
        if v0 is None:
            v0 = v
        worst = max(worst, abs(v - v0) / abs(v0))
    rng = generator(0, "acceptance:pseudo-unitary")
    d_const = random_positive_hermitian(rng, 4)
    eta_const = eta_plus(hermitian_eigendecompose(d_const), lam)
    f0 = FieldState(psi=random_state(rng, 4), psi_dot=random_state(rng, 4))
    u = evolve_schrodinger(d_const, pack(f0, lam), 0.0, 3.0, 300).propagator
    pu = check_pseudo_unitary(u, eta_const)
    ok = worst <= 1e-6 and pu <= 1e-9
    report(
        9,
        ok,
        f"transported-product drift {worst:.3e} over [0,10], "
        f"constant-generator defect {pu:.3e}",
    )
    assert worst <= 1e-6
    assert pu <= 1e-9


def test_criterion_10_sign_family():
    rng = generator(0, "acceptance:signs")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, 4))
    system = eigen_system(d_spec, lam=1.0)
    sigma = np.ones(8, dtype=int)
    sigma[0] = -1
    eta = eta_general(system, SignAssignment(sigma))
    worst_flip = 0.0
    for j in range(8):
        r = system.right_vectors[:, j]
        worst_flip = max(worst_flip, abs(np.vdot(r, eta @ r) - sigma[j]))
    d_mixed = hermitian_eigendecompose(np.diag([-2.25, 1.0, 4.0]))
    mixed = eigen_system(d_mixed, lam=1.0, allow_complex=True)
    real_count = int(np.sum(np.abs(mixed.energies.imag) <= 1e-12))
    eta_mixed = eta_general(mixed, SignAssignment.all_plus(real_count))
    worst_null = 0.0
    for j in range(mixed.size):
        if abs(mixed.energies[j].imag) > 1e-12:
            r = mixed.right_vectors[:, j]
            worst_null = max(worst_null, abs(np.vdot(r, eta_mixed @ r)))
    ok = worst_flip <= 1e-12 and worst_null <= 1e-12
    report(
        10,
        ok,
        f"flipped pseudo-norm defect {worst_flip:.3e}, "
        f"imaginary-pair norms {worst_null:.3e}",
    )
    assert worst_flip <= 1e-12
    assert worst_null <= 1e-12
