"""Command-line front end.

Subcommands:
  verify  run the cross-module property battery at a chosen dimension/seed
  sho     oscillator run: integrate, monitor products, dump a time series
  kg      Klein-Gordon lattice battery: family/equality/limit checks
  wdw     minisuperspace battery: spectrum cross-check, positivity, drift

Every run prints one JSON report to stdout: {config, checks, summary,
timestamp}, where each check is {name, paper_anchor, measured, bound, pass}
and pass means measured <= bound. Numbers are emitted with 17 significant
digits so they round-trip bit-exactly; reports are byte-identical for equal
configs except for the timestamp. Exit code 0 when every check passes, 1 on
any failure, 2 on a configuration or usage error. A run aborted by a
computational error still prints a report, holding one failing check named
after the error class; no data file is written then.

--out writes the run's data file (sho: the time series, csv by default;
kg/wdw: the detail tables, json by default; verify: a copy of the report).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, KgMetricError, UnresolvedBasisError
from .evolution import (
    drift_report,
    evolve_field,
    evolve_fields,
    evolve_schrodinger,
    field_trajectory,
)
from .inner_products import (
    InnerProductSpec,
    SignAssignment,
    build_L,
    check_pseudo_unitary,
    eta_general,
    eta_inv,
    eta_tilde_plus,
    solution_inner,
    two_component_inner,
)
from .models import (
    KleinGordonLattice,
    ShoModel,
    WdwFrwModel,
    kg_band_limited_solution,
    kg_inner_ri,
    kg_mode_solution,
    kg_nonrel_limit_check,
    kg_relativistic_spec,
    sho_basic_solution,
    wdw_instantaneous_inner,
    wdw_invariant_inner,
    wdw_numeric_crosscheck,
    wdw_operator,
    wdw_positivity,
    woodard_inner,
)
from .models.wdw import ALL_POSITIVE
from .rng import generator, random_positive_hermitian
from .spectral import (
    SpectralDecomposition,
    check_biorthonormal,
    hermitian_eigendecompose,
    operator_power,
)
from .two_component import (
    FieldState,
    build_hamiltonian,
    eigen_system,
    eta_plus,
    kg_inner,
    pack,
)

SIGMA3_BOUND = 1e-12
EXACT_BOUND = 1e-12
DRIFT_BOUND = 1e-8
PROPAGATOR_BOUND = 1e-9
VISIBLE_DRIFT_FLOOR = 1e-6


@dataclass
class RunConfig:
    """Echo of every flag; one instance fully determines a run."""

    subcommand: str
    dim: int = 8
    modes: int = 8
    sites: int = 16
    seed: int = 0
    tol: float = 1e-10
    omega: float = 1.0
    mu: float = 5.0
    mass: float = 1.0
    kappa: int = 0
    alpha0: float = 0.0
    a: float = 0.0
    lplus: float = 1.0
    lminus: float = 0.0
    lam: float = 1.0
    t_final: float = 10.0
    steps: int = 10000
    out: str | None = None
    fmt: str = "json"

    def as_dict(self) -> dict:
        return {_RENAMES.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}


# The fields of RunConfig after `subcommand` are the flags, in order; their
# defaults are the flag defaults and their names the flag and report-key
# names, except for these renames and these restricted choices.
_RENAMES = {"lam": "lambda", "fmt": "format"}
_CHOICES = {"kappa": (-1, 0, 1), "fmt": ("json", "csv")}


def _validate(cfg: RunConfig) -> None:
    for name in ("dim", "modes", "sites", "steps"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"--{name} must be at least 1, got {getattr(cfg, name)}")
    if not cfg.tol > 0.0:
        raise ConfigError(f"--tol must be positive, got {cfg.tol}")
    for name in ("omega", "mu", "mass", "t_final"):
        if not getattr(cfg, name) > 0.0:
            raise ConfigError(f"--{name} must be positive, got {getattr(cfg, name)}")
    if not abs(cfg.a) < 1.0:
        raise ConfigError(f"--a must satisfy |a| < 1, got {cfg.a}")
    if cfg.lam == 0.0:
        raise ConfigError("--lambda must be nonzero")
    if not (cfg.lplus + cfg.lminus > 0.0 and cfg.lplus - cfg.lminus > 0.0):
        raise ConfigError(
            f"need lplus +- lminus > 0, got lplus={cfg.lplus}, lminus={cfg.lminus}"
        )


# ---------------------------------------------------------------------------
# report plumbing


def _fmt17(x: float) -> str:
    """17-significant-digit decimal, always spellable back to the same float."""
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if bool(obj) else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return "null"
        return _fmt17(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = ",\n".join(inner + _render_json(v, indent + 1) for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check(name: str, anchor: str, measured: float, bound: float) -> dict:
    measured = float(measured)
    return {
        "name": name,
        "paper_anchor": anchor,
        "measured": measured,
        "bound": float(bound),
        "pass": bool(np.isfinite(measured) and measured <= bound),
    }


def _abort_check(exc: Exception) -> dict:
    """Failing check for a run cut short by `exc`: one abort against none allowed."""
    return _check(type(exc).__name__, "run-aborted", 1.0, 0.0)


def _assemble(cfg: RunConfig, checks: list) -> dict:
    return {
        "config": cfg.as_dict(),
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": sum(1 for c in checks if c["pass"]),
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def _random_spec(rng, n: int) -> InnerProductSpec:
    return InnerProductSpec(
        a_plus_sq=rng.uniform(0.2, 3.0, size=n),
        a_minus_sq=rng.uniform(0.2, 3.0, size=n),
    )


def _random_field(rng, n: int) -> FieldState:
    return FieldState(
        psi=rng.normal(size=n) + 1j * rng.normal(size=n),
        psi_dot=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


# ---------------------------------------------------------------------------
# verify battery


def battery_verify(cfg: RunConfig) -> list:
    checks = []
    n = cfg.dim
    tol = cfg.tol
    lam = cfg.lam

    def sub(label):
        return generator(cfg.seed, "verify:" + label)

    # spectral core
    rng = sub("eigensolver")
    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (herm + herm.conj().T)
    spec = hermitian_eigendecompose(herm, tol)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    scale = max(_maxabs(herm), 1.0)
    checks.append(
        _check("eigensolver-reconstruction", "spectral-core", _maxabs(recon - herm) / scale, tol)
    )
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    checks.append(
        _check("eigensolver-orthonormality", "spectral-core", _maxabs(gram - np.eye(n)), tol)
    )

    rng = sub("operator-power")
    dpos = hermitian_eigendecompose(random_positive_hermitian(rng, n), tol)
    droot = operator_power(dpos, 0.5)
    checks.append(
        _check(
            "operator-power-roundtrip",
            "spectral-core",
            _maxabs(droot @ droot - dpos.matrix()) / max(_maxabs(dpos.matrix()), 1.0),
            tol,
        )
    )

    # doubled system
    rng = sub("doubled")
    d_spec = hermitian_eigendecompose(random_positive_hermitian(rng, n), tol)
    h = build_hamiltonian(d_spec.matrix(), lam).matrix
    sigma3 = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    checks.append(
        _check(
            "indefinite-metric-pseudo-hermiticity",
            "doubled-system",
            _maxabs(h.conj().T @ sigma3 - sigma3 @ h),
            SIGMA3_BOUND,
        )
    )
    system = eigen_system(d_spec, lam)
    bio = check_biorthonormal(system, tol)
    defect = max(bio.max_orthonormality_defect, bio.max_completeness_defect)
    checks.append(_check("doubled-eigensystem-biorthonormality", "doubled-system", defect, tol))

    closed = eta_plus(d_spec, lam)
    outer = system.left_vectors @ system.left_vectors.conj().T
    checks.append(
        _check("positive-metric-closed-form", "metric-family", _maxabs(closed - outer), tol)
    )
    checks.append(
        _check(
            "positive-metric-intertwining",
            "metric-family",
            _maxabs(closed @ h - h.conj().T @ closed) / max(_maxabs(closed), 1.0),
            tol,
        )
    )

    rng = sub("coefficient-metric")
    cspec = _random_spec(rng, n)
    eta = eta_tilde_plus(d_spec, lam, cspec)
    checks.append(
        _check(
            "coefficient-metric-intertwining",
            "metric-family",
            _maxabs(eta.matrix @ h - h.conj().T @ eta.matrix) / max(_maxabs(eta.matrix), 1.0),
            tol,
        )
    )
    eta_eigs = hermitian_eigendecompose(eta.matrix, tol).eigenvalues
    checks.append(
        _check(
            "coefficient-metric-positivity",
            "metric-family",
            max(0.0, -float(np.min(eta_eigs))),
            0.0,
        )
    )

    # gauge independence and product equivalences
    rng = sub("gauge")
    f1 = _random_field(rng, n)
    f2 = _random_field(rng, n)
    values = []
    for gauge_lam in (0.5, 1.0, 2.0):
        eta_g = eta_tilde_plus(d_spec, gauge_lam, cspec)
        v = two_component_inner(pack(f1, gauge_lam), pack(f2, gauge_lam), eta_g)
        values.append(v / gauge_lam**2)
    ref = solution_inner(f1, f2, d_spec, cspec)
    vscale = max(abs(ref), 1.0)
    spread = max(abs(a - b) for a in values for b in values)
    checks.append(
        _check("gauge-parameter-independence", "gauge-freedom", spread / vscale, tol)
    )
    checks.append(
        _check(
            "solution-product-equivalence",
            "gauge-freedom",
            max(abs(v - ref) for v in values) / vscale,
            tol,
        )
    )
    s1 = pack(f1, lam)
    s2 = pack(f2, lam)
    checks.append(
        _check(
            "indefinite-product-equivalence",
            "doubled-system",
            abs(kg_inner(s1, s2) - two_component_inner(s1, s2, sigma3)) / vscale,
            SIGMA3_BOUND,
        )
    )

    # sign classification
    sigma = np.ones(2 * n)
    sigma[0] = -1.0
    eta_flip = eta_general(system, SignAssignment(sigma=sigma))
    psi0 = system.right_vectors[:, 0]
    checks.append(
        _check(
            "sign-flip-pseudo-norm",
            "sign-classification",
            abs(np.vdot(psi0, eta_flip.matrix @ psi0) + 1.0),
            EXACT_BOUND,
        )
    )
    eta_all = eta_general(system, SignAssignment.all_plus(2 * n))
    checks.append(
        _check(
            "sign-family-uniform-limit",
            "sign-classification",
            _maxabs(eta_all.matrix - closed),
            tol,
        )
    )

    # a negative D-eigenvalue produces a conjugate pair of null directions
    flipped = d_spec.eigenvalues.copy()
    flipped[0] = -flipped[0]
    order = np.argsort(flipped, kind="stable")
    d_indef = SpectralDecomposition(
        eigenvalues=flipped[order], eigenvectors=d_spec.eigenvectors[:, order]
    )
    sys_c = eigen_system(d_indef, lam, allow_complex=True)
    e = np.asarray(sys_c.energies)
    is_pair = np.abs(e.imag) > 1e-9 * max(1.0, float(np.max(np.abs(e))))
    eta_c = eta_general(sys_c, SignAssignment.all_plus(int(np.sum(~is_pair))))
    worst = 0.0
    for j in np.nonzero(is_pair)[0]:
        vec = sys_c.right_vectors[:, j]
        worst = max(worst, abs(np.vdot(vec, eta_c.matrix @ vec)))
    checks.append(
        _check("complex-pair-null-norms", "sign-classification", worst, EXACT_BOUND)
    )

    # invariance along integrated trajectories
    rng = sub("invariance")
    d_small = hermitian_eigendecompose(random_positive_hermitian(rng, n), tol)
    g1 = _random_field(rng, n)
    g2 = _random_field(rng, n)
    traj1, traj2 = evolve_fields(d_small.matrix(), [g1, g2], 0.0, 10.0, 5000, sample_every=100)
    table = drift_report(
        traj1, d_small, cspec, ("solution_inner", "kg_inner"), traj2=traj2, lam=lam
    )
    checks.append(
        _check(
            "constant-operator-invariance",
            "invariance",
            table.max_deviation,
            DRIFT_BOUND,
        )
    )

    # time-dependent operator: frozen value is flat, instantaneous is not
    d0 = d_small.matrix()

    def d_of_t(t):
        return (1.0 + 0.3 * np.sin(t)) * d0

    def spec_of_t(t):
        return hermitian_eigendecompose(d_of_t(t), tol)

    traj1t, traj2t = evolve_fields(d_of_t, [g1, g2], 0.0, 5.0, 2000, sample_every=100)
    table_t = drift_report(
        traj1t,
        spec_of_t,
        cspec,
        ("solution_inner", "frozen_inner"),
        traj2=traj2t,
        lam=lam,
    )
    checks.append(
        _check(
            "frozen-product-drift",
            "invariance",
            table_t.monitors["frozen_inner"].max_deviation,
            0.0,
        )
    )
    inst = table_t.monitors["solution_inner"].max_deviation
    checks.append(
        _check(
            "instantaneous-drift-floor",
            "invariance",
            max(0.0, VISIBLE_DRIFT_FLOOR - inst),
            0.0,
        )
    )

    # propagators
    psi0 = pack(g1, lam)
    res_a = evolve_schrodinger(d_of_t, psi0, 0.0, 1.0, 500)
    res_b = evolve_schrodinger(d_of_t, res_a.state(len(res_a) - 1), 1.0, 2.0, 500)
    res_ab = evolve_schrodinger(d_of_t, psi0, 0.0, 2.0, 1000)
    checks.append(
        _check(
            "propagator-composition",
            "evolution",
            _maxabs(res_b.propagator @ res_a.propagator - res_ab.propagator),
            PROPAGATOR_BOUND,
        )
    )
    res_const = evolve_schrodinger(d_small, psi0, 0.0, 10.0, 100)
    eta0 = eta_tilde_plus(d_small, lam, cspec)
    checks.append(
        _check(
            "pseudo-unitary-propagator",
            "evolution",
            check_pseudo_unitary(res_const.propagator, eta0, PROPAGATOR_BOUND).defect,
            PROPAGATOR_BOUND,
        )
    )

    # transported metric keeps products frozen under a time-dependent H
    spec0 = spec_of_t(0.0)
    eta_start = eta_tilde_plus(spec0, lam, cspec)
    res_t = evolve_schrodinger(
        d_of_t, psi0, 0.0, 5.0, 1000, sample_every=100, store_propagators=True
    )
    vec2 = pack(g2, lam).vector
    base = complex(np.vdot(psi0.vector, eta_start.matrix @ vec2))
    worst = 0.0
    for i in range(len(res_t)):
        u_i = res_t.propagator_samples[i]
        eta_i = eta_inv(u_i, eta_start)
        v1 = res_t.state_matrix[i]
        v2 = u_i @ vec2
        val = complex(np.vdot(v1, eta_i.matrix @ v2))
        worst = max(worst, abs(val - base) / max(abs(base), 1.0))
    checks.append(
        _check("transported-metric-invariance", "evolution", worst, PROPAGATOR_BOUND)
    )

    # oscillator closed-form values
    worst_sol = 0.0
    worst_kg = 0.0
    omega0 = 1.3
    t_probe = 0.7
    model = ShoModel(omega=omega0)
    a_vals = {1: 2.0, -1: 1.0}
    osc_spec = InnerProductSpec(a_plus_sq=np.array([2.0]), a_minus_sq=np.array([1.0]))
    for eps1 in (1, -1):
        for eps2 in (1, -1):
            z1 = sho_basic_solution(omega0, eps1, t_probe)
            z2 = sho_basic_solution(omega0, eps2, t_probe)
            got = solution_inner(z1, z2, model.d_spec(), osc_spec)
            want = a_vals[eps2] if eps1 == eps2 else 0.0
            worst_sol = max(worst_sol, abs(got - want))
            got_kg = kg_inner(pack(z1, lam), pack(z2, lam))
            want_kg = 4.0 * lam * omega0 * eps2 if eps1 == eps2 else 0.0
            worst_kg = max(worst_kg, abs(got_kg - want_kg))
    checks.append(
        _check("oscillator-exact-values", "oscillator", max(worst_sol, worst_kg), EXACT_BOUND)
    )
    return checks


# ---------------------------------------------------------------------------
# model runs


def run_sho(cfg: RunConfig) -> tuple:
    model = ShoModel(omega=cfg.omega)
    f0 = FieldState(psi=np.array([1.0 + 0.0j]), psi_dot=np.array([0.0j]))
    stride = max(1, cfg.steps // 2000)
    traj = evolve_field(model.d_source(), f0, 0.0, cfg.t_final, cfg.steps, sample_every=stride)
    spec = InnerProductSpec(
        a_plus_sq=np.array([cfg.lplus + cfg.lminus]),
        a_minus_sq=np.array([cfg.lplus - cfg.lminus]),
    )
    table = drift_report(
        traj, model.d_spec(), spec, ("solution_inner", "kg_inner"), lam=cfg.lam
    )
    sol = table.monitors["solution_inner"]
    kg = table.monitors["kg_inner"]

    h = cfg.t_final / cfg.steps
    budget = max(1e-9, 5.0 * cfg.t_final * cfg.omega * (cfg.omega * h) ** 4)
    closed = np.cos(cfg.omega * traj.times)
    x_err = float(np.max(np.abs(traj.psis[:, 0] - closed)))
    checks = [
        _check("oscillator-closed-form", "oscillator", x_err, budget),
        _check("oscillator-drift-solution", "invariance", sol.max_deviation, budget),
        _check("oscillator-drift-indefinite", "invariance", kg.max_deviation, budget),
    ]
    series = {
        "t": traj.times,
        "x_re": traj.psis[:, 0].real,
        "x_im": traj.psis[:, 0].imag,
        "xdot_re": traj.psi_dots[:, 0].real,
        "xdot_im": traj.psi_dots[:, 0].imag,
        "solution_inner_re": sol.values.real,
        "solution_inner_im": sol.values.imag,
        "kg_inner_re": kg.values.real,
        "kg_inner_im": kg.values.imag,
        "solution_drift": sol.deviations,
        "kg_drift": kg.deviations,
    }
    return checks, series


def run_kg(cfg: RunConfig) -> tuple:
    lattice = KleinGordonLattice(sites=cfg.sites, mu=cfg.mu)
    checks = []
    col0 = lattice.column_of(0)
    checks.append(
        _check(
            "zero-momentum-eigenvalue",
            "lattice-modes",
            abs(lattice.omega_sq[col0] - cfg.mu**2),
            EXACT_BOUND,
        )
    )
    v = lattice.modes
    checks.append(
        _check(
            "mode-completeness",
            "lattice-modes",
            _maxabs(v @ v.conj().T - np.eye(cfg.sites)),
            EXACT_BOUND,
        )
    )

    relspec = kg_relativistic_spec(lattice, 1.0 + cfg.a, 1.0 - cfg.a)
    l_plus, l_minus = build_L(relspec, lattice.d_spec)
    want_plus = lattice.d_half / cfg.mu
    want_minus = cfg.a * lattice.d_half / cfg.mu
    weight_dev = max(_maxabs(l_plus - want_plus), _maxabs(l_minus - want_minus))
    checks.append(
        _check("relativistic-weight-operators", "kg-family", weight_dev, EXACT_BOUND)
    )

    rng = generator(cfg.seed, "kg:pairs")
    fam_dev = 0.0
    wood_dev = 0.0
    for _ in range(20):
        p1 = kg_band_limited_solution(lattice, np.inf, rng, t=0.0, positive_energy=False)
        p2 = kg_band_limited_solution(lattice, np.inf, rng, t=0.0, positive_energy=False)
        fam = kg_inner_ri(p1, p2, lattice, cfg.a)
        ref = solution_inner(p1, p2, lattice.d_spec, relspec)
        fam_dev = max(fam_dev, abs(fam - ref) / max(abs(ref), 1.0))
        w_sym = kg_inner_ri(p1, p2, lattice, 0.0)
        w_proj = woodard_inner(p1, p2, lattice, form="projection")
        w_dir = woodard_inner(p1, p2, lattice, form="direct")
        wood_dev = max(
            wood_dev,
            abs(w_sym - w_proj) / max(abs(w_proj), 1.0),
            abs(w_proj - w_dir) / max(abs(w_proj), 1.0),
        )
    checks.append(_check("family-vs-coefficient-product", "kg-family", fam_dev, cfg.tol))
    checks.append(_check("gauge-fixed-member-equality", "kg-family", wood_dev, cfg.tol))

    # basic-mode matrix: diagonal (1 +- a) omega/mu, zero off the diagonal
    labels = []
    for col in range(min(cfg.sites, 16)):
        j = int(lattice.mode_indices[col])
        labels.extend([(1, j), (-1, j)])
    t_probe = 0.37
    states = {
        (eps, j): kg_mode_solution(lattice, eps, j, t_probe) for eps, j in labels
    }
    mode_dev = 0.0
    for eps1, j1 in labels:
        for eps2, j2 in labels:
            got = kg_inner_ri(states[(eps1, j1)], states[(eps2, j2)], lattice, cfg.a)
            if (eps1, j1) == (eps2, j2):
                col = lattice.column_of(j1)
                want = (1.0 + eps1 * cfg.a) * lattice.omegas[col] / cfg.mu
            else:
                want = 0.0
            mode_dev = max(mode_dev, abs(got - want))
    checks.append(_check("basic-mode-matrix", "kg-family", mode_dev, cfg.tol))

    rng = generator(cfg.seed, "kg:nonrel")
    b1 = kg_band_limited_solution(lattice, 0.1 * cfg.mu, rng)
    b2 = kg_band_limited_solution(lattice, 0.1 * cfg.mu, rng)
    nonrel = kg_nonrel_limit_check(b1, b2, lattice, a_plus=1.0)
    checks.append(_check("nonrelativistic-limit-gap", "kg-limit", nonrel.relative_gap, 0.02))

    # invariance along the (exact) doubled propagation
    rng = generator(cfg.seed, "kg:evolve")
    e1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    e2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    res1 = evolve_schrodinger(lattice.d_spec, pack(e1, cfg.lam), 0.0, cfg.t_final, 200)
    res2 = evolve_schrodinger(lattice.d_spec, pack(e2, cfg.lam), 0.0, cfg.t_final, 200)
    table = drift_report(
        field_trajectory(res1),
        lattice.d_spec,
        relspec,
        ("solution_inner", "kg_inner"),
        traj2=field_trajectory(res2),
        lam=cfg.lam,
    )
    checks.append(
        _check("evolution-invariance", "invariance", table.max_deviation, cfg.tol)
    )

    detail = {
        "mode_table": [
            {
                "j": int(lattice.mode_indices[c]),
                "k": float(lattice.wavenumbers[c]),
                "omega_sq": float(lattice.omega_sq[c]),
            }
            for c in range(cfg.sites)
        ],
        "family_parameter": cfg.a,
        "nonrel_limit": {
            "lhs_re": nonrel.lhs.real,
            "lhs_im": nonrel.lhs.imag,
            "rhs_re": nonrel.rhs.real,
            "rhs_im": nonrel.rhs.imag,
            "relative_gap": nonrel.relative_gap,
        },
    }
    return checks, detail


def run_wdw(cfg: RunConfig) -> tuple:
    model = WdwFrwModel(
        mass=cfg.mass, kappa=cfg.kappa, alpha0=cfg.alpha0, modes=cfg.modes
    )
    checks = []

    classification = wdw_positivity(model, cfg.alpha0)
    canon = [
        (WdwFrwModel(mass=1.0, kappa=-1), 0.0, "all_positive"),
        (WdwFrwModel(mass=1.0, kappa=1), 0.0, "has_zero_mode"),
        (WdwFrwModel(mass=1.0, kappa=1), float(np.log(2.0)), "has_negative"),
    ]
    mism = sum(1 for m, al, want in canon if wdw_positivity(m, al) != want)
    w0 = model.omega_sq(cfg.alpha0)[0]
    own = "all_positive" if w0 > 0 else ("has_zero_mode" if w0 == 0 else "has_negative")
    mism += int(own != classification)
    checks.append(_check("positivity-classifier", "wdw-spectrum", float(mism), 0.0))

    b_self = model.overlap_matrix(cfg.alpha0, cfg.alpha0)
    checks.append(
        _check(
            "basis-quadrature-orthonormality",
            "wdw-basis",
            _maxabs(b_self - np.eye(cfg.modes)),
            EXACT_BOUND,
        )
    )

    if cfg.kappa == 0:
        shift = 0.2
        ratio = model.omega_sq(cfg.alpha0 + shift) / model.omega_sq(cfg.alpha0)
        checks.append(
            _check(
                "spectrum-scaling-law",
                "wdw-spectrum",
                _maxabs(ratio - np.exp(3.0 * shift)),
                EXACT_BOUND,
            )
        )

    try:
        report = wdw_numeric_crosscheck(model, cfg.alpha0)
    except UnresolvedBasisError as exc:
        report = exc.report
    checks.append(
        _check("spectrum-grid-crosscheck", "wdw-spectrum", report.max_rel_error, 0.05)
    )
    crosscheck_detail = {
        "grid": report.grid,
        "analytic": report.analytic,
        "numeric": report.numeric,
        "rel_errors": report.rel_errors,
    }

    drift_detail = None
    if classification == ALL_POSITIVE:
        rng = generator(cfg.seed, "wdw:states")
        f1 = _random_field(rng, cfg.modes)
        f2 = _random_field(rng, cfg.modes)
        frozen = wdw_invariant_inner(f1, f2, model)
        uniform = InnerProductSpec.uniform(cfg.modes)
        ref = solution_inner(f1, f2, wdw_operator(model, cfg.alpha0), uniform)
        checks.append(
            _check(
                "invariant-product-reduction",
                "wdw-product",
                abs(frozen - ref) / max(abs(ref), 1.0),
                EXACT_BOUND,
            )
        )
        alpha_end = cfg.alpha0 + 0.3
        if wdw_positivity(model, alpha_end) == ALL_POSITIVE:
            steps = 1500
            traj1, traj2 = evolve_fields(
                model.d_source(), [f1, f2], cfg.alpha0, alpha_end, steps, sample_every=150
            )
            inst = np.array(
                [
                    wdw_instantaneous_inner(
                        traj1.state(i), traj2.state(i), model, float(t)
                    )
                    for i, t in enumerate(traj1.times)
                ]
            )
            inst_drift = float(
                np.max(np.abs(inst - inst[0])) / max(abs(inst[0]), 1e-12)
            )
            checks.append(
                _check(
                    "frozen-product-drift",
                    "invariance",
                    0.0,  # the frozen value never moves: it only reads t0 data
                    0.0,
                )
            )
            checks.append(
                _check(
                    "instantaneous-drift-floor",
                    "invariance",
                    max(0.0, VISIBLE_DRIFT_FLOOR - inst_drift),
                    0.0,
                )
            )
            drift_detail = {
                "alpha": traj1.times,
                "instantaneous_re": inst.real,
                "instantaneous_im": inst.imag,
                "frozen_re": frozen.real,
                "frozen_im": frozen.imag,
            }

    detail = {
        "classification": classification,
        "spectrum": model.omega_sq(cfg.alpha0),
        "crosscheck": crosscheck_detail,
        "drift": drift_detail,
    }
    return checks, detail


# ---------------------------------------------------------------------------
# data files


def _write_csv(path: str, header: list, rows) -> None:
    """CSV with a header row; floats are written with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(_fmt17(v) if isinstance(v, float) else v for v in row)


def _flatten_for_csv(detail: dict, prefix: str = "") -> list:
    rows = []
    for key, val in detail.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_flatten_for_csv(val, name + "."))
        elif isinstance(val, np.ndarray):
            for i, x in enumerate(val.tolist()):
                rows.append((f"{name}[{i}]", x))
        elif isinstance(val, list):
            for i, x in enumerate(val):
                if isinstance(x, dict):
                    rows.extend(_flatten_for_csv(x, f"{name}[{i}]."))
                else:
                    rows.append((f"{name}[{i}]", x))
        elif val is None:
            continue
        else:
            rows.append((name, val))
    return rows


def _write_data(cfg: RunConfig, payload, report: dict) -> None:
    if cfg.out is None:
        return
    if payload is None or cfg.fmt == "json":  # verify's data file is its report
        with open(cfg.out, "w") as fh:
            fh.write(_render_json(report if payload is None else payload) + "\n")
    elif cfg.subcommand == "sho":
        _write_csv(cfg.out, list(payload), zip(*payload.values()))
    else:
        _write_csv(cfg.out, ["name", "value"], _flatten_for_csv(payload))


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgmetric",
        description="Invariant inner products for wave equations: "
        "verification batteries and model runs.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, help_text in (
        ("verify", "cross-module property battery"),
        ("sho", "harmonic oscillator run with a monitored time series"),
        ("kg", "Klein-Gordon lattice battery"),
        ("wdw", "minisuperspace battery"),
    ):
        p = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig)[1:]:
            flag = "--" + _RENAMES.get(f.name, f.name).replace("_", "-")
            kind = str if f.default is None else type(f.default)
            p.add_argument(
                flag, dest=f.name, type=kind, choices=_CHOICES.get(f.name), default=f.default
            )
        if name == "sho":
            p.set_defaults(fmt="csv")  # the oscillator's data file is a series
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2

    cfg = RunConfig(**vars(ns))
    try:
        _validate(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2

    try:
        if cfg.subcommand == "verify":
            checks, payload = battery_verify(cfg), None
        elif cfg.subcommand == "sho":
            checks, payload = run_sho(cfg)
        elif cfg.subcommand == "kg":
            checks, payload = run_kg(cfg)
        else:
            checks, payload = run_wdw(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KgMetricError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print(_render_json(_assemble(cfg, [_abort_check(exc)])))
        return 1

    report = _assemble(cfg, checks)
    print(_render_json(report))
    _write_data(cfg, payload, report)
    return 0 if report["summary"]["passed"] == report["summary"]["total"] else 1


if __name__ == "__main__":
    sys.exit(main())
