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
any failure, 2 on a configuration or usage error. A subcommand accepts only
the flags its run reads, and the report echoes every setting. A run aborted
by a computational error still prints a report, holding one failing check
named after the error class; no data file is written then.

--out writes the run's data file (sho: the time series, csv by default;
kg/wdw: the detail tables, json by default; verify: a copy of the report).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, KgMetricError
from .evolution import (
    AffineSource,
    _closed_form_drift,
    drift_report,
    evolve_field,
    evolve_schrodinger,
)
from .inner_products import (
    InnerProductSpec,
    SignAssignment,
    _field_inner,
    _real_labels,
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
    kg_nonrel_limit_check,
    kg_relativistic_spec,
    sho_basic_solution,
    wdw_invariant_inner,
    wdw_numeric_crosscheck,
    wdw_operator,
    wdw_positivity,
)
from .models.lattice import (
    MIN_SITES, _band_limited_rows, _kg_gram, _lattice_solution, _woodard_rows,
)
from .models.wdw import ALL_POSITIVE, GRID, HAS_NEGATIVE, HAS_ZERO_MODE
from .rng import (
    generator, random_coefficients, random_hermitian, random_positive_hermitian, random_state,
)
from .spectral import (
    SpectralDecomposition,
    _as_hermitian,
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
    """Every setting of a run, all echoed in its report; one instance fully
    determines a run. A subcommand accepts flags only for the fields it reads."""

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


# Each subcommand's help line and the RunConfig fields its run reads.
_SUBCOMMANDS = {
    "verify": ("cross-module property battery", {"dim", "seed", "tol", "lam", "out"}),
    "sho": ("harmonic oscillator run with a monitored time series",
            {"omega", "t_final", "steps", "lplus", "lminus", "lam", "out", "fmt"}),
    "kg": ("Klein-Gordon lattice battery",
           {"sites", "mu", "a", "seed", "tol", "lam", "t_final", "out", "fmt"}),
    "wdw": ("minisuperspace battery", {"mass", "kappa", "alpha0", "modes", "seed", "out", "fmt"}),
}
# The fields of RunConfig after `subcommand` are the settings, in flag order;
# their defaults are the flag defaults and their names the flag and report-key
# names, except for these renames and these restricted choices.
_RENAMES = {"lam": "lambda", "fmt": "format"}
_CHOICES = {"kappa": (-1, 0, 1), "fmt": ("json", "csv")}
# least value of each integer flag
_MINIMA = {"dim": 1, "modes": 1, "sites": MIN_SITES, "steps": 1}


def _flag(name: str) -> str:
    """The command-line flag of a RunConfig field."""
    return "--" + _RENAMES.get(name, name).replace("_", "-")


def _validate(cfg: RunConfig) -> None:
    for f in fields(cfg):  # inf or NaN would turn bounds and inputs into no test at all
        if isinstance(f.default, float) and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"{_flag(f.name)} must be finite, got {getattr(cfg, f.name)}")
    for name, least in _MINIMA.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"--{name} must be at least {least}, got {getattr(cfg, name)}")
    if cfg.modes > GRID:  # the wdw grid cross-check resolves at most GRID modes
        raise ConfigError(f"--modes must be at most {GRID}, got {cfg.modes}")
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


# how each leaf renders, by kind: subclasses are tested in this order (bool
# before int), the listed types themselves found by one exact-type lookup
_JSON_KINDS = (
    ((float, np.float64, np.floating), lambda x: _fmt17(x) if math.isfinite(x) else "null"),
    ((bool, np.bool_), lambda b: "true" if b else "false"),
    ((int, np.integer), lambda i: str(int(i))),
    ((str,), encode_basestring_ascii),  # what json.dumps does with a str
    ((type(None),), lambda _: "null"),
)
_JSON_LEAVES = {t: leaf for kinds, leaf in _JSON_KINDS for t in kinds}


def _render_json(obj, indent: int = 0) -> str:
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
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
            f"{inner}{encode_basestring_ascii(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    for kinds, leaf in _JSON_KINDS:
        if isinstance(obj, kinds):
            return leaf(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check(name: str, anchor: str, measured: float, bound: float) -> dict:
    measured = float(measured)
    return {
        "name": name,
        "paper_anchor": anchor,
        "measured": measured,
        "bound": float(bound),
        "pass": bool(math.isfinite(measured) and measured <= bound),
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
    return InnerProductSpec(random_coefficients(rng, n), random_coefficients(rng, n))


def _random_field(rng, n: int) -> FieldState:
    return FieldState(
        random_state(rng, n, normalize=False), random_state(rng, n, normalize=False)
    )


def _time_dependent_checks(inst) -> list:
    """The two checks of a run under a time-dependent D, from its
    instantaneous monitor. frozen-product-drift is a literal: the frozen value
    only reads t0 data, so it never moves; the check keeps its name until it is
    measured along the flow."""
    return [
        _check("frozen-product-drift", "invariance", 0.0, 0.0),
        _check(
            "instantaneous-drift-floor",
            "invariance",
            max(0.0, VISIBLE_DRIFT_FLOOR - inst.max_deviation),
            0.0,
        ),
    ]


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
    herm = random_hermitian(rng, n)
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
    h = build_hamiltonian(d_spec.matrix(), lam)
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
    defect = max(check_biorthonormal(system))
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
            _maxabs(eta @ h - h.conj().T @ eta) / max(_maxabs(eta), 1.0),
            tol,
        )
    )
    eta_eigs = hermitian_eigendecompose(eta, tol).eigenvalues
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
            abs(np.vdot(psi0, eta_flip @ psi0) + 1.0),
            EXACT_BOUND,
        )
    )
    eta_all = eta_general(system, SignAssignment.all_plus(2 * n))
    checks.append(
        _check(
            "sign-family-uniform-limit",
            "sign-classification",
            _maxabs(eta_all - closed),
            tol,
        )
    )

    # a negative D-eigenvalue produces a conjugate pair of null directions;
    # negating the lowest of a positive ascending spectrum keeps it ascending
    flipped = d_spec.eigenvalues.copy()
    flipped[0] = -flipped[0]
    d_indef = SpectralDecomposition(eigenvalues=flipped, eigenvectors=d_spec.eigenvectors)
    sys_c = eigen_system(d_indef, lam, allow_complex=True)
    is_real, _ = _real_labels(sys_c.energies)
    eta_c = eta_general(sys_c, SignAssignment.all_plus(np.count_nonzero(is_real)))
    worst = 0.0
    for j in np.flatnonzero(~is_real):
        vec = sys_c.right_vectors[:, j]
        worst = max(worst, abs(np.vdot(vec, eta_c @ vec)))
    checks.append(
        _check("complex-pair-null-norms", "sign-classification", worst, EXACT_BOUND)
    )

    # invariance along integrated trajectories
    rng = sub("invariance")
    d_small = hermitian_eigendecompose(random_positive_hermitian(rng, n), tol)
    g1 = _random_field(rng, n)
    g2 = _random_field(rng, n)
    traj1, traj2 = evolve_field(d_small, [g1, g2], 0.0, 10.0, 5000, sample_every=100)
    sol, kg = drift_report(traj1, d_small, cspec, traj2=traj2, lam=lam)
    checks.append(
        _check(
            "constant-operator-invariance",
            "invariance",
            max(sol.max_deviation, kg.max_deviation),
            DRIFT_BOUND,
        )
    )

    # time-dependent operator: frozen value is flat, instantaneous is not
    d0 = d_small.matrix()
    # (1 + 0.3 sin t) D0: each chunk of times is asked in one call
    d_of_t = AffineSource(d0[None], lambda ts: (1.0 + 0.3 * np.sin(ts))[:, None])
    traj1t, traj2t = evolve_field(d_of_t, [g1, g2], 0.0, 5.0, 2000, sample_every=100)
    # D at the samples is Hermitian only to rounding: gated at --tol here
    _as_hermitian(d_of_t.at(traj1t.times), tol)
    inst, _ = drift_report(traj1t, d_of_t, cspec, traj2=traj2t, lam=lam)
    checks += _time_dependent_checks(inst)

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
            check_pseudo_unitary(res_const.propagator, eta0),
            PROPAGATOR_BOUND,
        )
    )

    # transported metric keeps products frozen under a time-dependent H
    spec0 = hermitian_eigendecompose(d_of_t.at(np.zeros(1))[0], tol)
    eta_start = eta_tilde_plus(spec0, lam, cspec)
    res_t = evolve_schrodinger(
        d_of_t, psi0, 0.0, 5.0, 1000, sample_every=100, store_propagators=True
    )
    vec2 = pack(g2, lam).vector
    base = complex(np.vdot(psi0.vector, eta_start @ vec2))
    worst = 0.0
    for i in range(len(res_t)):
        u_i = res_t.propagator_samples[i]
        eta_i = eta_inv(u_i, eta_start)
        v1 = res_t.state_matrix[i]
        v2 = u_i @ vec2
        val = complex(np.vdot(v1, eta_i @ v2))
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
    d_spec = ShoModel(omega=cfg.omega).d_spec()
    f0 = FieldState(psi=np.array([1.0 + 0.0j]), psi_dot=np.array([0.0j]))
    stride = max(1, cfg.steps // 2000)
    traj = evolve_field(d_spec, f0, 0.0, cfg.t_final, cfg.steps, sample_every=stride)
    spec = InnerProductSpec(
        a_plus_sq=np.array([cfg.lplus + cfg.lminus]),
        a_minus_sq=np.array([cfg.lplus - cfg.lminus]),
    )
    sol, kg = drift_report(traj, d_spec, spec, lam=cfg.lam)

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


def _completeness_defect(lattice: KleinGordonLattice) -> float:
    """max |V V^dagger - I| of the lattice modes V, its N x N temporaries freed
    on return."""
    v = lattice.modes
    gram = v @ v.conj().T
    gram[np.diag_indices_from(gram)] -= 1.0
    return _maxabs(gram)


def _weight_operator_defect(lattice: KleinGordonLattice, relspec, a: float) -> float:
    """Largest deviation of L+ and L- from D^(1/2) / mu and a D^(1/2) / mu, each
    difference taken in place, the N x N temporaries freed on return."""
    l_plus, l_minus = build_L(relspec, lattice.d_spec)
    l_plus -= lattice.d_half / lattice.mu
    l_minus -= a * lattice.d_half / lattice.mu
    return max(_maxabs(l_plus), _maxabs(l_minus))


def _kg_pair_deviations(lattice: KleinGordonLattice, relspec, cfg: RunConfig) -> tuple:
    """Largest relative deviations over 20 random pairs of the family product
    from the coefficient product, and of its a = 0 member from the projection
    form. The 40 states are one (40, sites) draw (the stream of 40 single
    draws) and each route runs once on it, both members of the family from
    one Gram call; the stacks are freed on return."""
    rng = generator(cfg.seed, "kg:pairs")
    psi, dot = _band_limited_rows(lattice, np.inf, rng, 0.0, False, (40,))
    pair = (psi[0::2], dot[0::2], psi[1::2], dot[1::2])
    fam, w_sym = np.diagonal(_kg_gram(*pair, lattice, [cfg.a, 0.0]), axis1=1, axis2=2)
    ref = _field_inner(*pair, lattice.d_spec, relspec)
    w_proj = _woodard_rows(*pair, lattice)
    fam_dev = np.max(np.abs(fam - ref) / np.maximum(np.abs(ref), 1.0))
    wood_dev = np.max(np.abs(w_sym - w_proj) / np.maximum(np.abs(w_proj), 1.0))
    return float(fam_dev), float(wood_dev)


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
    checks.append(
        _check("mode-completeness", "lattice-modes", _completeness_defect(lattice), EXACT_BOUND)
    )

    relspec = kg_relativistic_spec(lattice, 1.0 + cfg.a, 1.0 - cfg.a)
    weight_dev = _weight_operator_defect(lattice, relspec, cfg.a)
    checks.append(
        _check("relativistic-weight-operators", "kg-family", weight_dev, EXACT_BOUND)
    )

    fam_dev, wood_dev = _kg_pair_deviations(lattice, relspec, cfg)
    checks.append(_check("family-vs-coefficient-product", "kg-family", fam_dev, cfg.tol))
    checks.append(_check("gauge-fixed-member-equality", "kg-family", wood_dev, cfg.tol))

    # basic-mode matrix of the lowest 16 modes, branch +1 before -1 per mode,
    # built as one stack with one-hot amplitudes: diagonal (1 +- a) omega/mu,
    # zero off the diagonal
    cols = min(cfg.sites, 16)
    eps = np.tile([1.0, -1.0], cols)
    basic = np.repeat(np.arange(cols), 2)
    psi, dot = _lattice_solution(lattice, basic, eps, np.eye(2 * cols), 0.37)
    gram = _kg_gram(psi, dot, psi, dot, lattice, cfg.a)
    want = np.diag((1.0 + eps * cfg.a) * np.repeat(lattice.omegas[:cols], 2) / cfg.mu)
    checks.append(_check("basic-mode-matrix", "kg-family", _maxabs(gram - want), cfg.tol))

    rng = generator(cfg.seed, "kg:nonrel")
    b1 = kg_band_limited_solution(lattice, 0.1 * cfg.mu, rng)
    b2 = kg_band_limited_solution(lattice, 0.1 * cfg.mu, rng)
    nonrel = kg_nonrel_limit_check(b1, b2, lattice, a_plus=1.0)
    checks.append(_check("nonrelativistic-limit-gap", "kg-limit", nonrel.relative_gap, 0.02))

    # invariance along the (exact) doubled propagation
    rng = generator(cfg.seed, "kg:evolve")
    e1 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    e2 = kg_band_limited_solution(lattice, np.inf, rng, positive_energy=False)
    sol, kg = _closed_form_drift(
        lattice.d_spec, pack(e1, cfg.lam), pack(e2, cfg.lam), 0.0, cfg.t_final, 200, relspec
    )
    drift = max(sol.max_deviation, kg.max_deviation)
    checks.append(_check("evolution-invariance", "invariance", drift, cfg.tol))

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
        (WdwFrwModel(mass=1.0, kappa=-1), 0.0, ALL_POSITIVE),
        (WdwFrwModel(mass=1.0, kappa=1), 0.0, HAS_ZERO_MODE),
        (WdwFrwModel(mass=1.0, kappa=1), float(np.log(2.0)), HAS_NEGATIVE),
    ]
    mism = sum(1 for m, al, want in canon if wdw_positivity(m, al) != want)
    spectrum = model.omega_sq(cfg.alpha0)
    w0 = spectrum[0]
    own = ALL_POSITIVE if w0 > 0 else (HAS_ZERO_MODE if w0 == 0 else HAS_NEGATIVE)
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

    report = wdw_numeric_crosscheck(model, cfg.alpha0)
    checks.append(
        _check("spectrum-grid-crosscheck", "wdw-spectrum", report.max_rel_error, 0.05)
    )
    # the Galerkin D(alpha0) against the exact spectrum, relative to its
    # largest mode (absolute when all are zero: one mode at the crossing)
    checks.append(
        _check(
            "anchored-operator-at-anchor",
            "wdw-basis",
            _maxabs(model.d_anchored(cfg.alpha0) - np.diag(spectrum)) / (_maxabs(spectrum) or 1.0),
            EXACT_BOUND,
        )
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
            traj1, traj2 = evolve_field(
                model.anchored, [f1, f2], cfg.alpha0, alpha_end, steps, sample_every=150
            )
            inst, _ = drift_report(traj1, model.anchored, uniform, traj2=traj2)
            checks += _time_dependent_checks(inst)
            drift_detail = {
                "alpha": traj1.times,
                "instantaneous_re": inst.values.real,
                "instantaneous_im": inst.values.imag,
                "frozen_re": frozen.real,
                "frozen_im": frozen.imag,
            }

    detail = {
        "classification": classification,
        "spectrum": spectrum,
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
        if isinstance(val, np.ndarray):
            val = val.tolist()
        if isinstance(val, dict):
            rows.extend(_flatten_for_csv(val, name + "."))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: argparse reads sys.stderr and the width when it prints."""
    parser = argparse.ArgumentParser(
        prog="kgmetric",
        description="Invariant inner products for wave equations: "
        "verification batteries and model runs.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (help_text, reads) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig):
            if f.name in reads:
                kind = str if f.default is None else type(f.default)
                p.add_argument(
                    _flag(f.name), dest=f.name, type=kind, choices=_CHOICES.get(f.name),
                    default=f.default,
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
