"""Correctness oracles for the four kgmetric reports.

Each oracle recomputes what it checks from the paper's closed forms or from
numpy directly, never through kgmetric, and returns a list of problems (empty
when the output is correct). The report's own `pass` fields are not trusted.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Bound per verify check name, fixed here rather than read from the report.
VERIFY_BOUNDS = {
    "eigensolver-reconstruction": 1e-10,
    "eigensolver-orthonormality": 1e-10,
    "operator-power-roundtrip": 1e-10,
    "indefinite-metric-pseudo-hermiticity": 1e-12,
    "doubled-eigensystem-biorthonormality": 1e-10,
    "positive-metric-closed-form": 1e-10,
    "positive-metric-intertwining": 1e-10,
    "coefficient-metric-intertwining": 1e-10,
    "coefficient-metric-positivity": 0.0,
    "gauge-parameter-independence": 1e-10,
    "solution-product-equivalence": 1e-10,
    "indefinite-product-equivalence": 1e-12,
    "sign-flip-pseudo-norm": 1e-12,
    "sign-family-uniform-limit": 1e-10,
    "complex-pair-null-norms": 1e-12,
    "constant-operator-invariance": 1e-8,
    "frozen-product-drift": 0.0,
    "instantaneous-drift-floor": 0.0,
    "propagator-composition": 1e-9,
    "pseudo-unitary-propagator": 1e-9,
    "transported-metric-invariance": 1e-9,
    "oscillator-exact-values": 1e-12,
}

# The documented finite-difference cross-check: interior points of
# |phi| <= 10, 256 of them, second-order stencil, Dirichlet walls.
WDW_GRID = 256
WDW_BOX = 10.0
WDW_MODES = 8

SHO_BUDGET_CHECK = "oscillator-closed-form"


def strip_timestamp(text: str) -> str:
    """The report text without its `timestamp` line."""
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith('"timestamp"')
    )


def check_verify(report: dict) -> list:
    problems = []
    checks = {c.get("name"): c for c in report.get("checks", [])}
    missing = sorted(set(VERIFY_BOUNDS) - set(checks))
    extra = sorted(set(checks) - set(VERIFY_BOUNDS))
    if missing:
        problems.append(f"verify: missing checks {missing}")
    if extra:
        problems.append(f"verify: unexpected checks {extra}")
    if len(report.get("checks", [])) != len(checks):
        problems.append("verify: duplicate check names")
    for name, bound in VERIFY_BOUNDS.items():
        if name not in checks:
            continue
        measured = checks[name].get("measured")
        if not isinstance(measured, (int, float)) or not math.isfinite(measured):
            problems.append(f"verify: {name} measured {measured!r} is not finite")
        elif measured > bound:
            problems.append(f"verify: {name} measured {measured:.3e} > bound {bound:.1e}")
    return problems


def wdw_spectrum(mass: float, kappa: int, alpha: float, modes: int = WDW_MODES) -> np.ndarray:
    n = np.arange(modes)
    return mass * math.exp(3.0 * alpha) * (2 * n + 1) - kappa * math.exp(4.0 * alpha)


def wdw_stencil_eigenvalues(mass: float, kappa: int, alpha: float) -> tuple:
    """Lowest eigenvalues of the Dirichlet finite-difference operator,
    -d^2/dphi^2 + m^2 e^(6 alpha) phi^2 - kappa e^(4 alpha), by LAPACK,
    and the largest entry of the stencil matrix (the error scale)."""
    h = 2.0 * WDW_BOX / (WDW_GRID + 1)
    phi = -WDW_BOX + h * np.arange(1, WDW_GRID + 1)
    fd = np.diag(
        2.0 / h**2 + mass**2 * math.exp(6.0 * alpha) * phi**2 - kappa * math.exp(4.0 * alpha)
    )
    off = np.full(WDW_GRID - 1, -1.0 / h**2)
    fd += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(fd)[:WDW_MODES], float(np.max(np.abs(fd)))


def check_wdw(report: dict, detail: dict) -> list:
    problems = []
    cfg = report["config"]
    mass, kappa, alpha0 = cfg["mass"], cfg["kappa"], cfg["alpha0"]
    want = wdw_spectrum(mass, kappa, alpha0)
    got = np.asarray(detail.get("spectrum") or [], dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-14):
        problems.append(f"wdw: spectrum {got.tolist()} != closed form {want.tolist()}")

    cross = detail.get("crosscheck") or {}
    numeric = np.asarray(cross.get("numeric") or [], dtype=float)
    ref, scale = wdw_stencil_eigenvalues(mass, kappa, alpha0)
    if numeric.shape != ref.shape:
        problems.append(f"wdw: crosscheck has {numeric.size} eigenvalues, want {ref.size}")
    else:
        gap = float(np.max(np.abs(numeric - ref)))
        if not gap <= 1e-10 * scale:
            problems.append(f"wdw: crosscheck differs from eigvalsh of the stencil by {gap:.3e}")
        rel = float(np.max(np.abs(numeric - want) / np.abs(want)))
        if not rel <= 0.05:
            problems.append(f"wdw: crosscheck is {rel:.2%} from the closed-form spectrum")

    w0 = mass * math.exp(3.0 * alpha0) - kappa * math.exp(4.0 * alpha0)
    sign = "all_positive" if w0 > 0 else ("has_zero_mode" if w0 == 0 else "has_negative")
    if detail.get("classification") != sign:
        problems.append(f"wdw: classification {detail.get('classification')!r}, w0 = {w0:.6g}")

    alpha1 = alpha0 + 0.3
    w1 = mass * math.exp(3.0 * alpha1) - kappa * math.exp(4.0 * alpha1)
    drift = detail.get("drift")
    if w0 > 0 and w1 > 0:
        if not drift:
            problems.append("wdw: drift missing on an all-positive interval")
        else:
            inst = np.asarray(drift["instantaneous_re"]) + 1j * np.asarray(
                drift["instantaneous_im"]
            )
            moved = float(np.max(np.abs(inst - inst[0])) / max(abs(inst[0]), 1e-12))
            if not moved > 1e-6:
                problems.append(f"wdw: instantaneous product drifts only {moved:.3e}")
    elif drift is not None:
        problems.append("wdw: drift reported on a non-positive interval")
    return problems


def check_kg(report: dict, detail: dict) -> list:
    problems = []
    cfg = report["config"]
    sites, mu = cfg["sites"], cfg["mu"]
    table = detail.get("mode_table") or []
    labels = [row["j"] for row in table]
    want = set(range(-(sites // 2), (sites + 1) // 2))
    if len(labels) != sites or set(labels) != want:
        problems.append(f"kg: mode labels are not -{sites // 2} .. {(sites + 1) // 2 - 1}")
    omega_sq = np.array([row["omega_sq"] for row in table], dtype=float)
    exact = np.array([j * j + mu * mu for j in labels], dtype=float)
    if not np.allclose(omega_sq, exact, rtol=1e-12, atol=0.0):
        problems.append("kg: omega_sq differs from j^2 + mu^2")
    if np.any(np.diff(omega_sq) < 0.0):
        problems.append("kg: omega_sq is not in ascending order")

    nr = detail.get("nonrel_limit") or {}
    try:
        lhs = complex(nr["lhs_re"], nr["lhs_im"])
        rhs = complex(nr["rhs_re"], nr["rhs_im"])
        reported = float(nr["relative_gap"])
    except (KeyError, TypeError):
        return problems + ["kg: nonrel_limit block incomplete"]
    gap = abs(lhs - rhs) / abs(rhs)
    if not abs(gap - reported) <= 1e-12 * max(gap, 1e-300) + 1e-15:
        problems.append(f"kg: relative_gap {reported!r} != |lhs - rhs|/|rhs| = {gap!r}")
    if not gap <= 0.02:
        problems.append(f"kg: relative_gap {gap:.3e} > 0.02")
    return problems


def read_series(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: cols[:, i] for i, name in enumerate(header)}


def check_sho(report: dict, series: dict) -> list:
    problems = []
    cfg = report["config"]
    omega, t_final, steps, lplus = cfg["omega"], cfg["t_final"], cfg["steps"], cfg["lplus"]
    budget = next(
        (c["bound"] for c in report.get("checks", []) if c.get("name") == SHO_BUDGET_CHECK),
        None,
    )
    if budget is None:
        return [f"sho: report has no {SHO_BUDGET_CHECK} check"]
    need = ("t", "x_re", "x_im", "solution_inner_re", "solution_inner_im",
            "kg_inner_re", "kg_inner_im")
    if any(name not in series for name in need):
        return [f"sho: series lacks one of {need}"]

    stride = max(1, steps // 2000)
    ticks = list(range(0, steps + 1, stride))
    if ticks[-1] != steps:
        ticks.append(steps)
    grid = np.array(ticks, dtype=float) * (t_final / steps)
    t = series["t"]
    if t.shape != grid.shape or not np.allclose(t, grid, rtol=0.0, atol=1e-12 * t_final):
        problems.append("sho: t is not the uniform sample grid")
        return problems

    x_err = float(np.max(np.abs(series["x_re"] - np.cos(omega * t))))
    x_err = max(x_err, float(np.max(np.abs(series["x_im"]))))
    if not x_err <= budget:
        problems.append(f"sho: x deviates from cos(omega t) by {x_err:.3e} > {budget:.3e}")
    sol = series["solution_inner_re"] + 1j * series["solution_inner_im"]
    sol_err = float(np.max(np.abs(sol - 0.5 * lplus)))
    if not sol_err <= budget * max(1.0, 0.5 * lplus):
        problems.append(f"sho: solution_inner deviates from lplus/2 by {sol_err:.3e}")
    kg = series["kg_inner_re"] + 1j * series["kg_inner_im"]
    kg_err = float(np.max(np.abs(kg)))
    if not kg_err <= budget:
        problems.append(f"sho: kg_inner deviates from 0 by {kg_err:.3e}")
    return problems


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
