"""Command-line harness: exit codes, report schema, determinism, data files."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kgmetric
from kgmetric.cli import RunConfig, _build_parser, _render_json, main
from kgmetric.models.wdw import WdwFrwModel
from kgmetric.rng import generator, random_positive_hermitian
from kgmetric.spectral import hermitian_eigendecompose

REPORT_KEYS = {"config", "checks", "summary", "timestamp"}
CHECK_KEYS = {"name", "paper_anchor", "measured", "bound", "pass"}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_usage_errors_exit_2(capsys):
    assert run([], capsys)[0] == 2
    assert run(["verify", "--dim", "0"], capsys)[0] == 2
    assert run(["verify", "--no-such-flag"], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["sho", "--lplus", "1.0", "--lminus", "1.5"], capsys)[0] == 2
    assert run(["sho", "--t-final", "-1.0"], capsys)[0] == 2
    assert run(["kg", "--a", "1.0"], capsys)[0] == 2
    assert run(["kg", "--sites", "1"], capsys)[0] == 2
    assert run(["verify", "--lambda", "0.0"], capsys)[0] == 2
    assert run(["wdw", "--format", "yaml"], capsys)[0] == 2
    assert run(["wdw", "--modes", "300"], capsys)[0] == 2
    # a flag the subcommand does not read
    assert run(["wdw", "--tol", "1e-30"], capsys)[0] == 2
    assert run(["kg", "--steps", "3"], capsys)[0] == 2
    assert run(["sho", "--steps", "100", "--seed", "1"], capsys)[0] == 2
    assert run(["verify", "--dim", "2", "--format", "csv"], capsys)[0] == 2
    # a bound at or below zero (a negative value needs the = form under argparse)
    assert run(["verify", "--tol", "0"], capsys)[0] == 2
    assert run(["kg", "--tol=-1e-3"], capsys)[0] == 2
    # a non-finite float makes every bound or input meaningless
    for argv in (
        ["verify", "--tol", "inf"],
        ["kg", "--tol", "inf"],
        ["sho", "--lambda", "nan"],
        ["verify", "--lambda", "nan"],
        ["sho", "--omega", "inf"],
        ["kg", "--t-final", "inf"],
        ["wdw", "--mass", "inf"],
        ["wdw", "--alpha0", "nan"],
    ):
        assert run(argv, capsys)[0] == 2


def test_cached_parser_reports_usage_errors_in_one_process(capsys, monkeypatch):
    # the parser is built once per process; usage errors after a valid run
    # still print to the current stderr, wrapped at the current width
    monkeypatch.setenv("COLUMNS", "80")
    top = "usage: kgmetric [-h] {verify,sho,kg,wdw} ...\n"
    cases = [
        (["kg", "--sites", "2"], 0, ""),
        (
            ["kg", "--no-such-flag"],
            2,
            top + "kgmetric: error: unrecognized arguments: --no-such-flag\n",
        ),
        ([], 2, top),
        (
            ["kg", "--sites", "x"],
            2,
            "usage: kgmetric kg [-h] [--sites SITES] [--seed SEED] [--tol TOL] [--mu MU]\n"
            "                   [--a A] [--lambda LAM] [--t-final T_FINAL] [--out OUT]\n"
            "                   [--format {json,csv}]\n"
            "kgmetric kg: error: argument --sites: invalid int value: 'x'\n",
        ),
    ]
    for argv, code, err in cases:
        assert main(argv) == code
        assert capsys.readouterr().err == err
    assert _build_parser() is _build_parser()


def test_verify_report_schema(capsys):
    code, out = run(["verify", "--seed", "3", "--dim", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == REPORT_KEYS
    assert report["config"]["seed"] == 3
    assert report["config"]["dim"] == 6
    assert "lambda" in report["config"]
    assert "format" in report["config"]
    checks = report["checks"]
    assert len(checks) >= 20
    for check in checks:
        assert set(check) == CHECK_KEYS
        assert isinstance(check["measured"], (int, float))
        assert check["pass"] is True
    assert report["summary"] == {"total": len(checks), "passed": len(checks)}


def test_verify_deterministic_except_timestamp(capsys):
    _, out1 = run(["verify", "--seed", "7"], capsys)
    _, out2 = run(["verify", "--seed", "7"], capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["timestamp"], r2["timestamp"]
    assert r1 == r2


def test_tightened_tolerance_exits_1(capsys):
    # bounds tied to --tol become unsatisfiable: full report, exit 1
    code, out = run(["kg", "--sites", "8", "--tol", "1e-18"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["passed"] < report["summary"]["total"]
    # the same tolerance breaks the eigensolver gate inside verify, which
    # surfaces as a failed run rather than a usage error
    code, _ = run(["verify", "--tol", "1e-18"], capsys)
    assert code == 1
    # --tol also gates the Hermiticity of D at the samples of the
    # time-dependent drift, whose D(t) = (1 + 0.3 sin t) D0 stack is Hermitian
    # only to rounding; the error names its first sample past the tolerance,
    # and that sample's defect depends on the BLAS kernel, so it is computed
    # here the same way
    cfg = RunConfig("verify")
    rng = generator(cfg.seed, "verify:invariance")
    d0 = hermitian_eigendecompose(random_positive_hermitian(rng, cfg.dim)).matrix()
    stack = (1.0 + 0.3 * np.sin(np.arange(0, 2001, 100) * (5.0 / 2000)))[:, None, None] * d0
    defects = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    assert main(["verify", "--tol", "2e-16"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert [c["name"] for c in report["checks"]] == ["NotHermitianError"]
    assert report["summary"] == {"total": 1, "passed": 0}
    assert captured.err == (
        "run failed: matrix deviates from Hermiticity by "
        f"{defects[defects > 2e-16][0]:.3e} (tol 2.000e-16)\n"
    )


def test_sho_run_with_csv_series(tmp_path, capsys):
    out_file = tmp_path / "series.csv"
    code, out = run(
        ["sho", "--omega", "2.0", "--steps", "20000", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "oscillator-closed-form" in names
    assert all(c["pass"] for c in report["checks"])
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert "t" in header
    assert len(data) > 100
    assert len(data[0]) == len(header)


def test_kg_run_with_json_detail(tmp_path, capsys):
    out_file = tmp_path / "kg.json"
    code, out = run(
        ["kg", "--sites", "16", "--mu", "5.0", "--out", str(out_file)], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])
    detail = json.loads(out_file.read_text())
    assert "mode_table" in detail
    assert "nonrel_limit" in detail


def _flattened(node, name=""):
    """(name, value) rows of a JSON detail, named a.b[i]; a None block gives none."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _flattened(val, f"{name}.{key}" if name else key)
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield from _flattened(x, f"{name}[{i}]")
    elif node is not None:
        yield name, node


@pytest.mark.parametrize(
    "argv, drift",
    [
        (["kg", "--sites", "8"], None),
        (["wdw"], True),
        (["wdw", "--kappa", "1", "--alpha0", "0"], False),  # a negative mode: no drift run
    ],
)
def test_csv_data_file_is_the_flattened_json_detail(argv, drift, tmp_path, capsys):
    files = {fmt: tmp_path / f"data.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in files.items():
        assert run([*argv, "--format", fmt, "--out", str(path)], capsys)[0] == 0
    detail = json.loads(files["json"].read_text())
    with open(files["csv"], newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["name", "value"]
    want = list(_flattened(detail))
    assert [name for name, _ in rows] == [name for name, _ in want]
    for (name, text), (_, value) in zip(rows, want):
        assert (float(text) == value) if isinstance(value, float) else text == str(value), name
    if drift is not None:
        assert (detail["drift"] is not None) == drift
        assert any(name.startswith("drift.") for name, _ in rows) == drift


def test_wdw_run_passes(capsys):
    code, out = run(["wdw", "--kappa", "0", "--modes", "8", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "positivity-classifier" in names
    assert "spectrum-grid-crosscheck" in names
    assert "anchored-operator-at-anchor" in names
    assert all(c["pass"] for c in report["checks"])


def test_wdw_anchor_check_catches_wrong_potential_weight(monkeypatch, capsys):
    # a Galerkin D(alpha) whose e^(6 (alpha - alpha0)) weight is off by 1e-3
    # is wrong but consistent: the flow and drift checks all pass on it, and
    # only the comparison with the exact spectrum at alpha0 fails
    assert run(["wdw"], capsys)[0] == 0
    coefficients = WdwFrwModel._anchored_coefficients

    def skewed(self, alphas):
        c = coefficients(self, alphas)
        c[:, 1] *= 1 + 1e-3
        return c

    monkeypatch.setattr(WdwFrwModel, "_anchored_coefficients", skewed)
    code, out = run(["wdw"], capsys)
    assert code == 1
    failing = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failing == {"anchored-operator-at-anchor"}


def test_wdw_drift_queries_operator_per_chunk(monkeypatch, capsys):
    # the drift asks the coefficients of D(alpha) a chunk of alphas at a time
    # (3012 scalar queries a report before), and the anchor check asks alpha0
    # once; a fallback to one call per alpha fails here
    calls = []
    coefficients = WdwFrwModel._anchored_coefficients

    def counted(self, alphas):
        calls.append(np.size(alphas))
        return coefficients(self, alphas)

    monkeypatch.setattr(WdwFrwModel, "_anchored_coefficients", counted)
    code, out = run(["wdw"], capsys)
    assert code == 0
    assert "instantaneous-drift-floor" in out
    assert 0 < len(calls) <= 30
    assert sum(calls) == 3012 + 1


def test_wdw_past_default_quadrature_passes(capsys):
    # the basis check once read exactly 1.0 past 64 modes (h_64 at the roots
    # of H_64); every check passes at 65
    code, out = run(["wdw", "--modes", "65"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["passed"] == report["summary"]["total"]


def test_wdw_zero_mode_crosscheck_is_finite(capsys):
    code, out = run(["wdw", "--kappa", "1", "--alpha0", "0"], capsys)
    report = json.loads(out)
    (check,) = [c for c in report["checks"] if c["name"] == "spectrum-grid-crosscheck"]
    assert math.isfinite(check["measured"])
    assert check["measured"] <= 0.05
    assert check["pass"]


@pytest.mark.parametrize("sites, a", [(2, 0.5), (3, -0.7), (17, 0.5)])
def test_kg_small_and_odd_lattices_pass(sites, a, capsys):
    # fewer than 16 basic-mode columns, an odd lattice, nonzero a
    code, out = run(["kg", "--sites", str(sites), "--a", str(a)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["passed"] == report["summary"]["total"] == 8


def test_kg_rare_seed_evolution_invariance(capsys):
    # this seed once drifted to 1.08e-10 over 200 multiplied step propagators
    code, out = run(["kg", "--sites", "128", "--a", "0.5", "--seed", "1598254737"], capsys)
    assert code == 0
    report = json.loads(out)
    (check,) = [c for c in report["checks"] if c["name"] == "evolution-invariance"]
    assert check["measured"] <= 1e-11


def test_aborted_run_still_reports(capsys):
    code = main(["sho", "--omega", "1000", "--steps", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("run failed: state blew past")
    report = json.loads(captured.out)
    assert set(report) == REPORT_KEYS
    (check,) = report["checks"]
    assert set(check) == CHECK_KEYS
    assert check["name"] == "NonFiniteStateError"
    assert check["pass"] is False
    assert report["summary"] == {"total": 1, "passed": 0}


def test_config_keys_and_format_defaults(capsys):
    # the report's config echoes every flag, in flag order, under its flag name
    _, out = run(["kg", "--sites", "8", "--lambda", "2.0", "--t-final", "1.5"], capsys)
    config = json.loads(out)["config"]
    assert list(config) == [
        "subcommand", "dim", "modes", "sites", "seed", "tol", "omega", "mu",
        "mass", "kappa", "alpha0", "a", "lplus", "lminus", "lambda", "t_final",
        "steps", "out", "format",
    ]
    assert (config["sites"], config["lambda"], config["t_final"]) == (8, 2.0, 1.5)
    assert config["format"] == "json"
    _, out = run(["sho", "--steps", "100"], capsys)
    assert json.loads(out)["config"]["format"] == "csv"
    _, out = run(["sho", "--steps", "100", "--format", "json"], capsys)
    assert json.loads(out)["config"]["format"] == "json"
    assert run(["wdw", "--kappa", "2"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv,stderr_start,error",
    [
        pytest.param(
            ["wdw", "--alpha0", "200"],
            "run failed: spectrum at alpha=200.0 is not finite",
            "NotHermitianError",
            id="alpha0-200",
        ),
        pytest.param(
            ["wdw", "--mass", "1e200"],
            "run failed: grid stencil at alpha=0.0 has non-finite entries",
            "NotHermitianError",
            id="mass-1e200",
        ),
        pytest.param(
            ["wdw", "--alpha0", "-300"],
            "run failed: spectrum at alpha=-300.0 underflows to zero",
            "NonPositiveSpectrumError",
            id="alpha0-minus300",
        ),
        pytest.param(
            ["sho", "--omega", "1e150", "--steps", "100"],
            "run failed: state blew past 1e+12 at t=0.1 (max nan)",
            "NonFiniteStateError",
            id="sho-omega-1e150",
        ),
        pytest.param(
            ["sho", "--t-final", "1e300", "--steps", "100"],
            "run failed: state blew past 1e+12 at t=1e+298 (max nan)",
            "NonFiniteStateError",
            id="sho-t-final-1e300",
        ),
        pytest.param(
            ["kg", "--mu", "1e300"],
            "run failed: mu^2 overflows, got mu = 1e+300",
            "InvalidParameterError",
            id="kg-mu-1e300",
        ),
        pytest.param(
            ["kg", "--lambda", "1e300"],
            "run failed: state blew past 1e+12 at t=0.05 (max nan)",
            "NonFiniteStateError",
            id="kg-lambda-1e300",
        ),
        pytest.param(
            ["verify", "--lambda", "1e300"],
            "run failed: lam^2 overflows, got lam = 1e+300",
            "InvalidParameterError",
            id="verify-lambda-1e300",
        ),
    ],
)
def test_overflowing_alpha_aborts_without_runtime_warnings(argv, stderr_start, error):
    # a fresh interpreter, so numpy's warnings print under the default filters
    env = dict(os.environ, PYTHONPATH=str(Path(kgmetric.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kgmetric", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(stderr_start)
    assert proc.stderr.count("\n") == 1
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == error


def test_render_json_empty_containers_and_unknown_types():
    assert _render_json([]) == _render_json(()) == _render_json(np.array([])) == "[]"
    assert _render_json({}) == "{}"
    nested = _render_json({"a": [], "b": {}})
    assert nested == '{\n  "a": [],\n  "b": {}\n}'
    assert json.loads(nested) == {"a": [], "b": {}}
    with pytest.raises(TypeError, match="cannot serialize complex"):
        _render_json(1j)
    with pytest.raises(TypeError, match="cannot serialize object"):
        _render_json([1.0, object()])


def test_kg_report_memory_stays_bounded(capsys):
    # the invariance monitor streams through the closed form, a chunk of steps
    # at a time, and each dense check frees its N x N temporaries: one
    # 128-site report peaks at no more than 10 N x N complex arrays (2.6 MB),
    # where holding the trajectory took about 24
    argv = ["kg", "--sites", "128", "--a", "0.5", "--seed", "3"]
    assert run(argv, capsys)[0] == 0  # warm-up: imports and caches
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 10 * 128 * 128 * 16
