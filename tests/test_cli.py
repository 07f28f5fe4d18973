"""Command-line harness: exit codes, report schema, determinism, data files."""

import csv
import json
import math

from kgmetric.cli import main

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
    assert run(["verify", "--lambda", "0.0"], capsys)[0] == 2
    assert run(["wdw", "--format", "yaml"], capsys)[0] == 2


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


def test_wdw_run_passes(capsys):
    code, out = run(["wdw", "--kappa", "0", "--modes", "8", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "positivity-classifier" in names
    assert "spectrum-grid-crosscheck" in names
    assert all(c["pass"] for c in report["checks"])


def test_wdw_zero_mode_crosscheck_is_finite(capsys):
    code, out = run(["wdw", "--kappa", "1", "--alpha0", "0"], capsys)
    report = json.loads(out)
    (check,) = [c for c in report["checks"] if c["name"] == "spectrum-grid-crosscheck"]
    assert math.isfinite(check["measured"])
    assert check["measured"] <= 0.05
    assert check["pass"]


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
