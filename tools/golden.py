"""Golden runs: check that a change leaves every CLI run byte-identical.

    python tools/golden.py write CHECKOUT DIR
        Run each argv in RUNS as `python -m kgmetric ...` with
        PYTHONPATH=CHECKOUT/src, and keep its stdout, stderr, exit code and
        data file under DIR/<run name>/.
    python tools/golden.py compare [--verdicts] A B
        Compare two such directories with `timestamp` lines masked. Exit 1,
        naming each file that differs or exists on one side only. When a
        differing file holds the same keys on both sides (JSON, or a CSV
        table), also print its largest relative numeric difference, the key
        where it occurs and the absolute difference there (a value near
        rounding level can move by a large relative amount).
        With --verdicts, pass (exit 0) when the only differences are numeric:
        the same files, the same exit codes, and in each differing file the
        same keys with every non-numeric value equal (check names, `pass`
        flags, text), or, in a file that is not keyed (stderr), the same text
        once its numbers are masked. Each differing file is still printed
        with its largest move. Numerics that a change or a BLAS kernel set
        moves at rounding level are then checked in one command.

Every run works inside its own directory and writes its data file to the
same relative name, so the `config.out` echo in the report is the same
whatever the checkout's path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

DATA = "data"
# (mass, kappa, alpha0) of the five wdw-minisuperspace benchmark universes
UNIVERSES = (
    ("1", "-1", "0"), ("1", "1", "0.3"), ("1", "0", "0"), ("2", "0", "-0.3"), ("1", "1", "-0.5"),
)

RUNS = {
    "verify-seed0": ("verify", "--seed", "0"),
    "verify-seed3-dim6": ("verify", "--seed", "3", "--dim", "6", "--out", DATA),
    "verify-dim1": ("verify", "--dim", "1"),
    "sho": ("sho", "--out", DATA),
    "sho-json-omega2.5": (
        "sho", "--format", "json", "--omega", "2.5", "--steps", "20000", "--out", DATA,
    ),
    "sho-omega1000": ("sho", "--omega", "1000", "--steps", "100"),
    "sho-omega1e150": ("sho", "--omega", "1e150", "--steps", "100"),
    "sho-series": ("sho", "--steps", "100000", "--t-final", "100", "--out", DATA),
    "kg": ("kg", "--out", DATA),
    "kg-128": ("kg", "--sites", "128", "--a", "0.5", "--seed", "3", "--out", DATA),
    "kg-64-csv": (
        "kg", "--sites", "64", "--a", "-0.7", "--seed", "5", "--format", "csv", "--out", DATA,
    ),
    # an odd lattice: labels -8..8, so its FFT bins j mod N hold no Nyquist bin
    "kg-17": ("kg", "--sites", "17", "--a", "0.5", "--seed", "4", "--out", DATA),
    **{
        f"wdw-universe{i}": (
            "wdw", "--mass", m, "--kappa", k, "--alpha0", a,
            *(("--format", "csv") if i == 4 else ()), "--out", DATA,
        )
        for i, (m, k, a) in enumerate(UNIVERSES)
    },
    "wdw-closed-zero-mode": ("wdw", "--kappa", "1", "--alpha0", "0"),
    "wdw-alpha0-200": ("wdw", "--alpha0", "200"),
    "wdw-modes12": ("wdw", "--mass", "2", "--kappa", "0", "--alpha0", "-0.3", "--modes", "12"),
    "wdw-closed-modes12": (
        "wdw", "--kappa", "1", "--alpha0", "-0.5", "--modes", "12", "--out", DATA,
    ),
    "wdw-mass-1e200": ("wdw", "--mass", "1e200"),
    "wdw-modes300": ("wdw", "--modes", "300"),
    "wdw-modes65": ("wdw", "--modes", "65"),
    "wdw-modes32": ("wdw", "--modes", "32", "--out", DATA),
    "wdw-alpha0-minus300": ("wdw", "--alpha0", "-300"),
    "wdw-tol": ("wdw", "--tol", "1e-30"),
    "sho-t-final-1e300": ("sho", "--t-final", "1e300", "--steps", "100"),
    "sho-lplus-1e308": ("sho", "--lplus", "1e308", "--lminus", "0", "--steps", "100"),
    "kg-mu-1e300": ("kg", "--mu", "1e300"),
    "kg-lambda-1e300": ("kg", "--lambda", "1e300"),
    "verify-lambda-1e300": ("verify", "--lambda", "1e300"),
    "verify-tol-2e-16": ("verify", "--tol", "2e-16"),
    # a loose --tol passes verify's own Hermiticity gate; drift_report's eigensolve decides
    "verify-tol-1e-6": ("verify", "--tol", "1e-6"),
}

_TIMESTAMP = re.compile(rb'^(\s*"timestamp": ).*$', re.MULTILINE)


def write(checkout: str, out_dir: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    for name, argv in RUNS.items():
        run_dir = Path(out_dir) / name
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "kgmetric", *argv],
            cwd=run_dir, env=env, capture_output=True, check=False,
        )
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _flatten(obj, name: str = ""):
    """(key, leaf) pairs of parsed JSON, keys spelled `a.b[i]` like the CSV names."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{name}.{key}" if name else key)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _flatten(val, f"{name}[{i}]")
    else:
        yield name, obj


def _keyed(data: bytes) -> dict | None:
    """{key: value} of a JSON document or a CSV table, or None if it is neither.
    A `name,value` CSV is keyed by its names, any other by `column[row]`."""
    text = data.decode(errors="replace")
    try:
        return dict(_flatten(json.loads(text)))
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return None
    if rows[0] == ["name", "value"]:
        return dict(rows[1:])
    return {f"{h}[{i}]": v for i, r in enumerate(rows[1:]) for h, v in zip(rows[0], r)}


def _number(value) -> float | None:
    """A leaf as a float, None for text and booleans; JSON null, which the
    reports write for a non-finite float, reads as NaN."""
    if value is None:
        return math.nan
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _largest_difference(data_a: bytes, data_b: bytes) -> tuple[float, str, float] | None:
    """Largest |x - y| / max(|x|, |y|) over the numeric values of two files with
    the same keys, its key and |x - y| there; None if they do not parse with
    the same keys."""
    keyed_a, keyed_b = _keyed(data_a), _keyed(data_b)
    if keyed_a is None or keyed_b is None or keyed_a.keys() != keyed_b.keys():
        return None
    worst = (0.0, "", 0.0)
    for key in keyed_a:
        x, y = _number(keyed_a[key]), _number(keyed_b[key])
        if x is None or y is None or x == y or (math.isnan(x) and math.isnan(y)):
            continue
        absolute = abs(x - y)
        rel = absolute / max(abs(x), abs(y))
        if math.isnan(rel):  # NaN or infinity against a number
            rel = absolute = math.inf
        if rel > worst[0]:
            worst = (rel, key, absolute)
    return worst


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _non_numeric_difference(rel: Path, data_a: bytes, data_b: bytes) -> str | None:
    """Where two differing files differ other than in a number (and the
    timestamp), or None if only numbers differ. An exit code is not a number
    here."""
    if rel.name == "exit_code":
        return "exit code"
    keyed_a, keyed_b = _keyed(data_a), _keyed(data_b)
    if keyed_a is None or keyed_b is None:
        masked = [_NUMBER.sub(b"#", _TIMESTAMP.sub(rb"\1", d)) for d in (data_a, data_b)]
        return None if masked[0] == masked[1] else "text"
    if keyed_a.keys() != keyed_b.keys():
        return "keys"
    for key, x in keyed_a.items():
        y = keyed_b[key]
        if key != "timestamp" and x != y and (_number(x) is None or _number(y) is None):
            return key
    return None


def compare(a: str, b: str, verdicts: bool = False) -> int:
    root_a, root_b = Path(a), Path(b)
    names_a, names_b = _files(root_a), _files(root_b)
    differing = sorted(names_a ^ names_b)
    for rel in sorted(names_a & names_b):
        masked = [_TIMESTAMP.sub(rb"\1<masked>", (r / rel).read_bytes()) for r in (root_a, root_b)]
        if masked[0] != masked[1]:
            differing.append(rel)
    not_numeric = len(names_a ^ names_b)
    for rel in sorted(differing):
        print(f"differs: {rel}")
        if rel in names_a and rel in names_b:
            data = [(r / rel).read_bytes() for r in (root_a, root_b)]
            largest = _largest_difference(*data)
            if largest is not None:
                rel_diff, key, abs_diff = largest
                print(f"  largest relative difference {rel_diff:.3g} at {key or 'top level'}"
                      f" (absolute {abs_diff:.3g})" if rel_diff else "  no numeric difference")
            where = _non_numeric_difference(rel, *data) if verdicts else None
            if where is not None:
                not_numeric += 1
                print(f"  not only numeric: differs at {where}")
    print(f"{len(names_a | names_b) - len(differing)} files identical, {len(differing)} differ")
    if verdicts:
        print(f"{not_numeric} files differ other than in numbers")
        return 1 if not_numeric else 0
    return 1 if differing else 0


def main(argv: list) -> int:
    verdicts = argv[:2] == ["compare", "--verdicts"]
    if verdicts:
        argv = argv[:1] + argv[2:]
    if len(argv) != 3 or argv[0] not in ("write", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    return write(*argv[1:]) if argv[0] == "write" else compare(*argv[1:], verdicts=verdicts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
