"""Golden runs: check that a change leaves every CLI run byte-identical.

    python tools/golden.py write CHECKOUT DIR
        Run each argv in RUNS as `python -m kgmetric ...` with
        PYTHONPATH=CHECKOUT/src, and keep its stdout, stderr, exit code and
        data file under DIR/<run name>/.
    python tools/golden.py compare A B
        Compare two such directories with `timestamp` lines masked. Exit 1,
        naming each file that differs or exists on one side only.

Every run works inside its own directory and writes its data file to the
same relative name, so the `config.out` echo in the report is the same
whatever the checkout's path.
"""

from __future__ import annotations

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
    "kg": ("kg", "--out", DATA),
    "kg-128": ("kg", "--sites", "128", "--a", "0.5", "--seed", "3", "--out", DATA),
    "kg-64-csv": (
        "kg", "--sites", "64", "--a", "-0.7", "--seed", "5", "--format", "csv", "--out", DATA,
    ),
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
    "wdw-alpha0-minus300": ("wdw", "--alpha0", "-300"),
    "wdw-tol": ("wdw", "--tol", "1e-30"),
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


def compare(a: str, b: str) -> int:
    root_a, root_b = Path(a), Path(b)
    names_a, names_b = _files(root_a), _files(root_b)
    differing = sorted(names_a ^ names_b)
    for rel in sorted(names_a & names_b):
        masked = [_TIMESTAMP.sub(rb"\1<masked>", (r / rel).read_bytes()) for r in (root_a, root_b)]
        if masked[0] != masked[1]:
            differing.append(rel)
    for rel in sorted(differing):
        print(f"differs: {rel}")
    print(f"{len(names_a | names_b) - len(differing)} files identical, {len(differing)} differ")
    return 1 if differing else 0


def main(argv: list) -> int:
    if len(argv) != 3 or argv[0] not in ("write", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    return write(*argv[1:]) if argv[0] == "write" else compare(*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
