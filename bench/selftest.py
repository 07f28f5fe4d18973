"""Self-test of the benchmark's oracles.

    python3 bench/selftest.py

Runs small real reports, checks that the oracles accept them, then corrupts
each output in one way the oracles must catch and checks that they reject
it. Exits 0 when every case behaves, 1 otherwise. Takes about 20 s, most of
it the wdw grid eigensolve.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run  # sets the BLAS pin and the import paths before numpy loads
import numpy as np
import oracles
from workloads import DATA_DIR, Op


def main() -> int:
    cli = run.load_program()
    os.chdir(run.ROOT)
    os.makedirs(DATA_DIR, exist_ok=True)
    failures = []

    def expect(label, problems, rejected):
        ok = bool(problems) == rejected
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(label)

    def real(op):
        outcome = run.run_op(cli, op)
        expect(f"genuine {' '.join(op.argv)}", run.judge(op, outcome, [outcome]), False)
        return outcome, json.loads(outcome.stdout)

    # verify: a check over its bound while `pass` says true, a dropped check,
    # and a repeat whose report differs in one digit
    op = Op("verify", ("verify", "--dim", "3", "--seed", "1"))
    outcome, report = real(op)
    bent = copy.deepcopy(report)
    check = next(c for c in bent["checks"] if c["name"] == "propagator-composition")
    check["measured"], check["pass"] = 10.0 * oracles.VERIFY_BOUNDS[check["name"]], True
    expect("verify check over its bound with pass=true", oracles.check_verify(bent), True)
    dropped = copy.deepcopy(report)
    dropped["checks"] = [c for c in dropped["checks"] if c["name"] != "oscillator-exact-values"]
    dropped["summary"]["total"] -= 1
    expect("verify report with a dropped check", oracles.check_verify(dropped), True)
    repeat = Op("verify", op.argv, repeat_of=0)
    changed = run.Outcome(0, outcome.stdout.replace('"seed": 1', '"seed": 2'), 0.0)
    expect("verify repeat that differs", run.judge(repeat, changed, [outcome]), True)

    # wdw: one cross-check eigenvalue moved off the stencil's spectrum
    op = Op("wdw", ("wdw", "--kappa", "0", "--out", f"{DATA_DIR}/selftest-wdw.json"),
            f"{DATA_DIR}/selftest-wdw.json")
    _, report = real(op)
    detail = oracles.load_json(op.data)
    detail["crosscheck"]["numeric"][3] *= 1.0 + 1e-6
    expect("wdw cross-check eigenvalue perturbed by 1e-6", oracles.check_wdw(report, detail), True)

    # kg: a non-relativistic lhs moved so the reported gap no longer follows
    op = Op("kg", ("kg", "--sites", "16", "--out", f"{DATA_DIR}/selftest-kg.json"),
            f"{DATA_DIR}/selftest-kg.json")
    _, report = real(op)
    detail = oracles.load_json(op.data)
    nr = detail["nonrel_limit"]
    nr["lhs_re"] += 1e-3 * abs(complex(nr["rhs_re"], nr["rhs_im"]))
    expect("kg lhs moved by 1e-3 |rhs|", oracles.check_kg(report, detail), True)

    # sho: a position series bent away from cos(omega t)
    op = Op("sho", ("sho", "--steps", "4000", "--t-final", "4", "--omega", "1.3",
                    "--out", f"{DATA_DIR}/selftest-sho.csv"),
            f"{DATA_DIR}/selftest-sho.csv")
    _, report = real(op)
    series = oracles.read_series(op.data)
    series["x_re"] = series["x_re"] + 1e-6 * np.sin(series["t"])
    expect("sho series bent by 1e-6 sin(t)", oracles.check_sho(report, series), True)

    print(f"{len(failures)} oracle self-test case(s) failed" if failures
          else "all oracle self-test cases behaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
