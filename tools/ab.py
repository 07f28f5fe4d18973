"""A/B benchmark: alternating bench/run.py runs on two checkouts.

    python tools/ab.py PARENT CHANGE --workload W [--workload W2 ...]
                       [--pairs N] [--seed SEED]

For each workload, runs `python3 bench/run.py --workload W --seed S
--seconds T` (untraced) N times on each checkout, in its own directory,
alternating which side runs first; pair i uses seed SEED + i on both
sides. T is always the run_seconds of PARENT/BENCHMARK.json: the
benchmark fixes the run length, so the verdicts hold only at it. It reads the JSON line each run prints last and, for each
end-to-end metric, prints both sides' medians and quartiles, the number of
pairs the change wins (ties count for neither side), its median's change
relative to the parent's, and two verdicts:

  - gain: the change wins at least nine tenths of the pairs and its median
    beats the parent's by more than the parent's quartile spread;
  - within bound: the change's median is no worse than the parent's by more
    than the metric's bound in PARENT/BENCHMARK.json (relative); when the
    quartile spread of the parent's runs is wider than the bound, this is
    "unresolved" unless every run of the change beats every parent run.

Failed operations are totalled per side. Nothing under either checkout is
edited except what bench/run.py itself writes to its bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run; its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(parent: list, change: list, better: str, bound: float) -> dict:
    """Win count, relative change of the median and the two verdicts for
    one metric, from paired runs (parent[i] and change[i] share a seed)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (pq1, pmed, pq3), (_, cmed, _) = quartiles(parent), quartiles(change)
    gain = wins >= 0.9 * len(parent) and sign * (pmed - cmed) > pq3 - pq1
    worse = sign * (cmed - pmed) / abs(pmed)
    if (pq3 - pq1) / abs(pmed) > bound and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        within = "unresolved"
    else:
        within = "yes" if worse <= bound else "NO"
    return {"wins": wins, "change": -worse, "gain": gain, "within": within}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_bench(checkout, workload, args.seed + i, seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        print(f"== {workload}: {args.pairs} pairs at {seconds:g} s, seeds "
              f"{args.seed}..{args.seed + args.pairs - 1}")
        for side, results in runs.items():
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"  {side}: {failed} of {attempted} operations failed")
        for name, metric in metrics.items():
            parent, change = ([r["metrics"][name]["value"] for r in runs[s]] for s in runs)
            v = verdicts(parent, change, metric["better"], metric["bound"])
            print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound "
                  f"{metric['bound']:g})")
            for side, values in (("parent", parent), ("change", change)):
                q1, med, q3 = quartiles(values)
                print(f"    {side}: median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
                      f"runs {' '.join(f'{x:.4g}' for x in values)}")
            print(f"    change wins {v['wins']} of {args.pairs} pairs; median "
                  f"{v['change']:+.1%} better; gain: {'yes' if v['gain'] else 'no'}; "
                  f"within bound: {v['within']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
