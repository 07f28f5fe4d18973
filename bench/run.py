"""Benchmark of the four kgmetric reports, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kgmetric source tree; the package is imported from
its `src/` directory. The run repeats whole rounds of the workload's
operations (each one `kgmetric.cli.main(argv)` call) for at most about S
seconds, checks every report and data file with the oracles in oracles.py,
and prints one JSON object as its last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 wraps each layer's entry points and reports per-layer metrics.
Results, span files and the reports' data files go to bench/out/.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads, here and in the set-up probes; one
# thread is within any machine's core count and keeps timings comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DATA_DIR, WORKLOADS, Op, make_round  # noqa: E402

# fresh interpreters started to time the package import, before the rounds
# and again after them, so the median samples the whole run
SETUP_REPEATS = 4


@dataclass
class Outcome:
    code: int | None
    stdout: str
    seconds: float


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import kgmetric.cli from this tree's src/, and nowhere else."""
    if not (SRC / "kgmetric" / "cli.py").is_file():
        raise SystemExit(f"bench: no kgmetric sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgmetric.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "kgmetric":
        raise SystemExit(f"bench: imported kgmetric from {cli.__file__}, not {SRC}")
    return cli


def time_setup() -> list:
    """Wall times for fresh interpreters to import kgmetric.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import kgmetric.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_op(cli, op: Op) -> Outcome:
    """One timed main(argv) call; the clock stops once the report and data
    file are written."""
    if op.data is not None and os.path.exists(op.data):
        os.remove(op.data)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        seconds = time.perf_counter() - start
        print(f"bench: {' '.join(op.argv)} raised\n{traceback.format_exc()}", file=sys.stderr)
        return Outcome(None, out.getvalue(), seconds)
    seconds = time.perf_counter() - start
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return Outcome(code, out.getvalue(), seconds)


def judge(op: Op, outcome: Outcome, earlier: list) -> list:
    """Problems with one operation's output; empty when it is correct."""
    if outcome.code != 0:
        return [f"exit code {outcome.code}"]
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return ["no JSON report on stdout"]
    problems = []
    if op.repeat_of is not None:
        first = earlier[op.repeat_of].stdout
        if oracles.strip_timestamp(first) != oracles.strip_timestamp(outcome.stdout):
            problems.append("report differs from the same configuration's first report")
    try:
        if op.subcommand == "verify":
            problems += oracles.check_verify(report)
        elif op.subcommand == "wdw":
            problems += oracles.check_wdw(report, oracles.load_json(op.data))
        elif op.subcommand == "kg":
            problems += oracles.check_kg(report, oracles.load_json(op.data))
        else:
            problems += oracles.check_sho(report, oracles.read_series(op.data))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.ops = []  # per-operation record for the result file

    def do_round(self, ops: list, tracer: Tracer | None = None) -> list:
        outcomes = []
        for op in ops:
            if tracer is not None:
                tracer.request += 1
            outcomes.append(run_op(self.cli, op))
        for op, outcome in zip(ops, outcomes):
            self.record(op, outcome, judge(op, outcome, outcomes))
        return outcomes

    def record(self, op: Op, outcome: Outcome, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            print(f"bench: FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        self.ops.append(
            {"argv": list(op.argv), "seconds": outcome.seconds, "problems": problems}
        )


def machine() -> dict:
    import numpy

    info = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    cli = load_program()
    os.makedirs(DATA_DIR, exist_ok=True)

    metrics = {}
    setup_times = [] if args.trace else time_setup()

    run = Run(cli)
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    k = 0
    first = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            # a traced run repeats round 0, so its per-report counts repeat exactly
            ops = make_round(args.workload, args.seed, 0 if tracer else k)
            outcomes = run.do_round(ops, tracer)
            first = first or outcomes[0]
            k += 1
            # start another round only if one of the mean length ends in time,
            # so a run of long rounds lasts at most --seconds
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / k > args.seconds:
                break

    if tracer is None:
        setup_times += time_setup()
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        # the mean over the whole run, not the median round: host slow-downs
        # come in phases, and only the mean averages the phases a run spans
        report_s = statistics.fmean(op["seconds"] for op in run.ops)
        metrics["report_s"] = {"value": report_s, "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    else:
        reports = tracer.request + 1
        metrics.update(tracer.layer_metrics(reports))
        # round 0's first operation once more, untraced: the tracing overhead,
        # and a check that tracing leaves the report unchanged
        op = replace(make_round(args.workload, args.seed, 0)[0], repeat_of=0)
        outcome = run_op(cli, op)
        run.record(op, outcome, judge(op, outcome, [first]))
        metrics["trace.overhead_s"] = {"value": first.seconds - outcome.seconds, "unit": "s"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=k, machine=machine(), operations=run.ops)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
