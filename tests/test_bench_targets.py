"""The traced benchmark's layer targets still exist in the package.

bench/tracing.py wraps package functions by name and reads some of their
parameters. A refactor that drops or renames one would silently empty that
layer's metrics, so the targets are checked here, without importing the
benchmark as a package.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    reads = {tracing._matrix_n3: "matrix", tracing._steps: "steps"}
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        if target.owner is None:
            assert hasattr(module, target.attr), target.layer
            fn = getattr(module, target.attr)
        else:
            owner = getattr(module, target.owner)
            assert target.attr in vars(owner), target.layer
            fn = vars(owner)[target.attr]
        if target.work is not None:
            assert reads[target.work] in inspect.signature(fn).parameters, target.layer
