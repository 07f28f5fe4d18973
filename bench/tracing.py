"""Span recorder for the traced benchmark run.

Wrappers are installed around the public functions of each kgmetric module
from the benchmark's side; the package itself is not modified. Every module
attribute that is bound to a wrapped function is rebound, because modules
import functions by name (`hermitian_eigendecompose` alone is reachable from
five module namespaces) and rebinding one of them would miss calls made
through the others. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _bound_arg(fn, name):
    """Read argument `name` of a call to `fn`, however it was passed."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _matrix_n3(fn):
    read = _bound_arg(fn, "matrix")

    def work(args, kwargs):
        shape = getattr(read(args, kwargs), "shape", None)
        if shape is None:
            return 0
        return int(shape[0]) ** 3

    return work


def _steps(fn):
    read = _bound_arg(fn, "steps")
    return lambda args, kwargs: int(read(args, kwargs))


@dataclass(frozen=True)
class Target:
    """One traced layer entry point: `layer` names its metrics."""

    layer: str
    module: str
    attr: str
    owner: str | None = None  # class name when the target is a method
    work: object = None  # fn -> (args, kwargs -> int), the per-call work count


# Layer entry points, named <module>.<function>. The `cli.battery` span
# covers whichever battery the subcommand runs.
TARGETS = (
    Target("spectral.hermitian_eigendecompose", "kgmetric.spectral",
           "hermitian_eigendecompose", work=_matrix_n3),
    Target("spectral.operator_power", "kgmetric.spectral", "operator_power"),
    Target("two_component.eigen_system", "kgmetric.two_component", "eigen_system"),
    Target("inner_products.solution_inner", "kgmetric.inner_products", "solution_inner"),
    Target("inner_products.eta_tilde_plus", "kgmetric.inner_products", "eta_tilde_plus"),
    Target("inner_products.eta_inv", "kgmetric.inner_products", "eta_inv"),
    Target("evolution.evolve_schrodinger", "kgmetric.evolution",
           "evolve_schrodinger", work=_steps),
    Target("evolution.evolve_field", "kgmetric.evolution", "evolve_field", work=_steps),
    Target("evolution.drift_report", "kgmetric.evolution", "drift_report"),
    Target("models.wdw.wdw_numeric_crosscheck", "kgmetric.models.wdw",
           "wdw_numeric_crosscheck"),
    Target("models.wdw.overlap_matrix", "kgmetric.models.wdw", "overlap_matrix",
           owner="WdwFrwModel"),
    Target("models.wdw.d_anchored", "kgmetric.models.wdw", "d_anchored",
           owner="WdwFrwModel"),
    Target("models.lattice.kg_inner_ri", "kgmetric.models.lattice", "kg_inner_ri"),
    Target("models.lattice.woodard_inner", "kgmetric.models.lattice", "woodard_inner"),
    Target("models.lattice.kg_mode_solution", "kgmetric.models.lattice",
           "kg_mode_solution"),
    Target("cli.battery", "kgmetric.cli", "battery_verify"),
    Target("cli.battery", "kgmetric.cli", "run_sho"),
    Target("cli.battery", "kgmetric.cli", "run_kg"),
    Target("cli.battery", "kgmetric.cli", "run_wdw"),
    Target("cli.main", "kgmetric.cli", "main"),
)

# Per-layer metrics reported from the spans: (layer, statistic).
LAYER_METRICS = (
    ("spectral.hermitian_eigendecompose", "calls"),
    ("spectral.hermitian_eigendecompose", "self_s"),
    ("spectral.hermitian_eigendecompose", "n3_sum"),
    ("spectral.operator_power", "calls"),
    ("spectral.operator_power", "self_s"),
    ("two_component.eigen_system", "calls"),
    ("two_component.eigen_system", "self_s"),
    ("inner_products.solution_inner", "calls"),
    ("inner_products.solution_inner", "self_s"),
    ("inner_products.eta_tilde_plus", "self_s"),
    ("inner_products.eta_inv", "calls"),
    ("inner_products.eta_inv", "self_s"),
    ("evolution.evolve_schrodinger", "calls"),
    ("evolution.evolve_schrodinger", "steps"),
    ("evolution.evolve_schrodinger", "self_s"),
    ("evolution.evolve_field", "calls"),
    ("evolution.evolve_field", "steps"),
    ("evolution.evolve_field", "self_s"),
    ("evolution.drift_report", "calls"),
    ("evolution.drift_report", "self_s"),
    ("models.wdw.wdw_numeric_crosscheck", "self_s"),
    ("models.wdw.overlap_matrix", "calls"),
    ("models.wdw.overlap_matrix", "self_s"),
    ("models.wdw.d_anchored", "calls"),
    ("models.wdw.d_anchored", "self_s"),
    ("models.lattice.kg_inner_ri", "calls"),
    ("models.lattice.kg_inner_ri", "self_s"),
    ("models.lattice.woodard_inner", "self_s"),
    ("models.lattice.kg_mode_solution", "calls"),
    ("models.lattice.kg_mode_solution", "self_s"),
    ("cli.battery", "self_s"),
    ("cli.main", "self_s"),
)

UNITS = {"calls": "count", "steps": "count", "n3_sum": "n3", "self_s": "s"}


class Tracer:
    """Records one span per wrapped call: id, parent, request, start, end,
    self time (duration minus the time covered by child spans) and work."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []  # [span id, child seconds] of the open spans
        self._next_id = 0

    def wrap(self, layer, fn, work=None):
        tracer = self
        count = work(fn) if work is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            units = count(args, kwargs) if count is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, parent, tracer.request, layer, start, end,
                     end - start - frame[1], units)
                )

        return traced

    @contextmanager
    def installed(self):
        """Rebind every alias of every target to its wrapper; undo on exit."""
        undo = []
        package = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "kgmetric" or name.startswith("kgmetric."))
        ]
        try:
            for target in TARGETS:
                module = sys.modules[target.module]
                if target.owner is not None:
                    cls = getattr(module, target.owner)
                    original = cls.__dict__[target.attr]
                    undo.append((cls, target.attr, original))
                    setattr(cls, target.attr, self.wrap(target.layer, original, target.work))
                    continue
                original = getattr(module, target.attr)
                wrapper = self.wrap(target.layer, original, target.work)
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)

    def layer_metrics(self, reports: int) -> dict:
        """Per-report means of each layer statistic over the recorded spans."""
        totals = {}
        for *_, layer, _start, _end, self_s, units in self.spans:
            agg = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "work": 0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["work"] += units or 0
        out = {}
        for layer, stat in LAYER_METRICS:
            agg = totals.get(layer, {"calls": 0, "self_s": 0.0, "work": 0})
            value = agg["work"] if stat in ("steps", "n3_sum") else agg[stat]
            out[f"{layer}.{stat}"] = {"value": value / reports, "unit": UNITS[stat]}
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "request", "layer", "start", "end", "self_s", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
