"""Spans around calls into dirlab's public functions, made from outside src/.

A Tracer replaces module attributes (and three PointSet methods) with
wrappers.  Every module that imported a wrapped name gets the wrapper too,
so calls made inside dirlab, such as ``experiments`` calling
``sphere_coverage``, are seen as well.  ``remove`` puts the originals back.

Two jobs share the wrappers:

* spans: name, start, end, parent, run id, phase and op index of every
  call, kept in memory and written out when the run ends.  Only the traced
  run records them; the untraced run measures the end-to-end metrics.
* capture: the return values of a few named functions, which the checks
  read when the workload's own call does not return them (for example the
  split made inside ``slope_band_sweep``).  Captures cost one extra Python
  call, so untraced runs install only the captured names.

Scalar helpers called once per pair or per value (``canonical_direction``,
``slope_of_pair``, ``infer_mode``, ``is_exact_scalar``) are left unwrapped:
a span per call would swamp the time it measures.  Their time counts
toward the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import dirlab
from dirlab.errors import DirlabError

# (module, function) -> metric group.  A group's self time is the time its
# spans spend outside child spans.
GROUPS = {
    ("generators", "garnett_system"): "generators",
    ("generators", "ifs_approximant"): "generators",
    ("generators", "lattice_set"): "generators",
    ("generators", "hyperplane_sample"): "generators",
    ("generators", "lipschitz_graph_sample"): "generators",
    ("generators", "cantor_line_system"): "generators",
    ("generators", "product_cantor"): "generators",
    ("geometry", "PointSet.from_points"): "geometry.build",
    ("geometry", "PointSet.as_array"): "geometry.views",
    ("geometry", "PointSet.scaled_integer"): "geometry.views",
    ("geometry", "read_point_set"): "geometry.io",
    ("geometry", "write_point_set"): "geometry.io",
    ("geometry", "collinearity_rank"): "geometry.rank",
    ("directions", "distinct_directions"): "directions.census",
    ("directions", "primitive_count"): "directions.census",
    ("directions", "sphere_coverage"): "directions.coverage",
    ("directions", "sphere_coverage_sweep"): "directions.coverage",
    ("directions", "separated_subset"): "directions.separate",
    ("directions", "pps_check"): "directions.pps",
    ("measure", "uniform_weights"): "measure.weights",
    ("measure", "discrete_frostman"): "measure.weights",
    ("measure", "frostman_constant"): "measure.weights",
    ("measure", "energy_integral"): "measure.energy",
    ("measure", "is_adaptable"): "measure.adaptable",
    ("measure", "default_energy_bound"): "measure.adaptable",
    ("measure", "stopping_time_split"): "measure.split",
    ("measure", "orient_split_for_slopes"): "measure.orient",
    ("measure", "slope_density"): "measure.window",
    ("measure", "slope_chart_pair_mass"): "measure.window",
    ("measure", "slope_band_sweep"): "measure.band",
    ("fitting", "fit_power_law"): "fitting",
    ("experiments", "run_scaling_lattice"): "experiments",
    ("experiments", "run_garnett_decay"): "experiments",
    ("experiments", "run_adaptable_directions"): "experiments",
    ("experiments", "run_slope_band"): "experiments",
    ("experiments", "run_all"): "experiments",
    ("experiments", "write_reports"): "experiments",
}

LAYERS = ("generators", "geometry", "directions", "measure", "fitting", "experiments")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _counts(group: str, name: str, args, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if group == "generators" and isinstance(result, dirlab.PointSet):
        return {"points": len(result)}
    if group == "directions.census" and name == "distinct_directions":
        return {"calls": 1, "pairs": result.n_pairs, "keys": result.count}
    if name == "sphere_coverage_sweep":
        return {
            "calls": 1,
            "pairs": result[0].n_pairs,
            "cells": sum(grid.occupied() for grid in result),
        }
    if name == "separated_subset":
        return {"keys_in": len(args[0].keys), "keys_out": len(result.keys)}
    if name == "energy_integral":
        return {"pairs": _pairs(len(args[0]))}
    if name == "stopping_time_split":
        return {"calls": 1, "atoms": len(args[0]), "level": result.level}
    if group == "measure.window":
        return {"calls": 1, "pairs": len(args[0]) * len(args[1])}
    return {}


@dataclass
class Span:
    name: str
    group: str
    start: float
    end: float
    parent: int | None
    run_id: str
    phase: str
    op: int | None
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers on dirlab's public functions; see the module doc."""

    def __init__(self, run_id: str, spans: bool, capture: dict | None = None):
        """capture maps a function name to a reducer (or None to keep the
        result itself); a reducer keeps big results from staying alive."""
        self.run_id = run_id
        self.record_spans = spans
        self.capture_names = dict(capture or {})
        self.captured: dict[str, list] = {name: [] for name in self.capture_names}
        self.spans: list[Span | None] = []
        self.phase = "setup"
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dirlab" or n.startswith("dirlab.")]
        point_set = dirlab.geometry.PointSet
        for (module_name, qualname), group in GROUPS.items():
            name = qualname.rsplit(".", 1)[-1]
            if not self.record_spans and name not in self.capture_names:
                continue
            if qualname.startswith("PointSet."):
                raw = point_set.__dict__[name]
                is_classmethod = isinstance(raw, classmethod)
                func = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(func, qualname, group)
                setattr(point_set, name, classmethod(wrapped) if is_classmethod else wrapped)
                self._undo.append((point_set, name, raw))
                continue
            original = getattr(getattr(dirlab, module_name), name)
            wrapped = self._wrap(original, name, group)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)
                    self._undo.append((module, name, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, func, name: str, group: str):
        tracer = self
        captured = self.captured.get(name)
        reduce = self.capture_names.get(name) or (lambda result: result)

        def wrapper(*args, **kwargs):
            if not tracer.record_spans:
                result = func(*args, **kwargs)
                captured.append(reduce(result))
                return result
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except DirlabError as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(
                    name, group, start, end, parent, tracer.run_id, tracer.phase, tracer.op, error
                )
            tracer.spans[index].counts = _counts(group, name, args, result)
            if captured is not None:
                captured.append(reduce(result))
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = func.__doc__
        return wrapper

    # -- results --------------------------------------------------------

    def take(self, name: str) -> list:
        """Return and forget what has been captured for one function."""
        out = list(self.captured[name])
        self.captured[name].clear()
        return out

    def self_times(self, phases) -> list[tuple[Span, float]]:
        """(span, self time) for every finished span in the given phases."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return [
            (span, span.end - span.start - child_time[i])
            for i, span in enumerate(self.spans)
            if span is not None and span.phase in phases
        ]

    def layer_metrics(self, traced_solve_s: float, untraced_solve_s: float) -> dict:
        """Per-layer metrics over the traced setup and solve phases."""
        rows = self.self_times({"setup", "solve"})
        busy: dict[str, float] = {}
        counts: dict[str, dict] = {}
        errors = {layer: 0 for layer in LAYERS}
        for span, self_s in rows:
            busy[span.group] = busy.get(span.group, 0.0) + self_s
            bucket = counts.setdefault(span.group, {})
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0) + value
            if span.error is not None:
                errors[span.group.split(".")[0]] += 1

        def b(group):
            return busy.get(group, 0.0)

        def c(group, key):
            return counts.get(group, {}).get(key, 0)

        def rate(group):
            return c(group, "pairs") / b(group) if b(group) > 0 else 0.0

        split_calls = c("measure.split", "calls")
        solve_self = sum(self_s for span, self_s in rows if span.phase == "solve")
        m = {
            "generators.busy_s": b("generators"),
            "generators.points": c("generators", "points"),
            "geometry.build_s": b("geometry.build"),
            "geometry.views_s": b("geometry.views"),
            "geometry.io_s": b("geometry.io"),
            "geometry.rank_s": b("geometry.rank"),
            "directions.census.busy_s": b("directions.census"),
            "directions.census.calls": c("directions.census", "calls"),
            "directions.census.pairs": c("directions.census", "pairs"),
            "directions.census.pairs_per_s": rate("directions.census"),
            "directions.census.keys": c("directions.census", "keys"),
            "directions.coverage.busy_s": b("directions.coverage"),
            "directions.coverage.calls": c("directions.coverage", "calls"),
            "directions.coverage.pairs": c("directions.coverage", "pairs"),
            "directions.coverage.pairs_per_s": rate("directions.coverage"),
            "directions.coverage.cells": c("directions.coverage", "cells"),
            "directions.separate.busy_s": b("directions.separate"),
            "directions.separate.keys_in": c("directions.separate", "keys_in"),
            "directions.separate.keys_out": c("directions.separate", "keys_out"),
            "directions.pps.self_s": b("directions.pps"),
            "measure.weights.busy_s": b("measure.weights"),
            "measure.energy.busy_s": b("measure.energy"),
            "measure.energy.pairs": c("measure.energy", "pairs"),
            "measure.energy.pairs_per_s": rate("measure.energy"),
            "measure.adaptable.self_s": b("measure.adaptable"),
            "measure.split.busy_s": b("measure.split"),
            "measure.split.atoms": c("measure.split", "atoms"),
            "measure.split.level": c("measure.split", "level") / split_calls if split_calls else 0.0,
            "measure.orient.busy_s": b("measure.orient"),
            "measure.window.busy_s": b("measure.window"),
            "measure.window.calls": c("measure.window", "calls"),
            "measure.window.pairs": c("measure.window", "pairs"),
            "measure.band.self_s": b("measure.band"),
            "fitting.busy_s": b("fitting"),
            "experiments.self_s": b("experiments"),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = errors[layer]
        m["trace.solve_s"] = traced_solve_s
        m["trace.glue_s"] = traced_solve_s - solve_self
        m["trace.overhead_frac"] = traced_solve_s / untraced_solve_s - 1.0
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                fh.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "group": span.group,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    "phase": span.phase,
                    "op": span.op,
                    "error": span.error,
                    "counts": span.counts,
                }) + "\n")
