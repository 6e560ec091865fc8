"""In-memory span tracing around the public functions of each odmts module.

Tracing works by replacing module attributes with wrappers, so it sees every
call that goes through the attribute: calls made by the benchmark and calls
odmts makes between its own modules (`design.solve_milp`, `fleet.solve_lp`,
...). Nothing in odmts itself changes. Attributes a later version of odmts no
longer has are skipped, so their layer reads 0.

A span records its name, start, end and parent. A span's self time is its
duration minus the durations of its children (children of one span never
overlap: every traced call is synchronous).
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from odmts import milp
from workloads import distinct_routes, lp_size

# (module, attribute, span name). Several attributes may share a span name:
# cross-module imports such as `cli.validate` are the same function as
# `instance.validate`, reached through another module's namespace.
WRAPPED = (
    ("cli", "run_pipeline", "cli.run_pipeline"),
    ("cli", "load_instance", "instance.load"),
    ("instance", "load_instance", "instance.load"),
    ("cli", "validate", "instance.validate"),
    ("instance", "validate", "instance.validate"),
    ("routegen", "compute_hub_sets", "routegen.enumerate"),
    ("routegen", "enumerate_pickup_routes", "routegen.enumerate_pickup"),
    ("routegen", "enumerate_dropoff_routes", "routegen.enumerate_dropoff"),
    ("routegen", "dump_routes", "routegen.dump"),
    ("design", "build_design_model", "design.build"),
    ("design", "solve_design", "design.solve_design"),
    ("design", "save_solution", "design.save"),
    ("design", "solve_milp", "milp.solve_milp"),
    ("milp", "solve_milp", "milp.solve_milp"),
    ("milp", "_scipy_milp", "milp.scipy_milp"),
    ("fleet", "solve_lp", "milp.solve_lp"),
    ("milp", "solve_lp", "milp.solve_lp"),
    ("milp", "linprog", "milp.scipy_lp"),
    ("milp", "export_model", "milp.export"),
    ("fleet", "routes_to_tasks", "fleet.routes_to_tasks"),
    ("fleet", "build_sparse_graph", "fleet.graph_sparse"),
    ("fleet", "build_dense_graph", "fleet.graph_dense"),
    ("fleet", "fleet_model", "fleet.model"),
    ("fleet", "solve_fleet_sparse", "fleet.solve"),
    ("fleet", "solve_fleet_dense", "fleet.solve"),
    ("fleet", "recover_schedules", "fleet.recover"),
    ("fleet", "min_fleet_oracle", "fleet.oracle"),
    ("fleet", "save_result", "fleet.save"),
    ("metrics", "build_report", "metrics.report"),
    ("metrics", "emit_report", "metrics.emit"),
)

# Per-layer metric -> span names whose self time it sums.
SELF_TIMES = {
    "instance.load_s": ("instance.load",),
    "instance.validate_s": ("instance.validate",),
    "routegen.enumerate_s": (
        "routegen.enumerate",
        "routegen.enumerate_pickup",
        "routegen.enumerate_dropoff",
    ),
    "routegen.dump_s": ("routegen.dump",),
    "design.build_s": ("design.build",),
    "design.self_s": ("design.solve_design",),
    "design.save_s": ("design.save",),
    "milp.scipy_milp_s": ("milp.scipy_milp",),
    "milp.solve_milp_self_s": ("milp.solve_milp",),
    "milp.scipy_lp_s": ("milp.scipy_lp",),
    "milp.solve_lp_self_s": ("milp.solve_lp",),
    "milp.export_s": ("milp.export",),
    "fleet.routes_to_tasks_s": ("fleet.routes_to_tasks",),
    "fleet.graph_s": ("fleet.graph_sparse", "fleet.graph_dense"),
    "fleet.model_s": ("fleet.model",),
    "fleet.recover_s": ("fleet.recover",),
    "fleet.solve_self_s": ("fleet.solve",),
    "fleet.oracle_s": ("fleet.oracle",),
    "fleet.save_s": ("fleet.save",),
    "metrics.report_s": ("metrics.report",),
    "metrics.emit_s": ("metrics.emit",),
    "cli.self_s": ("cli.run_pipeline",),
}
_METRIC_OF_SPAN = {name: metric for metric, names in SELF_TIMES.items() for name in names}

# Size counts read from return values after the unit ends; within one unit
# the last call of a function wins.
COUNTS = (
    "routegen.routes_pickup",
    "routegen.routes_dropoff",
    "design.vars",
    "design.rows",
    "design.nnz",
    "fleet.tasks",
    "fleet.arcs_sparse",
    "fleet.arcs_dense",
    "fleet.size",
)

# Solver counts parsed from the ODMTS_SOLVE_LOG lines of one unit; summed.
SOLVE_LOG_COUNTS = ("milp.mip_nodes", "milp.lp_iters", "milp.lp_solves")


def _graph_arcs(g) -> int:
    return len(g.arcs) + len(g.source_arcs) + len(g.sink_arcs)


def _design_size(dm, tmp: Path) -> dict:
    """Model size counted from an LP export (made after the unit, untraced),
    so the count does not depend on how odmts stores models."""
    path = tmp / "traced-design.lp"
    milp.export_model(dm.model, str(path), "lp")
    size = lp_size(str(path))
    path.unlink()
    return {f"design.{key}": value for key, value in size.items()}


# Span name -> function(result, scratch dir) -> {count name: value}.
_RESULT_COUNTS = {
    "routegen.enumerate_pickup": lambda om, _: {"routegen.routes_pickup": distinct_routes(om)},
    "routegen.enumerate_dropoff": lambda om, _: {"routegen.routes_dropoff": distinct_routes(om)},
    "design.build": _design_size,
    "fleet.graph_sparse": lambda g, _: {"fleet.tasks": len(g.tasks), "fleet.arcs_sparse": _graph_arcs(g)},
    "fleet.graph_dense": lambda g, _: {"fleet.tasks": len(g.tasks), "fleet.arcs_dense": _graph_arcs(g)},
    "fleet.solve": lambda res, _: {"fleet.size": res.fleet_size},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0


@dataclass
class Tracer:
    """Records spans for one unit at a time; finished units stay in memory
    until the run writes them out. `tmp` is a scratch directory."""

    tmp: Path
    spans: list[Span] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)
    _results: dict[str, object] = field(default_factory=dict)

    def install(self) -> None:
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module(f"odmts.{mod_name}")
            if not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        keep_result = name in _RESULT_COUNTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if keep_result:
                self._results[name] = result
            return result

        return traced

    def finish_unit(self, wall_s: float, solve_log: str) -> None:
        """Fold the spans of the unit just run into one record and start a
        fresh unit."""
        self_s = {metric: 0.0 for metric in SELF_TIMES}
        covered = 0.0
        for s in self.spans:
            dur = s.end - s.start
            if s.parent is None:
                covered += dur
            metric = _METRIC_OF_SPAN.get(s.name)
            if metric is not None:
                self_s[metric] += dur - s.child_s
        counts = {name: 0 for name in COUNTS}
        count_errors = []
        for name, result in self._results.items():
            try:
                counts.update(_RESULT_COUNTS[name](result, self.tmp))
            except (AttributeError, TypeError) as exc:  # a result shape this code does not know
                count_errors.append(f"{name}: {exc!r}")
        record = {
            "wall_s": wall_s,
            "uncovered_s": wall_s - covered,
            "self_s": self_s,
            "counts": counts,
            "count_errors": count_errors,
            "solve_log": parse_solve_log(solve_log),
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
        }
        self.units.append(record)
        self.spans = []
        self._results = {}


_LOG_LINE = re.compile(r"^\[(?P<kind>lp|milp)\] model=(?P<model>\S+)")
_FIELD = re.compile(r"\b(nodes|iters)=(\d+)")


def parse_solve_log(text: str) -> dict[str, int]:
    """Sum node and iteration counts over the solve-log lines of one unit and
    count the LP solves, also per model name."""
    out: dict = {name: 0 for name in SOLVE_LOG_COUNTS}
    out["lp_models"] = {}
    for line in text.splitlines():
        m = _LOG_LINE.match(line)
        if not m:
            continue
        fields = dict(_FIELD.findall(line))
        if m["kind"] == "lp":
            out["milp.lp_solves"] += 1
            out["lp_models"][m["model"]] = out["lp_models"].get(m["model"], 0) + 1
            out["milp.lp_iters"] += int(fields.get("iters", 0))
        else:
            out["milp.mip_nodes"] += int(fields.get("nodes", 0))
    return out
