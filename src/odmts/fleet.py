"""Fleet sizing: minimum number of shuttles to serve all selected routes.

Each selected route becomes a timed task (start location, end location,
start time, duration). Two tasks are compatible when one shuttle can serve
them back to back, i.e. finish the first and reposition before the second
starts. The minimum fleet is the minimum number of source-to-sink flow
units covering every task. There are two fleet graphs:

* the dense graph puts an arc on every compatible ordered pair and lets the
  source feed and the sink drain every task;
* the sparse graph drops transitive arcs (kept only when no one-stop relay
  exists; relays are read off the compatibility matrix squared in float32),
  so the source feeds only tasks without predecessors and the sink drains
  only tasks without successors.

`solve_fleet` solves either graph as a covering minimum flow (at least one
unit per task, uncapacitated integer arcs), found as one max flow (scipy's
Dinic) by the lower-bound reduction in `_min_flow` and split into
source-sink paths by `recover_schedules`; a task goes to the first path
that reaches it. Compatibility is transitive on metric tasks, so the relay
filter keeps the optimum. `fleet_model` writes the paper's LP for either
graph (exact unit visits on the dense one, covering visits on the sparse
one) for export and cross-checks.

A `FleetGraph` keeps its arcs as arrays that the model writer and the max
flow read directly: (tail, head) rows in lexicographic order, as
`np.argwhere` reads them off the arc mask, and the sorted indices of the
tasks the source feeds and of those that drain to the sink.

A minimum path cover oracle (task count minus a maximum bipartite matching
over the full compatibility relation, found as a unit-capacity Dinic max
flow) is provided for cross-checking.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

from .instance import EPS, Instance
from .milp import EQUAL, GREATER_EQUAL, MilpModel
from .routegen import DROPOFF, PICKUP

SOURCE = "s"
SINK = "t"

DENSE = "dense"
SPARSE = "sparse"


class FlowError(ValueError):
    """The flow handed to schedule recovery is not a valid integral flow."""


@dataclass(frozen=True)
class Task:
    id: str
    start_loc: str
    end_loc: str
    start: float
    duration: float


@dataclass
class FleetGraph:
    kind: str
    tasks: tuple[Task, ...]  # sorted by (start, id)
    arcs: np.ndarray  # (m, 2) int64 (tail, head) task-index rows, lexicographic
    source_arcs: np.ndarray  # sorted int64 indices of tasks the source feeds
    sink_arcs: np.ndarray  # sorted int64 indices of tasks that drain to the sink


@dataclass
class FleetResult:
    fleet_size: int
    schedules: tuple[tuple[str, ...], ...]
    flows: dict[tuple, int]


def routes_to_tasks(ds, inst: Instance) -> list[Task]:
    """Tasks for a design solution: one per selected pickup/dropoff route and,
    for each direct commodity, one single-rider task per passenger."""
    tasks: list[Task] = []
    for w in ds.selected_routes:
        first, last = w.commodities[0], w.commodities[-1]
        if w.kind == PICKUP:
            tasks.append(
                Task(f"p:{w.hub}:{'|'.join(c.id for c in w.commodities)}",
                     first.origin, w.hub, w.start_time, w.duration)
            )
        elif w.kind == DROPOFF:
            tasks.append(
                Task(f"d:{w.hub}:{'|'.join(c.id for c in w.commodities)}",
                     w.hub, last.destination, w.start_time, w.duration)
            )
    for cid in sorted(ds.direct):
        c = inst.commodity(cid)
        for k in range(c.passengers):
            tasks.append(
                Task(f"direct:{cid}:{k}", c.origin, c.destination, c.depart,
                     inst.time(c.origin, c.destination))
            )
    return tasks


def _sorted_tasks(tasks) -> tuple[Task, ...]:
    return tuple(sorted(tasks, key=lambda t: (t.start, t.id)))


def compatible(a: Task, b: Task, inst: Instance) -> bool:
    """True when one shuttle can serve b right after a."""
    if b.start <= a.start + EPS:
        return False
    return a.start + a.duration + inst.time(a.end_loc, b.start_loc) <= b.start + EPS


def _compatibility(tasks: tuple[Task, ...], inst: Instance) -> np.ndarray:
    """comp[i, j] == (i != j and compatible(tasks[i], tasks[j], inst)), with
    the scalar rule's float order so ties at EPS fall the same way."""
    start = np.array([t.start for t in tasks], dtype=float)
    dur = np.array([t.duration for t in tasks], dtype=float)
    end_idx = [inst.node_index(t.end_loc) for t in tasks]
    start_idx = [inst.node_index(t.start_loc) for t in tasks]
    arrive = inst.travel_time[np.ix_(end_idx, start_idx)]  # reposition times, a fresh copy
    arrive += (start + dur)[:, None]
    latest = start + EPS
    comp = arrive <= latest[None, :]
    comp &= ~(start[None, :] <= latest[:, None])
    np.fill_diagonal(comp, False)
    return comp


def build_dense_graph(tasks, inst: Instance) -> FleetGraph:
    """Arc on every compatible ordered pair; source and sink connect to all."""
    ts = _sorted_tasks(tasks)
    every = np.arange(len(ts))
    return FleetGraph(DENSE, ts, np.argwhere(_compatibility(ts, inst)), every, every)


def build_sparse_graph(tasks, inst: Instance) -> FleetGraph:
    """Keep a compatibility arc only when no one-stop relay covers it; the
    source feeds tasks without predecessors and tasks without successors
    drain to the sink."""
    ts = _sorted_tasks(tasks)
    comp = _compatibility(ts, inst)
    # float32 goes through BLAS; a sum of non-negative 0/1 products is never
    # rounded to 0, so "> 0" is exact.
    c = comp.astype(np.float32)
    keep = comp & ~((c @ c) > 0)
    sources = np.flatnonzero(~keep.any(axis=0))
    sinks = np.flatnonzero(~keep.any(axis=1))
    return FleetGraph(SPARSE, ts, np.argwhere(keep), sources, sinks)


def fleet_model(g: FleetGraph) -> tuple[MilpModel, dict[tuple, int]]:
    """Flow model for a fleet graph: exact unit visits on the dense graph,
    covering visits with uncapacitated arcs on the sparse one. Returns the
    model and the arc -> variable index map."""
    model = MilpModel(name=f"fleet-{g.kind}")
    binary = g.kind == DENSE
    n = len(g.tasks)
    tail, head = g.arcs.T
    src, snk = g.source_arcs, g.sink_arcs
    keys = (
        [(SOURCE, i) for i in src.tolist()]
        + list(zip(tail.tolist(), head.tolist()))
        + [(i, SINK) for i in snk.tolist()]
    )
    model.add_vars([f"v[{a},{b}]" for a, b in keys], 0, 1 if binary else np.inf)
    var = dict(zip(keys, range(len(keys))))

    # Variables in order: source arcs, task arcs, sink arcs. Row 2i is
    # visit[i] (arcs into task i); row 2i + 1 is conserve[i] (arcs into i
    # minus arcs out of i).
    into = np.concatenate([src, head])
    out_of = np.concatenate([tail, snk])
    k_in = np.arange(into.size)
    k_out = np.arange(src.size, len(keys))
    a = sp.csr_array(
        (
            np.concatenate([np.ones(2 * into.size), -np.ones(out_of.size)]),
            (np.concatenate([2 * into, 2 * into + 1, 2 * out_of + 1]), np.concatenate([k_in, k_in, k_out])),
        ),
        shape=(2 * n, len(keys)),
    )
    model.add_rows(
        a.indptr, a.indices, a.data,
        np.tile([EQUAL if binary else GREATER_EQUAL, EQUAL], n),
        np.tile([1.0, 0.0], n),
        [name for i in range(n) for name in (f"visit[{i}]", f"conserve[{i}]")],
    )
    model.set_objective(dict.fromkeys(range(src.size), 1.0))
    return model, var


def _min_flow(g: FleetGraph) -> dict[tuple, int]:
    """Minimum covering flow on a fleet graph, found as one max flow (the
    lower-bound reduction of Ahuja, Magnanti & Orlin, ch. 6).

    Start from the n unit paths s -> i -> t and cancel as many units as
    possible with one max flow from t to s (Dinic) on the residual graph.
    Task i is split into out_i (node i) and in_i (node n + i):
    t -> out_i and in_i -> s have capacity 1; out_i -> in_j for each arc
    (i, j) and in_j -> out_j have capacity n + 1, i.e. unbounded. The fleet
    is n minus the max-flow value.

    The residual graph lets units enter and leave at any task. A unit that
    enters at a task with a predecessor is walked back along fixed
    predecessor arcs to a source task, and one that leaves at a task with a
    successor is walked forward along fixed successor arcs to a sink task.
    Arcs are uncapacitated and point forward in the sorted task order, so
    this keeps the fleet size. The walks follow graph arcs and end at tasks
    the source feeds or the sink drains; on the sparse graph those are the
    tasks without predecessors or successors, and on the dense graph the
    source and sink reach every task. So on either graph the result is a
    flow on the graph's own arcs. Returns its positive entries."""
    n = len(g.tasks)
    tail, head = g.arcs.T
    t, s = 2 * n, 2 * n + 1
    idx = np.arange(n)
    rows = np.concatenate([np.full(n, t), tail, n + idx, n + idx])
    cols = np.concatenate([idx, n + head, idx, np.full(n, s)])
    cap = np.concatenate([np.ones(n), np.full(tail.size + n, n + 1), np.ones(n)]).astype(np.int32)
    graph = sp.csr_array((cap, (rows, cols)), shape=(2 * n + 2, 2 * n + 2))
    flow = maximum_flow(graph, t, s, method="dinic").flow.tocoo()
    pos = flow.data > 0
    r, c, f = flow.row[pos], flow.col[pos], flow.data[pos]
    # Reverse arcs carry negative flow, so the positive entries of the
    # out -> in block are exactly the graph arcs in use (there is no (j, j)).
    on_arc = (r < n) & (c >= n)
    flows = dict(zip(zip(r[on_arc].tolist(), (c[on_arc] - n).tolist()), f[on_arc].tolist()))
    enter = np.ones(n, dtype=np.int64)  # flow on (s, i): 1 - flow(in_i -> s)
    enter[r[c == s] - n] -= f[c == s]
    leave = np.ones(n, dtype=np.int64)  # flow on (i, t): 1 - flow(t -> out_i)
    leave[c[r == t]] -= f[r == t]

    # Fixed pointers: the latest predecessor and the earliest successor.
    pred = np.full(n, -1)
    np.maximum.at(pred, head, tail)
    succ = np.full(n, n)
    np.minimum.at(succ, tail, head)
    pred, succ, enter, leave = pred.tolist(), succ.tolist(), enter.tolist(), leave.tolist()
    # pred[i] < i < succ[i], so one sweep each way carries every displaced
    # unit all the way to a source or sink task.
    for i in range(n - 1, -1, -1):
        if enter[i] and pred[i] >= 0:
            flows[(pred[i], i)] = flows.get((pred[i], i), 0) + enter[i]
            enter[pred[i]] += enter[i]
            enter[i] = 0
    for i in range(n):
        if leave[i] and succ[i] < n:
            flows[(i, succ[i])] = flows.get((i, succ[i]), 0) + leave[i]
            leave[succ[i]] += leave[i]
            leave[i] = 0
    flows.update({(SOURCE, i): k for i, k in enumerate(enter) if k})
    flows.update({(i, SINK): k for i, k in enumerate(leave) if k})
    return flows


def solve_fleet(g: FleetGraph) -> FleetResult:
    """Minimum fleet on a dense or sparse fleet graph: the covering min flow,
    decomposed into shuttle schedules. Shuttles may share arcs, so a unit
    serves only the tasks no earlier unit reached."""
    if not g.tasks:
        return FleetResult(0, (), {})
    return recover_schedules(g, _min_flow(g))


# The benchmark's fleet_1k workload (perfbench/workloads.py) still calls the
# old name; drop this alias when the benchmark moves to `solve_fleet`.
solve_fleet_sparse = solve_fleet


def recover_schedules(g: FleetGraph, flows: dict[tuple, int]) -> FleetResult:
    """Decompose an integral flow into source-sink paths; each path becomes one
    shuttle serving the not-yet-covered tasks along it, in path order."""
    residual = {}
    for key, val in flows.items():
        if val != int(val) or val < 0:
            raise FlowError(f"flow on arc {key} is not a nonnegative integer: {val}")
        if val:
            residual[key] = int(val)

    inflow, outflow = Counter(), Counter()
    for (a, b), val in residual.items():
        inflow[b] += val
        outflow[a] += val
    n = len(g.tasks)
    for i in range(n):
        if inflow[i] != outflow[i]:
            raise FlowError(f"flow not conserved at task {i}: in {inflow[i]} vs out {outflow[i]}")
        if inflow[i] < 1:
            raise FlowError(f"task {i} is not covered by the flow")

    out_arcs: dict[object, list] = {}
    for (a, b) in residual:
        out_arcs.setdefault(a, []).append(b)
    for succs in out_arcs.values():
        succs.sort(key=lambda b: (1, "") if b == SINK else (0, g.tasks[b].id))

    covered: set[int] = set()
    schedules: list[tuple[str, ...]] = []
    for _ in range(outflow[SOURCE]):
        path = []
        node: object = SOURCE
        while node != SINK:
            nxt = None
            for b in out_arcs.get(node, []):
                if residual.get((node, b), 0) > 0:
                    nxt = b
                    break
            if nxt is None:
                raise FlowError(f"flow decomposition stuck at node {node}")
            residual[(node, nxt)] -= 1
            if nxt != SINK:
                path.append(nxt)
            node = nxt
        fresh = [i for i in path if i not in covered]
        if not fresh:
            raise FlowError(
                "a flow unit covers no new task; the flow is not a minimum covering flow"
            )
        covered.update(fresh)
        schedules.append(tuple(g.tasks[i].id for i in fresh))
    if len(covered) != n:
        raise FlowError("flow decomposition left tasks unserved")
    result = FleetResult(len(schedules), tuple(schedules), dict(flows))
    _assert_partition(result, g)
    return result


def _assert_partition(result: FleetResult, g: FleetGraph) -> None:
    seen: list[str] = [tid for sched in result.schedules for tid in sched]
    if len(seen) != len(set(seen)) or set(seen) != {t.id for t in g.tasks}:
        raise FlowError("schedules do not partition the task set")


def schedules_feasible(result: FleetResult, tasks, inst: Instance) -> bool:
    """Every consecutive task pair in every schedule must be servable by one
    shuttle (holds even across filtered arcs, by the triangle inequality)."""
    by_id = {t.id: t for t in tasks}
    for sched in result.schedules:
        for a_id, b_id in zip(sched, sched[1:]):
            a, b = by_id[a_id], by_id[b_id]
            if a.start + a.duration + inst.time(a.end_loc, b.start_loc) > b.start + EPS:
                return False
    return True


def min_fleet_oracle(tasks, inst: Instance) -> int:
    """Independent check: minimum path cover of the full compatibility
    relation, computed as task count minus a maximum bipartite matching. The
    matching is a unit-capacity max flow (Dinic) s -> i -> j' -> t, one
    i -> j' arc per compatible pair."""
    ts = _sorted_tasks(tasks)
    n = len(ts)
    left, right = np.nonzero(_compatibility(ts, inst))
    s, t = 2 * n, 2 * n + 1
    idx = np.arange(n)
    rows = np.concatenate([np.full(n, s), left, n + idx])
    cols = np.concatenate([idx, n + right, np.full(n, t)])
    graph = sp.csr_array((np.ones(rows.size, dtype=np.int32), (rows, cols)), shape=(2 * n + 2, 2 * n + 2))
    return n - int(maximum_flow(graph, s, t, method="dinic").flow_value)


# -- serialization -----------------------------------------------------------


def result_to_dict(result: FleetResult, tasks) -> dict:
    by_id = {t.id: t for t in tasks}
    return {
        "fleet_size": result.fleet_size,
        "schedules": [list(s) for s in result.schedules],
        "tasks": [
            {
                "id": t.id,
                "start_loc": t.start_loc,
                "end_loc": t.end_loc,
                "start": t.start,
                "duration": t.duration,
            }
            for t in sorted(by_id.values(), key=lambda t: (t.start, t.id))
        ],
    }


def save_result(result: FleetResult, tasks, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result, tasks), fh, indent=2, sort_keys=True)
        fh.write("\n")
