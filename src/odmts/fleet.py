"""Fleet sizing: minimum number of shuttles to serve all selected routes.

Each selected route becomes a timed task (start location, end location,
start time, duration). Two tasks are compatible when one shuttle can serve
them back to back, i.e. finish the first and reposition before the second
starts. The minimum fleet is the minimum number of source-to-sink flow
units covering every task. There are two fleet graphs:

* the dense graph puts an arc on every compatible ordered pair and lets the
  source feed and the sink drain every task;
* the sparse graph drops transitive arcs (kept only when no one-stop relay
  exists; relays are read off a float32 product of the compatibility matrix
  with itself, taken block by block over the tasks between each pair of
  blocks, since the matrix is strictly upper triangular in start order), so
  the source feeds only tasks without predecessors and the sink drains only
  tasks without successors.

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
over the full compatibility relation, found by scipy's Hopcroft-Karp on the
biadjacency matrix, so it shares no code with the max flow it checks) is
provided for cross-checking.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

from .instance import EPS, Instance, InstanceFormatError, record_dict
from .milp import EQUAL, GREATER_EQUAL, MilpModel
from .routegen import PICKUP

SOURCE = "s"
SINK = "t"

DENSE = "dense"
SPARSE = "sparse"

RELAY_BLOCK = 256  # tasks per block: of the relay product in `build_sparse_graph`, of rows in `_compatibility`


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


def routes_to_tasks(ds, inst: Instance) -> list[Task]:
    """Tasks for a design solution: one per selected pickup/dropoff route and,
    for each direct commodity, one single-rider task per passenger."""
    tasks: list[Task] = []
    for w in ds.selected_routes:
        ids = "|".join(c.id for c in w.commodities)
        if w.kind == PICKUP:
            tasks.append(Task(f"p:{w.hub}:{ids}", w.commodities[0].origin, w.hub, w.start_time, w.duration))
        else:
            tasks.append(Task(f"d:{w.hub}:{ids}", w.hub, w.commodities[-1].destination, w.start_time, w.duration))
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
    the scalar rule's float order so ties at EPS fall the same way. It is
    built RELAY_BLOCK rows at a time, so no n x n float matrix is held."""
    start = np.array([t.start for t in tasks], dtype=float)
    dur = np.array([t.duration for t in tasks], dtype=float)
    end_idx = np.array([inst.node_index(t.end_loc) for t in tasks], dtype=np.intp)
    start_idx = np.array([inst.node_index(t.start_loc) for t in tasks], dtype=np.intp)
    finish = start + dur
    latest = start + EPS
    n = len(tasks)
    comp = np.empty((n, n), dtype=bool)
    for i0 in range(0, n, RELAY_BLOCK):
        rows = slice(i0, i0 + RELAY_BLOCK)
        arrive = inst.travel_time[np.ix_(end_idx[rows], start_idx)]  # reposition times, a fresh copy
        arrive += finish[rows, None]
        np.less_equal(arrive, latest[None, :], out=comp[rows])
        comp[rows] &= ~(start[None, :] <= latest[rows, None])
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
    drain to the sink. Relays come from the product of the compatibility
    matrix with itself, computed in RELAY_BLOCK-square blocks on and above
    the diagonal only."""
    ts = _sorted_tasks(tasks)
    comp = _compatibility(ts, inst)
    n = len(ts)
    # comp is strictly upper triangular on (start, id)-sorted tasks, so a relay
    # k of (i, j) has i < k < j and block (I, J) needs only k in [I0, J1).
    # float32 goes through BLAS; a sum of non-negative 0/1 products is never
    # rounded to 0, so "> 0" is exact. Only c is read, so comp is filtered in place.
    c = comp.astype(np.float32)
    for i0 in range(0, n, RELAY_BLOCK):
        i1 = min(i0 + RELAY_BLOCK, n)
        for j0 in range(i0, n, RELAY_BLOCK):
            j1 = min(j0 + RELAY_BLOCK, n)
            comp[i0:i1, j0:j1] &= ~((c[i0:i1, i0:j1] @ c[i0:j1, j0:j1]) > 0)
    del c  # lowers the peak under argwhere; freed at return, glibc trimmed the heap on every call
    sources = np.flatnonzero(~comp.any(axis=0))
    sinks = np.flatnonzero(~comp.any(axis=1))
    return FleetGraph(SPARSE, ts, np.argwhere(comp), sources, sinks)


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
    model.add_rows(
        np.concatenate([2 * into, 2 * into + 1, 2 * out_of + 1]),
        np.concatenate([k_in, k_in, np.arange(src.size, len(keys))]),
        np.concatenate([np.ones(2 * into.size), -np.ones(out_of.size)]),
        np.tile([EQUAL if binary else GREATER_EQUAL, EQUAL], n),
        np.tile([1.0, 0.0], n),
        [name for i in range(n) for name in (f"visit[{i}]", f"conserve[{i}]")],
    )
    model.set_objective(np.arange(src.size), 1.0)
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
        return FleetResult(0, ())
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
    result = FleetResult(len(schedules), tuple(schedules))
    _assert_partition(result, g)
    return result


def _assert_partition(result: FleetResult, g: FleetGraph) -> None:
    seen: list[str] = [tid for sched in result.schedules for tid in sched]
    if len(seen) != len(set(seen)) or set(seen) != {t.id for t in g.tasks}:
        raise FlowError("schedules do not partition the task set")


def schedules_feasible(result: FleetResult, tasks, inst: Instance) -> bool:
    """Every consecutive task pair in every schedule must be `compatible`
    (holds even across filtered arcs, by the triangle inequality)."""
    by_id = {t.id: t for t in tasks}
    return all(
        compatible(by_id[a], by_id[b], inst)
        for sched in result.schedules
        for a, b in zip(sched, sched[1:])
    )


def min_fleet_oracle(tasks, inst: Instance) -> int:
    """Independent check: minimum path cover of the full compatibility
    relation, computed as task count minus a maximum bipartite matching
    (scipy's Hopcroft-Karp on the task-by-task biadjacency CSR, one entry per
    compatible pair)."""
    ts = _sorted_tasks(tasks)
    n = len(ts)
    # Rows run from the latest task back: on 2,500-task sets scipy's search
    # takes 0.04-0.3 s in this order and 45 s with rows in start order.
    comp = _compatibility(ts, inst)[::-1]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(comp, axis=1), out=indptr[1:])
    indices = np.nonzero(comp)[1].astype(np.int32)
    graph = sp.csr_array((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n))
    matched = maximum_bipartite_matching(graph, perm_type="column")
    return n - int(np.count_nonzero(matched >= 0))


# -- serialization -----------------------------------------------------------


def result_to_dict(result: FleetResult, tasks) -> dict:
    by_id = {t.id: t for t in tasks}
    return {
        "fleet_size": result.fleet_size,
        "schedules": [list(s) for s in result.schedules],
        "tasks": [record_dict(t) for t in _sorted_tasks(by_id.values())],
    }


def save_result(result: FleetResult, tasks, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result, tasks), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path: str) -> FleetResult:
    """Read the fleet size and schedules of a saved fleet result; a file
    that is not one raises InstanceFormatError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            schedules = tuple(tuple(s) for s in data["schedules"])
            size = data["fleet_size"]
            if type(size) is not int or size != len(schedules):
                raise ValueError(f"fleet_size {size!r} is not the count of its {len(schedules)} schedules")
            return FleetResult(fleet_size=size, schedules=schedules)
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"{path}: not a fleet result: {exc!r}") from exc
