"""Fleet sizing: minimum number of shuttles to serve all selected routes.

Each selected route that drives becomes a timed task (start location, end
location, start time, duration); a route without arcs serves riders already
at its hub and needs no shuttle. Two tasks are compatible when one shuttle
can serve them back to back, i.e. finish the first and reposition before
the second starts. The minimum fleet is the minimum number of source-to-sink flow
units covering every task. There are two fleet graphs:

* the dense graph puts an arc on every compatible ordered pair and lets the
  source feed and the sink drain every task;
* the sparse graph drops transitive arcs (kept only when no one-stop relay
  exists; relays are read off a float32 product of the compatibility matrix
  with itself, taken block by block over the relays inside the band, from a
  float32 copy of the band alone), so
  the source feeds only tasks without predecessors and the sink drains only
  tasks without successors.

Every stage sorts its tasks by (start, id), so task j can follow task i only
if j starts strictly later: compatibility is strictly upper triangular, and
row i is zero left of after[i], the first task that starts more than EPS
after it. `_compatibility_blocks` computes the mask RELAY_BLOCK rows at a
time over this band only, and the dense graph, the sparse graph and the
oracle read their arcs off those row blocks, so none of them gathers, adds,
compares or scans a pair that start order rules out.

`solve_fleet` solves either graph as a covering minimum flow (at least one
unit per task, uncapacitated integer arcs), found as one max flow (scipy's
Dinic) by the lower-bound reduction in `_min_flow` and split into
source-sink paths by `recover_schedules`, which walks integer-indexed
successor lists; a task goes to the first path that reaches it.
Compatibility is transitive on metric tasks, so the relay filter keeps the
optimum. `fleet_model` writes the paper's LP for either graph (exact unit
visits on the dense one, covering visits on the sparse one) for export and
cross-checks.

A `FleetGraph` keeps its arcs as arrays that the model writer and the max
flow read directly: (tail, head) rows in lexicographic order, as
`np.argwhere` would read them off the arc mask, and the sorted indices of
the tasks the source feeds and of those that drain to the sink. A flow on
it is one vector with an entry per column: the source arcs, the task arcs,
then the sink arcs (`_columns`). `fleet_model`'s variables come in that
order and `_min_flow` returns such an int64 vector, so the max flow and a
rounded LP solution go to `recover_schedules` alike, and no flow can name
an arc the graph lacks.

A minimum path cover oracle (task count minus a maximum bipartite matching
over the full compatibility relation, found by scipy's Hopcroft-Karp on the
biadjacency CSR, built block by block from the latest task back, so it
shares no code with the relay filter or the max flow it checks) is provided
for cross-checking.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

from .instance import EPS, Instance, InstanceFormatError, _typed, record_dict
from .milp import EQUAL, GREATER_EQUAL, MilpModel
from .routegen import PICKUP

SOURCE = "s"
SINK = "t"

DENSE = "dense"
SPARSE = "sparse"

RELAY_BLOCK = 256  # tasks per block: of rows in `_compatibility_blocks`, of columns in the relay product


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
    """Tasks for a design solution: one per selected pickup/dropoff route
    that drives and, for each direct commodity, one single-rider task per
    passenger. A route without arcs serves riders already at its hub, so it
    needs no shuttle."""
    tasks: list[Task] = []
    for w in ds.selected_routes:
        if not w.arcs:
            continue
        ids = "|".join(c.id for c in w.commodities)
        if w.kind == PICKUP:
            tasks.append(Task(f"p:{w.hub}:{ids}", w.commodities[0].origin, w.hub, w.start_time, w.duration))
        else:
            tasks.append(Task(f"d:{w.hub}:{ids}", w.hub, w.commodities[-1].destination, w.start_time, w.duration))
    times, node = inst.time_view, inst.node_index
    for cid in sorted(ds.direct):
        c = inst.commodity(cid)
        ride = times[node(c.origin), node(c.destination)]
        for k in range(c.passengers):
            tasks.append(Task(f"direct:{cid}:{k}", c.origin, c.destination, c.depart, ride))
    return tasks


def _sorted_tasks(tasks) -> tuple[Task, ...]:
    return tuple(sorted(tasks, key=lambda t: (t.start, t.id)))


def compatible(a: Task, b: Task, inst: Instance) -> bool:
    """True when one shuttle can serve b right after a."""
    if b.start <= a.start + EPS:
        return False
    return a.start + a.duration + inst.time(a.end_loc, b.start_loc) <= b.start + EPS


def _compatibility_blocks(tasks: tuple[Task, ...], inst: Instance) -> Iterator[tuple[int, int, np.ndarray]]:
    """The compatibility mask of (start, id)-sorted tasks, RELAY_BLOCK rows at
    a time, cut to the band that start order allows.

    Task j can follow task i only if start[j] > start[i] + EPS, so row i is
    zero before after[i], the first task that starts more than EPS later
    (the same float comparison as `compatible`). after[] never decreases,
    so the block of rows [i0, i1) is zero before column c0 = after[i0].
    Yields (i0, c0, block) with block[r, k] == comp[i0 + r, c0 + k]: only
    these columns are gathered, added and compared, and only the strip
    [c0, after[i]) of each row is masked."""
    start = np.array([t.start for t in tasks], dtype=float)
    dur = np.array([t.duration for t in tasks], dtype=float)
    end_idx = np.array([inst.node_index(t.end_loc) for t in tasks], dtype=np.intp)
    start_idx = np.array([inst.node_index(t.start_loc) for t in tasks], dtype=np.intp)
    finish = start + dur
    latest = start + EPS
    after = np.searchsorted(start, latest, side="right")
    reach = inst.travel_time[:, start_idx]  # reach[v, j]: minutes from node v to task j's start
    n = len(tasks)
    for i0 in range(0, n, RELAY_BLOCK):
        rows = slice(i0, i0 + RELAY_BLOCK)
        c0 = int(after[i0])
        arrive = reach[end_idx[rows], c0:]  # reposition times, a fresh copy
        arrive += finish[rows, None]
        block = arrive <= latest[c0:]
        del arrive  # not held while the caller reads the block
        strip = int(after[rows][-1]) - c0
        if strip:
            block[:, :strip] &= np.arange(c0, c0 + strip) >= after[rows, None]
        yield i0, c0, block


def _row_entries(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row pointer and the column indices of the True entries of a 2-D
    bool array, row by row, as a CSR matrix holds them. They come from the
    flat positions: numpy's 2-D `nonzero` is several times slower."""
    flat = np.flatnonzero(block)
    width = block.shape[1]
    ptr = np.searchsorted(flat, np.arange(len(block) + 1) * width)
    flat -= np.repeat(np.arange(len(block)) * width, np.diff(ptr))
    return ptr, flat


def _arcs(blocks) -> np.ndarray:
    """The (tail, head) rows of the True entries of (i0, c0, block) row
    blocks, in lexicographic order, as `np.argwhere` of the full mask."""
    tails, heads = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i0, c0, block in blocks:
        ptr, cols = _row_entries(block)
        tails.append(np.repeat(np.arange(i0, i0 + len(block)), np.diff(ptr)))
        heads.append(cols + c0)
    return np.stack([np.concatenate(tails), np.concatenate(heads)], axis=1)


def build_dense_graph(tasks, inst: Instance) -> FleetGraph:
    """Arc on every compatible ordered pair; source and sink connect to all.
    Arcs are read block by block off the compatibility band."""
    ts = _sorted_tasks(tasks)
    every = np.arange(len(ts))
    return FleetGraph(DENSE, ts, _arcs(_compatibility_blocks(ts, inst)), every, every)


def build_sparse_graph(tasks, inst: Instance) -> FleetGraph:
    """Keep a compatibility arc only when no one-stop relay covers it; the
    source feeds tasks without predecessors and tasks without successors
    drain to the sink. Relays come from the product of the compatibility
    matrix with itself, taken over RELAY_BLOCK-square blocks in the band."""
    ts = _sorted_tasks(tasks)
    n = len(ts)
    # Each row block as float32 from the column of its first row on, about
    # half the n x n matrix. float32 goes through BLAS; a sum of non-negative
    # 0/1 products is never rounded to 0, so "> 0" is exact.
    starts, bands = [], []
    for i0, c0, block in _compatibility_blocks(ts, inst):
        starts.append((i0, c0))
        bands.append(np.zeros((len(block), n - i0), dtype=np.float32))
        bands[-1][:, c0 - i0 :] = block
    # A relay k of (i, j) has comp[i, k] and comp[k, j], so c0 <= k < j for
    # every row i of a block: its relays lie in its own block and the later
    # ones, and its band is not read again once its rows are filtered.
    has_pred = np.zeros(n, dtype=bool)
    kept, sinks = [], [np.empty(0, dtype=np.int64)]
    for b, (i0, c0) in enumerate(starts):
        band = bands[b]
        keep = band[:, c0 - i0 :] != 0
        first = c0 - c0 % RELAY_BLOCK  # the block of column c0
        for j0 in range(first, n, RELAY_BLOCK):
            j1 = min(j0 + RELAY_BLOCK, n)
            lo = max(j0, c0)
            chunk = keep[:, lo - c0 : j1 - c0]
            if not chunk.any():
                continue
            relayed = np.zeros(chunk.shape, dtype=bool)
            for k0 in range(first, j1, RELAY_BLOCK):
                k1, via = min(k0 + RELAY_BLOCK, j1), max(k0, c0)
                relay = bands[k0 // RELAY_BLOCK][via - k0 : k1 - k0, lo - k0 : j1 - k0]
                relayed |= (band[:, via - i0 : k1 - i0] @ relay) > 0
            chunk &= ~relayed
        bands[b] = None
        kept.append((i0, c0, keep))
        sinks.append(i0 + np.flatnonzero(~keep.any(axis=1)))
        has_pred[c0:] |= keep.any(axis=0)
    return FleetGraph(SPARSE, ts, _arcs(kept), np.flatnonzero(~has_pred), np.concatenate(sinks))


def _columns(g: FleetGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (tail, head) of each column of a fleet flow: the source arcs, the task
    arcs, then the sink arcs. Of n tasks, the source is node n, the sink n + 1."""
    n = len(g.tasks)
    tail = np.concatenate([np.full(g.source_arcs.size, n), g.arcs[:, 0], g.sink_arcs])
    head = np.concatenate([g.source_arcs, g.arcs[:, 1], np.full(g.sink_arcs.size, n + 1)])
    return tail, head


def _node_names(n: int) -> list[str]:
    return [*map(str, range(n)), SOURCE, SINK]


def fleet_model(g: FleetGraph) -> MilpModel:
    """Flow model for a fleet graph: exact unit visits on the dense graph,
    covering visits with uncapacitated arcs on the sparse one. Variable k is
    column k of `_columns`, so a solution is a flow `recover_schedules` reads."""
    model = MilpModel(name=f"fleet-{g.kind}")
    binary = g.kind == DENSE
    n = len(g.tasks)
    tail, head = _columns(g)
    name = _node_names(n)
    var_names = [f"v[{name[a]},{name[b]}]" for a, b in zip(tail.tolist(), head.tolist())]
    model.add_vars(var_names, 0, 1 if binary else np.inf)

    # Row 2i is visit[i] (arcs into task i); row 2i + 1 is conserve[i] (arcs into i minus
    # arcs out of i). All but the sink arcs enter a task; all but the source arcs leave one.
    k_in = np.arange(tail.size - g.sink_arcs.size)
    k_out = np.arange(g.source_arcs.size, tail.size)
    model.add_rows(
        np.concatenate([2 * head[k_in], 2 * head[k_in] + 1, 2 * tail[k_out] + 1]),
        np.concatenate([k_in, k_in, k_out]),
        np.concatenate([np.ones(2 * k_in.size), -np.ones(k_out.size)]),
        np.tile([EQUAL if binary else GREATER_EQUAL, EQUAL], n),
        np.tile([1.0, 0.0], n),
        [row for i in range(n) for row in (f"visit[{i}]", f"conserve[{i}]")],
    )
    model.set_objective(np.arange(g.source_arcs.size), 1.0)
    return model


def _tree_sums(up: np.ndarray, weight: np.ndarray, order: range) -> np.ndarray:
    """weight[i] plus the weight of every task whose pointer chain reaches
    task i. up[i] is the task i points to, or -1 or n for none (both read
    the spare entry acc[n]); `order` visits a task before the one it points to."""
    acc, up = [*weight.tolist(), 0], up.tolist()
    for i in order:
        acc[up[i]] += acc[i]
    return np.array(acc[:-1], dtype=np.int64)


def _min_flow(g: FleetGraph) -> np.ndarray:
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
    successor is walked forward along fixed successor arcs to a sink task,
    so a pointer arc gains the tree sum of the units behind it. Arcs are
    uncapacitated and point forward in the sorted task order, so this keeps
    the fleet size. The walks follow graph arcs and end at tasks the source
    feeds or the sink drains; on the sparse graph those are the tasks
    without predecessors or successors, and on the dense graph the source
    and sink reach every task. So on either graph the result is a flow on
    the graph's own arcs: an int64 vector, one entry per `_columns` column."""
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
    r, c, f = flow.row[pos], flow.col[pos], flow.data[pos].astype(np.int64)
    # Reverse arcs carry negative flow, so the positive entries of the
    # out -> in block are exactly the graph arcs in use (there is no (j, j)).
    on_arc = (r < n) & (c >= n)
    enter = np.ones(n, dtype=np.int64)  # flow on (s, i): 1 - flow(in_i -> s)
    enter[r[c == s] - n] -= f[c == s]
    leave = np.ones(n, dtype=np.int64)  # flow on (i, t): 1 - flow(t -> out_i)
    leave[c[r == t]] -= f[r == t]

    # Fixed pointers pred[i] < i < succ[i]: the latest predecessor, the earliest successor.
    pred = np.full(n, -1)
    np.maximum.at(pred, head, tail)
    succ = np.full(n, n)
    np.minimum.at(succ, tail, head)
    enter = _tree_sums(pred, enter, range(n - 1, -1, -1))
    leave = _tree_sums(succ, leave, range(n))
    back, on = np.flatnonzero(pred >= 0), np.flatnonzero(succ < n)
    ends = np.concatenate([r[on_arc] * n + c[on_arc] - n, pred[back] * n + back, on * n + succ[on]])
    units = np.concatenate([f[on_arc], enter[back], leave[on]])
    enter[back], leave[on] = 0, 0  # these units were walked on
    x = np.concatenate([enter[g.source_arcs], np.zeros(tail.size, dtype=np.int64), leave[g.sink_arcs]])
    np.add.at(x, g.source_arcs.size + np.searchsorted(tail * n + head, ends), units)
    return x


def solve_fleet(g: FleetGraph) -> FleetResult:
    """Minimum fleet on a dense or sparse fleet graph: the covering min flow,
    decomposed into shuttle schedules. Shuttles may share arcs, so a unit
    serves only the tasks no earlier unit reached."""
    return recover_schedules(g, _min_flow(g))


# The benchmark's fleet_1k workload (perfbench/workloads.py) still calls the
# old name; drop this alias when the benchmark moves to `solve_fleet`.
solve_fleet_sparse = solve_fleet


def recover_schedules(g: FleetGraph, flow) -> FleetResult:
    """Decompose an integral flow, one entry per column of `_columns` (the max
    flow's vector, or a rounded LP solution of `fleet_model`), into source-sink
    paths; each path becomes one shuttle serving the not-yet-covered tasks along
    it, in path order. A path leaves each node by the first arc, in task-id
    order of its head with the sink last, that still carries flow."""
    n = len(g.tasks)
    s, t = n, n + 1  # node numbers of the source and the sink
    tail, head = _columns(g)
    flow = np.asarray(flow, dtype=float)
    if flow.shape != tail.shape:
        raise FlowError(f"flow has shape {flow.shape}, not one entry for each of the {tail.size} arcs")
    bad = ~np.isfinite(flow) | (flow < 0) | (flow != np.round(flow))
    if bad.any():
        k, name = int(np.argmax(bad)), _node_names(n)
        raise FlowError(f"flow on arc ({name[tail[k]]}, {name[head[k]]}) is not a nonnegative integer: {flow[k]}")
    tail, head, units = tail[flow > 0], head[flow > 0], flow[flow > 0].astype(np.int64)
    inflow = np.bincount(head, units, n + 2).astype(np.int64)
    outflow = np.bincount(tail, units, n + 2).astype(np.int64)
    bad = (inflow[:n] != outflow[:n]) | (inflow[:n] < 1)
    if bad.any():
        i = int(np.argmax(bad))
        if inflow[i] != outflow[i]:
            raise FlowError(f"flow not conserved at task {i}: in {inflow[i]} vs out {outflow[i]}")
        raise FlowError(f"task {i} is not covered by the flow")

    # Successor lists as one arc array sorted by tail, then by head rank.
    ids = [task.id for task in g.tasks]
    rank = np.empty(n + 2, dtype=np.int64)
    rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    rank[s], rank[t] = n + 1, n
    order = np.lexsort((rank[head], tail))
    bounds = np.searchsorted(tail[order], np.arange(n + 3))
    head, residual = head[order].tolist(), units[order].tolist()
    # Node v's arcs are cursor[v] .. end[v] - 1. Arcs left of cursor[v] carry no
    # flow any more, and flow only falls, so the search resumes there.
    cursor, end = bounds[:-1].tolist(), bounds[1:].tolist()
    covered = [False] * n
    schedules: list[tuple[str, ...]] = []
    for _ in range(int(outflow[s])):
        path = []
        node = s
        while node != t:
            k, stop = cursor[node], end[node]
            while k < stop and not residual[k]:
                k += 1
            cursor[node] = k
            if k == stop:
                raise FlowError(f"flow decomposition stuck at node {SOURCE if node == s else node}")
            residual[k] -= 1
            node = head[k]
            if node != t:
                path.append(node)
        fresh = [i for i in path if not covered[i]]
        if not fresh:
            raise FlowError("a flow unit covers no new task; the flow is not a minimum covering flow")
        for i in fresh:
            covered[i] = True
        schedules.append(tuple(ids[i] for i in fresh))
    if not all(covered):
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
    # takes 0.04-0.3 s in this order and 45 s with rows in start order. So
    # each block's rows are read bottom up and the blocks are joined last first.
    counts, indices = [], []
    for _, c0, block in _compatibility_blocks(ts, inst):
        ptr, cols = _row_entries(block[::-1])
        cols += c0
        counts.append(np.diff(ptr))
        indices.append(cols.astype(np.int32))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate([np.empty(0, dtype=np.intp), *counts[::-1]]), out=indptr[1:])
    indices = np.concatenate([np.empty(0, dtype=np.int32), *indices[::-1]])
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
            raw = _typed(data["schedules"], list, "a list", "schedules")
            for k, ids in enumerate(raw):
                if type(ids) is not list or not all(type(tid) is str for tid in ids):
                    raise ValueError(f"schedules[{k}] is not a list of task ids: {ids!r}")
            schedules = tuple(map(tuple, raw))
            size = data["fleet_size"]
            if type(size) is not int or size != len(schedules):
                raise ValueError(f"fleet_size {size!r} is not the count of its {len(schedules)} schedules")
            return FleetResult(fleet_size=size, schedules=schedules)
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"{path}: not a fleet result: {exc!r}") from exc
