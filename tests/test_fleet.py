import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from odmts import fleet, instgen
from odmts.fleet import (
    RELAY_BLOCK,
    SINK,
    SOURCE,
    FleetResult,
    FlowError,
    Task,
    _columns,
    _min_flow,
    _sorted_tasks,
    build_dense_graph,
    build_sparse_graph,
    compatible,
    min_fleet_oracle,
    recover_schedules,
    routes_to_tasks,
    schedules_feasible,
    solve_fleet,
)
from odmts.routegen import (
    PICKUP,
    compute_hub_sets,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
    materialize_dropoff,
    materialize_pickup,
)
from odmts.design import solve_design
from odmts.instance import EPS

from conftest import euclid_instance, mk_commodity, mk_instance
from oracles import _compatibility, path_cover_by_max_flow


def colocated_instance():
    return mk_instance(["x", "y"], ["x"], [[0.0, 1.0], [1.0, 0.0]])


def six_tasks():
    return [
        Task("A", "x", "x", 0.0, 5.0),
        Task("B", "x", "x", 1.0, 5.0),
        Task("C", "x", "x", 2.0, 5.0),
        Task("D", "x", "x", 10.0, 5.0),
        Task("E", "x", "x", 11.0, 5.0),
        Task("F", "x", "x", 12.0, 5.0),
    ]


def arc_set(graph):
    return {(i, j) for i, j in graph.arcs.tolist()}


def id_arcs(graph):
    return {(graph.tasks[i].id, graph.tasks[j].id) for i, j in arc_set(graph)}


def chain_tasks():
    return [Task("A", "x", "x", 0.0, 1.0), Task("B", "x", "x", 5.0, 1.0), Task("C", "x", "x", 10.0, 1.0)]


def flow_vector(graph, units):
    """The flow vector of `graph` with units[(a, b)] on arc (a, b), where a
    is a task index or SOURCE and b a task index or SINK; 0 elsewhere."""
    n = len(graph.tasks)
    node = {SOURCE: n, SINK: n + 1}
    tail, head = _columns(graph)
    column = {arc: k for k, arc in enumerate(zip(tail.tolist(), head.tolist()))}
    flow = np.zeros(len(column))
    for (a, b), val in units.items():
        flow[column[node.get(a, a), node.get(b, b)]] = val
    return flow


def test_dense_graph_exact_arcs():
    inst = colocated_instance()
    graph = build_dense_graph(six_tasks(), inst)
    expected = {(a, b) for a in "ABC" for b in "DEF"}
    assert id_arcs(graph) == expected
    assert len(graph.source_arcs) == 6 and len(graph.sink_arcs) == 6


def test_no_arc_when_repositioning_too_long():
    #               p      q
    inst = mk_instance(["p", "q"], ["p"], [[0.0, 30.0], [30.0, 0.0]])
    a = Task("A", "p", "p", 0.0, 5.0)
    b = Task("B", "q", "q", 20.0, 5.0)  # 0 + 5 + 30 > 20
    graph = build_dense_graph([a, b], inst)
    assert id_arcs(graph) == set()
    assert solve_fleet(graph).fleet_size == 2


def test_single_task_graphs():
    inst = colocated_instance()
    for build in (build_dense_graph, build_sparse_graph):
        graph = build([Task("A", "x", "x", 0.0, 5.0)], inst)
        assert arc_set(graph) == set()
        assert set(graph.source_arcs.tolist()) == {0} and set(graph.sink_arcs.tolist()) == {0}


def test_sparse_graph_keeps_nine_arcs():
    inst = colocated_instance()
    dense = build_dense_graph(six_tasks(), inst)
    sparse = build_sparse_graph(six_tasks(), inst)
    # D, E, F are mutually incompatible so no relay exists: all 9 arcs stay,
    # but source/sink arcs shrink from 12 to 6.
    assert id_arcs(sparse) == id_arcs(dense)
    assert len(sparse.source_arcs) == 3 and len(sparse.sink_arcs) == 3
    assert {sparse.tasks[i].id for i in sparse.source_arcs} == {"A", "B", "C"}
    assert {sparse.tasks[i].id for i in sparse.sink_arcs} == {"D", "E", "F"}


def test_sparse_graph_filters_transitive_arc():
    inst = colocated_instance()
    tasks = six_tasks() + [Task("G", "x", "x", 20.0, 2.0)]
    sparse = build_sparse_graph(tasks, inst)
    arcs = id_arcs(sparse)
    assert ("A", "G") not in arcs  # relayed through D, E or F
    assert ("D", "G") in arcs
    dense = build_dense_graph(tasks, inst)
    assert ("A", "G") in id_arcs(dense)
    assert len(sparse.arcs) <= len(dense.arcs)


def test_fleet_size_three_both_formulations():
    inst = colocated_instance()
    tasks = six_tasks()
    dense = solve_fleet(build_dense_graph(tasks, inst))
    sparse = solve_fleet(build_sparse_graph(tasks, inst))
    assert dense.fleet_size == sparse.fleet_size == 3
    assert min_fleet_oracle(tasks, inst) == 6 - 3 == 3
    for result in (dense, sparse):
        assert len(result.schedules) == 3
        assert sorted(t for s in result.schedules for t in s) == list("ABCDEF")
        assert schedules_feasible(result, tasks, inst)


def test_fleet_with_appended_task_still_three():
    inst = colocated_instance()
    tasks = six_tasks() + [Task("G", "x", "x", 20.0, 2.0)]
    dense = solve_fleet(build_dense_graph(tasks, inst))
    sparse = solve_fleet(build_sparse_graph(tasks, inst))
    oracle = min_fleet_oracle(tasks, inst)
    assert dense.fleet_size == sparse.fleet_size == oracle == 3


def test_pairwise_incompatible_needs_one_each():
    inst = colocated_instance()
    tasks = [Task(f"T{i}", "x", "x", float(i), 5.0) for i in range(4)]  # overlapping
    dense = solve_fleet(build_dense_graph(tasks, inst))
    assert dense.fleet_size == 4
    assert min_fleet_oracle(tasks, inst) == 4


def test_chain_needs_single_shuttle():
    inst = colocated_instance()
    tasks = [Task(f"T{i}", "x", "x", 10.0 * i, 5.0) for i in range(6)]
    sparse = solve_fleet(build_sparse_graph(tasks, inst))
    assert sparse.fleet_size == 1
    assert sparse.schedules == (tuple(f"T{i}" for i in range(6)),)
    assert min_fleet_oracle(tasks, inst) == 1


def test_empty_task_list():
    inst = colocated_instance()
    for build in (build_dense_graph, build_sparse_graph):
        graph = build([], inst)
        assert arc_set(graph) == set()
        assert set(graph.source_arcs.tolist()) == set() and set(graph.sink_arcs.tolist()) == set()
        assert solve_fleet(graph).fleet_size == 0
    assert min_fleet_oracle([], inst) == 0


def assert_strictly_increasing(values):
    assert (np.diff(values) > 0).all(), values


def test_graph_arrays_are_sorted_int64():
    rng = np.random.default_rng(5)
    metric = metric_instance(rng)
    cases = [
        (six_tasks() + [Task("G", "x", "x", 20.0, 2.0)], colocated_instance()),
        (random_tasks(rng, 40, metric), metric),
    ]
    for tasks, inst in cases:
        for build in (build_dense_graph, build_sparse_graph):
            graph = build(tasks, inst)
            assert graph.arcs.dtype == np.int64 and graph.arcs.shape[1:] == (2,) and len(graph.arcs)
            # Lexicographic rows: the row keys tail * n + head strictly increase.
            assert_strictly_increasing(graph.arcs[:, 0] * len(graph.tasks) + graph.arcs[:, 1])
            for ends in (graph.source_arcs, graph.sink_arcs):
                assert ends.dtype == np.int64
                assert_strictly_increasing(ends)


def test_min_flow_is_a_nonnegative_int64_vector_over_the_columns():
    rng = np.random.default_rng(77)
    metric = metric_instance(rng)
    cases = [
        (six_tasks() + [Task("G", "x", "x", 20.0, 2.0)], colocated_instance()),
        (random_tasks(rng, 20, metric), metric),
    ]
    for tasks, inst in cases:
        for build in (build_dense_graph, build_sparse_graph):
            graph = build(tasks, inst)
            flow = _min_flow(graph)
            assert flow.dtype == np.int64
            assert flow.shape == (len(graph.source_arcs) + len(graph.arcs) + len(graph.sink_arcs),)
            assert flow.min() >= 0 and flow.max() > 0


def test_columns_are_source_task_then_sink_arcs():
    graph = build_sparse_graph(chain_tasks(), colocated_instance())
    tail, head = _columns(graph)
    assert tail.tolist() == [3, 0, 1, 2] and head.tolist() == [0, 1, 2, 4]
    assert fleet.fleet_model(graph).var_names == ["v[s,0]", "v[0,1]", "v[1,2]", "v[2,t]"]


def test_recover_single_task_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    result = recover_schedules(graph, flow_vector(graph, {(SOURCE, 0): 1, (0, SINK): 1}))
    assert result.schedules == (("A",),)


def test_recover_rejects_unconserved_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    with pytest.raises(FlowError, match="conserved"):
        recover_schedules(graph, flow_vector(graph, {(SOURCE, 0): 1}))


def test_recover_reports_lowest_task_first():
    # The dense graph of A, B, C has the arcs (0, 1), (0, 2) and (1, 2).
    # With flow s -> B -> C, task A (index 0) is uncovered and task C
    # (index 2) breaks conservation; tasks are checked in index order.
    graph = build_dense_graph(chain_tasks(), colocated_instance())
    with pytest.raises(FlowError, match="task 0 is not covered"):
        recover_schedules(graph, flow_vector(graph, {(SOURCE, 1): 1, (1, 2): 1}))
    # s -> A -> C: A is fine, B (index 1) is uncovered, C still leaks.
    with pytest.raises(FlowError, match="task 1 is not covered"):
        recover_schedules(graph, flow_vector(graph, {(SOURCE, 0): 1, (0, 2): 1}))
    # s -> A -> B, nothing out of B: the break at index 1 comes before the
    # uncovered task C at index 2.
    with pytest.raises(FlowError, match="not conserved at task 1: in 1 vs out 0"):
        recover_schedules(graph, flow_vector(graph, {(SOURCE, 0): 1, (0, 1): 1}))
    # Nothing enters A but a unit leaves it: conservation is checked first.
    with pytest.raises(FlowError, match="not conserved at task 0: in 0 vs out 1"):
        recover_schedules(graph, flow_vector(graph, {(0, 1): 1, (1, 2): 1, (2, SINK): 1}))


def test_recover_rejects_fractional_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    with pytest.raises(FlowError):
        recover_schedules(graph, flow_vector(graph, {(SOURCE, 0): 0.5, (0, SINK): 0.5}))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, 0.5])
@pytest.mark.parametrize("arc, name", [((SOURCE, 0), r"\(s, 0\)"), ((1, 2), r"\(1, 2\)"), ((2, SINK), r"\(2, t\)")])
def test_recover_names_the_arc_of_a_bad_entry(value, arc, name):
    graph = build_sparse_graph(chain_tasks(), colocated_instance())
    flow = flow_vector(graph, {(SOURCE, 0): 1.0, (0, 1): 1.0, (1, 2): 1.0, (2, SINK): 1.0, arc: value})
    with pytest.raises(FlowError, match=f"flow on arc {name} is not a nonnegative integer"):
        recover_schedules(graph, flow)


@pytest.mark.parametrize("size", [0, 3, 5])
def test_recover_rejects_a_flow_of_the_wrong_length(size):
    graph = build_sparse_graph(chain_tasks(), colocated_instance())
    with pytest.raises(FlowError, match="not one entry for each of the 4 arcs"):
        recover_schedules(graph, np.ones(size, dtype=np.int64))


def test_recover_rejects_redundant_unit():
    # A -> B -> C chain carrying two units: the second path covers nothing new.
    graph = build_sparse_graph(chain_tasks(), colocated_instance())
    flow = flow_vector(graph, {(SOURCE, 0): 2, (0, 1): 2, (1, 2): 2, (2, SINK): 2})
    with pytest.raises(FlowError, match="no new task"):
        recover_schedules(graph, flow)


def test_recovery_is_deterministic():
    inst = colocated_instance()
    tasks = six_tasks()
    graph = build_sparse_graph(tasks, inst)
    a = solve_fleet(graph)
    b = solve_fleet(graph)
    assert a.schedules == b.schedules


def random_tasks(rng, n, inst, horizon=100.0):
    nodes = list(inst.nodes)
    tasks = []
    for i in range(n):
        a, b = rng.choice(len(nodes), size=2)
        start = float(rng.uniform(0.0, horizon))
        dur = inst.time(nodes[a], nodes[b]) + float(rng.uniform(0.0, 15.0))
        tasks.append(Task(f"t{i:03d}", nodes[a], nodes[b], start, dur))
    return tasks


def metric_instance(rng, n_nodes=6):
    pts = {f"n{i}": tuple(rng.uniform(0, 30, size=2)) for i in range(n_nodes)}
    return euclid_instance(pts, ["n0"])


@pytest.mark.parametrize("seed", range(8))
def test_formulations_agree_with_matching_oracle(seed):
    rng = np.random.default_rng(seed)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, int(rng.integers(5, 30)), inst)
    dense = solve_fleet(build_dense_graph(tasks, inst))
    sparse = solve_fleet(build_sparse_graph(tasks, inst))
    oracle = min_fleet_oracle(tasks, inst)
    assert dense.fleet_size == sparse.fleet_size == oracle
    assert schedules_feasible(dense, tasks, inst)
    assert schedules_feasible(sparse, tasks, inst)


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_dense_schedules_follow_unit_lp_arcs(seed):
    # None is the six-task set; the seeds draw metric task sets.
    if seed is None:
        inst, tasks = colocated_instance(), six_tasks()
    else:
        rng = np.random.default_rng(300 + seed)
        inst = metric_instance(rng)
        tasks = random_tasks(rng, int(rng.integers(5, 30)), inst)
    # The min flow may share arcs, so a schedule can skip tasks an earlier
    # shuttle served; compatibility is transitive on metric tasks, so each
    # consecutive pair is still a dense-graph arc.
    graph = build_dense_graph(tasks, inst)
    result = solve_fleet(graph)
    index = {t.id: k for k, t in enumerate(graph.tasks)}
    arcs = arc_set(graph)
    for sched in result.schedules:
        path = [index[tid] for tid in sched]
        for pair in zip(path, path[1:]):
            assert pair in arcs, (sched, pair)
    served = [tid for sched in result.schedules for tid in sched]
    assert sorted(served) == sorted(t.id for t in tasks)
    assert result.fleet_size == len(result.schedules) == min_fleet_oracle(tasks, inst)


def test_compatibility_transitive_on_metric_tasks():
    # Travel times obey the triangle inequality and every task lasts at least
    # its direct travel time, so a -> b -> c implies a -> c. That is why the
    # relay-filtered sparse graph is the transitive reduction, and the dense
    # size, the sparse size and the path-cover oracle must agree. The EPS
    # tolerance is the one exception: a -> b and b -> c each allowed to be
    # EPS late can make a -> c up to 2 * EPS late, which only exact ties
    # reach; seeded continuous draws do not produce them.
    rng = np.random.default_rng(123)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, 25, inst)
    for a in tasks:
        for b in tasks:
            for c in tasks:
                if compatible(a, b, inst) and compatible(b, c, inst):
                    assert compatible(a, c, inst)
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        inst = metric_instance(rng, n_nodes=8)
        comp = _compatibility(_sorted_tasks(random_tasks(rng, 150, inst)), inst)
        c = comp.astype(np.int32)
        two_step = (c @ c) > 0
        assert two_step.any() and not (two_step & ~comp).any(), seed


def assert_compatibility_matches_scalar_rule(tasks, inst):
    ts = _sorted_tasks(tasks)
    comp = _compatibility(ts, inst)
    n = len(ts)
    assert comp.shape == (n, n) and comp.dtype == bool
    for i, a in enumerate(ts):
        for j, b in enumerate(ts):
            assert comp[i, j] == (i != j and compatible(a, b, inst)), (a, b)
    return ts, comp


@pytest.mark.parametrize("seed", range(6))
def test_compatibility_matches_scalar_rule(seed):
    rng = np.random.default_rng(seed)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, int(rng.integers(20, 60)), inst)
    assert_compatibility_matches_scalar_rule(tasks, inst)


def test_compatibility_ties_at_eps():
    #                 x     y
    inst = mk_instance(["x", "y"], ["x"], [[0.0, 0.3], [0.3, 0.0]])
    after = float(np.nextafter(3.0 + EPS, np.inf))
    arrive = 10.0 + EPS  # 0 + arrive + T(x, x) == 10 + EPS exactly
    tasks = [
        Task("a", "x", "x", 3.0, 0.0),
        Task("b", "x", "x", 3.0 + EPS, 0.0),  # starts EPS after a: not a successor
        Task("c", "x", "x", after, 0.0),  # one ulp later: a successor
        Task("d", "y", "x", 0.0, arrive),  # reaches x exactly at 10 + EPS
        Task("e", "y", "x", 0.0, float(np.nextafter(arrive, np.inf))),
        Task("f", "x", "y", 10.0, 1.0),
        # (0.1 + 0.2) + 0.3 overshoots 0.6 == h.start + EPS by one ulp, while
        # 0.1 + (0.2 + 0.3) would not: the sum order decides this pair.
        Task("g", "x", "x", 0.1, 0.2),
        Task("h", "y", "y", 0.6 - EPS, 0.0),
    ]
    ts, comp = assert_compatibility_matches_scalar_rule(tasks, inst)
    assert not np.tril(comp).any()  # strictly upper triangular in (start, id) order
    idx = {t.id: k for k, t in enumerate(ts)}
    assert not comp[idx["a"], idx["b"]] and not comp[idx["b"], idx["a"]]
    assert comp[idx["a"], idx["c"]]
    assert comp[idx["d"], idx["f"]] and not comp[idx["e"], idx["f"]]
    assert not comp[idx["g"], idx["h"]]


@pytest.mark.parametrize("n", [0, 1])
def test_compatibility_tiny(n):
    inst = colocated_instance()
    ts, comp = assert_compatibility_matches_scalar_rule(six_tasks()[:n], inst)
    assert comp.shape == (n, n) and not comp.any()


def test_compatibility_blocks_match_scalar_rule(monkeypatch):
    # Blocks of 7 rows: several full blocks and a partial last one.
    monkeypatch.setattr(fleet, "RELAY_BLOCK", 7)
    rng = np.random.default_rng(17)
    inst = metric_instance(rng)
    assert_compatibility_matches_scalar_rule(random_tasks(rng, 47, inst), inst)


def test_compatibility_holds_no_square_float_matrix():
    # At 2,500 tasks the mask is 6.25 MB and an n x n float64 matrix 50 MB;
    # row blocks keep the traced peak below three bytes per task pair.
    rng = np.random.default_rng(5)
    inst = metric_instance(rng)
    ts = _sorted_tasks(random_tasks(rng, 2500, inst))
    tracemalloc.start()
    try:
        comp = _compatibility(ts, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.shape == (2500, 2500)
    assert peak <= 3 * 2500**2, peak


@pytest.mark.parametrize("seed", range(6))
def test_sparse_graph_matches_brute_force_relay_scan(seed):
    rng = np.random.default_rng(100 + seed)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, int(rng.integers(5, 30)), inst)
    graph = build_sparse_graph(tasks, inst)
    ts = graph.tasks
    n = len(ts)
    comp = [[i != j and compatible(ts[i], ts[j], inst) for j in range(n)] for i in range(n)]
    expected = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if comp[i][j] and not any(comp[i][k] and comp[k][j] for k in range(n))
    }
    assert arc_set(graph) == expected
    has_in = {j for _, j in expected}
    has_out = {i for i, _ in expected}
    assert set(graph.source_arcs.tolist()) == set(range(n)) - has_in
    assert set(graph.sink_arcs.tolist()) == set(range(n)) - has_out


@pytest.mark.parametrize("n", [RELAY_BLOCK - 1, RELAY_BLOCK + 1, 5 * RELAY_BLOCK // 2 + 7])
def test_sparse_graph_blocks_match_unblocked_relay_filter(n):
    # One block, one block plus a task, and a partial third block: the
    # blocked relay product must equal the full product.
    rng = np.random.default_rng(700 + n)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, n, inst)
    graph = build_sparse_graph(tasks, inst)
    comp = _compatibility(graph.tasks, inst)
    assert not np.tril(comp).any()  # the precondition of the blocked product
    c = comp.astype(np.float32)
    relayed = (c @ c) > 0
    keep = comp & ~relayed
    if n > RELAY_BLOCK:  # some arcs across a block edge are dropped, some kept
        assert (comp & relayed)[:RELAY_BLOCK, RELAY_BLOCK:].any()
        assert keep[:RELAY_BLOCK, RELAY_BLOCK:].any()
    np.testing.assert_array_equal(graph.arcs, np.argwhere(keep))
    np.testing.assert_array_equal(graph.source_arcs, np.flatnonzero(~keep.any(axis=0)))
    np.testing.assert_array_equal(graph.sink_arcs, np.flatnonzero(~keep.any(axis=1)))


def test_schedules_feasible_rejects_simultaneous_starts():
    # Zero-duration tasks at one node: a's arrival rule holds for b, but b
    # does not start after a, so `compatible` rejects the pair.
    inst = colocated_instance()
    tasks = [Task("a", "x", "x", 3.0, 0.0), Task("b", "x", "x", 3.0, 0.0), Task("c", "x", "x", 4.0, 0.0)]
    assert not compatible(tasks[0], tasks[1], inst)
    assert not schedules_feasible(FleetResult(1, (("a", "b"), ("c",))), tasks, inst)
    assert schedules_feasible(FleetResult(2, (("a", "c"), ("b",))), tasks, inst)


@pytest.mark.parametrize("seed", range(22))
def test_oracle_matches_max_flow_path_cover(seed):
    # Seeds 0 and 1 draw 0 and 1 tasks; the other 20 draw 5 to 59.
    rng = np.random.default_rng(500 + seed)
    inst = metric_instance(rng)
    tasks = random_tasks(rng, seed if seed < 2 else int(rng.integers(5, 60)), inst)
    assert min_fleet_oracle(tasks, inst) == path_cover_by_max_flow(tasks, inst)


def test_oracle_survives_long_augmenting_path():
    # a_i reaches b_i and b_{i+1}, a_1500 reaches b_0. Matching in index order
    # leaves a_1500 for last, and its only augmenting path runs through every
    # other a: 1,500 steps, past the default recursion limit.
    m = 1500
    nodes = [f"A{i}" for i in range(m + 1)] + [f"B{i}" for i in range(m + 1)]
    time = np.full((2 * m + 2, 2 * m + 2), 100.0)
    np.fill_diagonal(time, 0.0)
    i = np.arange(m)
    time[i, m + 1 + i] = 5.0
    time[i, m + 2 + i] = 5.0
    time[m, m + 1] = 5.0
    inst = mk_instance(nodes, ["A0"], time, dist=time)
    tasks = [Task(f"a{i:04d}", f"A{i}", f"A{i}", 0.0, 1.0) for i in range(m + 1)]
    tasks += [Task(f"b{i:04d}", f"B{i}", f"B{i}", 10.0, 1.0) for i in range(m + 1)]
    assert min_fleet_oracle(tasks, inst) == m + 1


def min_flow_size(graph):
    flow = _min_flow(graph)
    assert flow.dtype == np.int64 and flow.shape == _columns(graph)[0].shape and flow.min() >= 0
    return int(flow[: len(graph.source_arcs)].sum()), flow.tolist()


def test_min_flow_without_arcs():
    inst = colocated_instance()
    tasks = [Task(f"T{i}", "x", "x", float(i), 5.0) for i in range(4)]  # overlapping
    graph = build_sparse_graph(tasks, inst)
    assert arc_set(graph) == set()
    size, flows = min_flow_size(graph)
    assert size == 4
    one_each = {**{(SOURCE, i): 1 for i in range(4)}, **{(i, SINK): 1 for i in range(4)}}
    assert flows == flow_vector(graph, one_each).tolist()
    assert solve_fleet(graph).fleet_size == 4


def test_min_flow_single_task():
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], colocated_instance())
    assert _min_flow(graph).tolist() == flow_vector(graph, {(SOURCE, 0): 1, (0, SINK): 1}).tolist() == [1, 1]
    assert solve_fleet(graph).schedules == (("A",),)


def test_min_flow_identical_simultaneous_tasks():
    inst = colocated_instance()
    tasks = [Task(f"T{i}", "x", "x", 3.0, 2.0) for i in range(5)]
    tasks.append(Task("U", "x", "x", 10.0, 2.0))  # any of the five can run it next
    graph = build_sparse_graph(tasks, inst)
    size, _ = min_flow_size(graph)
    assert size == 5 == min_fleet_oracle(tasks, inst)
    result = solve_fleet(graph)
    assert result.fleet_size == 5 and schedules_feasible(result, tasks, inst)


def test_min_flow_moves_entries_and_exits_onto_graph_arcs():
    # A -> B and A -> C with B, C simultaneous: the max flow cancels one of
    # A's two unit paths, so a unit is left entering at B or C, which have
    # no source arc; it is walked back to A. Mirrored, D -> F and E -> F leave
    # a unit exiting at D or E, which have no sink arc; it is walked on to F.
    inst = colocated_instance()
    tasks = [
        Task("A", "x", "x", 0.0, 1.0),
        Task("B", "x", "x", 5.0, 1.0),
        Task("C", "x", "x", 5.0, 1.0),
        Task("D", "x", "x", 20.0, 1.0),
        Task("E", "x", "x", 20.0, 1.0),
        Task("F", "x", "x", 25.0, 1.0),
    ]
    fork = build_sparse_graph(tasks[:3], inst)
    assert id_arcs(fork) == {("A", "B"), ("A", "C")} and set(fork.source_arcs.tolist()) == {0}
    size, flows = min_flow_size(fork)
    assert size == 2
    assert flows == flow_vector(fork, {(SOURCE, 0): 2, (0, 1): 1, (0, 2): 1, (1, SINK): 1, (2, SINK): 1}).tolist()
    join = build_sparse_graph(tasks[3:], inst)
    assert id_arcs(join) == {("D", "F"), ("E", "F")} and set(join.sink_arcs.tolist()) == {2}
    size, flows = min_flow_size(join)
    assert size == 2
    assert flows == flow_vector(join, {(SOURCE, 0): 1, (SOURCE, 1): 1, (0, 2): 1, (1, 2): 1, (2, SINK): 2}).tolist()
    result = solve_fleet(join)
    assert result.schedules == (("D", "F"), ("E",))


def test_routes_to_tasks_tuples(pickup_pair_instance):
    inst = pickup_pair_instance
    r1, r2 = inst.commodities
    pickup = materialize_pickup((r1, r2), "h", inst)
    dropoff = materialize_dropoff((r1, r2), "h", {"r1": 10.0, "r2": 12.0}, inst)

    class FakeSolution:
        selected_routes = (pickup, dropoff)
        direct = frozenset()

    tasks = routes_to_tasks(FakeSolution(), inst)
    p_task = next(t for t in tasks if t.id.startswith("p:"))
    assert (p_task.start_loc, p_task.end_loc, p_task.start, p_task.duration) == ("a", "h", 0.0, 8.0)
    # Both commodities in this fixture end at the hub itself: the dropoff
    # route has no arcs, moves nobody and makes no task.
    assert dropoff.arcs == () and [t.id for t in tasks] == [p_task.id]


def test_routes_to_tasks_direct_multiplicity():
    points = {"a": (0, 0), "b": (20, 0), "h": (10, 1)}
    r = mk_commodity("r", "a", "b", 5.0, passengers=2)
    inst = euclid_instance(points, ["h"], (r,), capacity=2)

    class FakeSolution:
        selected_routes = ()
        direct = frozenset({"r"})

    tasks = routes_to_tasks(FakeSolution(), inst)
    assert len(tasks) == 2
    for t in tasks:
        assert (t.start_loc, t.end_loc, t.start) == ("a", "b", 5.0)
        assert t.duration == pytest.approx(20.0)
    assert len({t.id for t in tasks}) == 2


def test_dropoff_task_example_values():
    # start = max t1 = 12, last rider has no hub wait, drive = 4 + 3 = 7.
    time = [
        [0.0, 4.0, 7.0],
        [4.0, 0.0, 3.0],
        [7.0, 3.0, 0.0],
    ]
    r1 = mk_commodity("r1", "d2", "d1", 0.0)
    r2 = mk_commodity("r2", "d1", "d2", 0.0)
    inst = mk_instance(["h", "d1", "d2"], ["h"], time, commodities=(r1, r2), capacity=2)
    dropoff = materialize_dropoff((r1, r2), "h", {"r1": 10.0, "r2": 12.0}, inst)

    class FakeSolution:
        selected_routes = (dropoff,)
        direct = frozenset()

    (task,) = routes_to_tasks(FakeSolution(), inst)
    assert (task.start_loc, task.end_loc, task.start, task.duration) == ("h", "d2", 12.0, 7.0)


def test_end_to_end_tasks_from_design():
    inst = instgen.generate(seed=2, n_nodes=10, n_hubs=2, n_commodities=8, horizon=(0, 12))
    inst = dataclasses.replace(
        inst,
        routing=dataclasses.replace(
            inst.routing, shuttle_capacity=2, first_hub_count=2, last_hub_count=2
        ),
    )
    hs = compute_hub_sets(inst)
    ds = solve_design(
        inst, enumerate_pickup_routes(inst, hs), enumerate_dropoff_routes(inst, hs)
    )
    tasks = routes_to_tasks(ds, inst)
    assert len(tasks) > 0
    dense = solve_fleet(build_dense_graph(tasks, inst))
    sparse = solve_fleet(build_sparse_graph(tasks, inst))
    assert dense.fleet_size == sparse.fleet_size == min_fleet_oracle(tasks, inst)


def test_both_graphs_at_scale():
    # The tests' F1 task set: 1,000 tasks on the 60-node generated instance,
    # 50,359 sparse and 358,625 dense arcs, fleet 144.
    inst = instgen.generate(seed=400, n_nodes=60, n_hubs=6, n_commodities=10)
    tasks = random_tasks(np.random.default_rng(0), 1000, inst, horizon=120.0)
    oracle = min_fleet_oracle(tasks, inst)
    assert oracle == path_cover_by_max_flow(tasks, inst) == 144
    for build in (build_dense_graph, build_sparse_graph):
        result = solve_fleet(build(tasks, inst))
        assert result.fleet_size == len(result.schedules) == oracle
        assert schedules_feasible(result, tasks, inst)


def test_rider_at_hub_adds_no_fleet_task():
    # r starts at hub h1 and rides the bus to h2: its pickup route at h1 has
    # no arcs and moves nobody, so only the dropoff h2 -> d needs a shuttle.
    points = {"h1": (4.0, 0.0), "h2": (12.0, 0.0), "d": (17.0, 0.0)}
    r = mk_commodity("r", "h1", "d", 0.0)
    inst = euclid_instance(points, ["h1", "h2"], (r,), capacity=1, bus_cost=0.05, bus_trips=1.0)
    hs = compute_hub_sets(inst)
    ds = solve_design(inst, enumerate_pickup_routes(inst, hs), enumerate_dropoff_routes(inst, hs))
    assert ("h1", "h2") in ds.opened_lines and not ds.direct
    assert [(w.kind, w.hub, w.arcs) for w in ds.selected_routes if not w.arcs] == [(PICKUP, "h1", ())]
    tasks = routes_to_tasks(ds, inst)
    assert [(t.id, t.start_loc, t.end_loc) for t in tasks] == [("d:h2:r", "h2", "d")]
    assert solve_fleet(build_sparse_graph(tasks, inst)).fleet_size == 1


# -- the band: stages read only the pairs start order allows ----------------


def banded_tasks(rng, n, inst, starts):
    """Tasks whose starts are drawn from `starts`, so many share a start."""
    nodes = list(inst.nodes)
    tasks = []
    for i in range(n):
        a, b = rng.choice(len(nodes), size=2)
        dur = inst.time(nodes[a], nodes[b]) + float(rng.uniform(0.0, 3.0))
        tasks.append(Task(f"t{i:03d}", nodes[a], nodes[b], float(rng.choice(starts)), dur))
    return tasks


def hopcroft_karp_on_full_mask(tasks, inst):
    """Task count minus a maximum matching on the CSR of the full mask."""
    comp = _compatibility(_sorted_tasks(tasks), inst)
    matched = maximum_bipartite_matching(sp.csr_array(comp.astype(np.int8)), perm_type="column")
    return len(comp) - int(np.count_nonzero(matched >= 0))


def assert_band_stages_match_full_mask(tasks, inst):
    """Every stage that reads the band equals its reading of the full mask
    and the scalar rule."""
    ts, comp = assert_compatibility_matches_scalar_rule(tasks, inst)
    dense = build_dense_graph(tasks, inst)
    assert dense.arcs.dtype == np.int64 and dense.arcs.shape == (int(comp.sum()), 2)
    np.testing.assert_array_equal(dense.arcs, np.argwhere(comp))
    c = comp.astype(np.int32)
    keep = comp & ~((c @ c) > 0)
    sparse = build_sparse_graph(tasks, inst)
    np.testing.assert_array_equal(sparse.arcs, np.argwhere(keep))
    np.testing.assert_array_equal(sparse.source_arcs, np.flatnonzero(~keep.any(axis=0)))
    np.testing.assert_array_equal(sparse.sink_arcs, np.flatnonzero(~keep.any(axis=1)))
    oracle = min_fleet_oracle(tasks, inst)
    assert oracle == hopcroft_karp_on_full_mask(tasks, inst) == path_cover_by_max_flow(tasks, inst)
    assert solve_fleet(sparse).fleet_size == solve_fleet(dense).fleet_size == oracle
    return ts, comp


@pytest.mark.parametrize("seed", range(4))
def test_band_with_equal_starts_across_block_edges(monkeypatch, seed):
    # Blocks of 7 rows; five distinct starts over 40 tasks put runs of equal
    # starts across every block edge.
    monkeypatch.setattr(fleet, "RELAY_BLOCK", 7)
    rng = np.random.default_rng(900 + seed)
    inst = metric_instance(rng)
    ts, comp = assert_band_stages_match_full_mask(banded_tasks(rng, 40, inst, [0.0, 30.0, 60.0, 90.0, 120.0]), inst)
    starts = [t.start for t in ts]
    assert any(starts[e - 1] == starts[e] for e in range(7, 40, 7))
    assert comp.any()


def test_band_all_tasks_share_one_start(monkeypatch):
    monkeypatch.setattr(fleet, "RELAY_BLOCK", 7)
    inst = colocated_instance()
    tasks = [Task(f"T{i:02d}", "x", "x", 5.0, 0.0) for i in range(17)]
    ts, comp = assert_band_stages_match_full_mask(tasks, inst)
    assert not comp.any()
    blocks = list(fleet._compatibility_blocks(ts, inst))
    assert [(i0, c0, block.shape) for i0, c0, block in blocks] == [(0, 17, (7, 0)), (7, 17, (7, 0)), (14, 17, (3, 0))]
    sparse = build_sparse_graph(tasks, inst)
    assert sparse.source_arcs.tolist() == sparse.sink_arcs.tolist() == list(range(17))
    assert min_fleet_oracle(tasks, inst) == solve_fleet(sparse).fleet_size == 17


def test_band_of_a_row_begins_inside_the_next_block(monkeypatch):
    # Blocks of 7: rows 0-6, 7-13 and 14-15. Tasks 5-9 share one start, so
    # rows 5 and 6 of block 0 are zero up to column 10, inside the next
    # block, while block 0's band begins at column 3.
    monkeypatch.setattr(fleet, "RELAY_BLOCK", 7)
    inst = colocated_instance()
    starts = [0.0, 0.0, 0.0, 10.0, 10.0] + [20.0] * 5 + [30.0, 30.0, 40.0, 50.0, 60.0, 70.0]
    tasks = [Task(f"T{i:02d}", "x", "x", s, 1.0) for i, s in enumerate(starts)]
    ts, comp = assert_band_stages_match_full_mask(tasks, inst)
    blocks = list(fleet._compatibility_blocks(ts, inst))
    assert [(i0, c0) for i0, c0, _ in blocks] == [(0, 3), (7, 10), (14, 15)]
    for i0, c0, block in blocks:  # each block is the full mask from its first later task on
        np.testing.assert_array_equal(block, comp[i0 : i0 + len(block), c0:])
        assert not comp[i0 : i0 + len(block), :c0].any()
    assert comp[6, 10] and not comp[6, 9] and not comp[5, :10].any()


@pytest.mark.parametrize("block", [7, RELAY_BLOCK])
def test_band_stages_match_full_mask_on_random_tasks(monkeypatch, block):
    monkeypatch.setattr(fleet, "RELAY_BLOCK", block)
    for seed in range(3):
        rng = np.random.default_rng(950 + seed)
        inst = metric_instance(rng)
        assert_band_stages_match_full_mask(random_tasks(rng, int(rng.integers(30, 80)), inst), inst)
