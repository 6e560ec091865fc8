import dataclasses

import numpy as np
import pytest

from odmts import instgen
from odmts.fleet import (
    SINK,
    SOURCE,
    FlowError,
    Task,
    _compatibility,
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
    compute_hub_sets,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
    materialize_dropoff,
    materialize_pickup,
)
from odmts.design import solve_design
from odmts.instance import EPS

from conftest import euclid_instance, mk_commodity, mk_instance


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


def test_flow_keys_are_python_ints():
    rng = np.random.default_rng(77)
    metric = metric_instance(rng)
    cases = [
        (six_tasks() + [Task("G", "x", "x", 20.0, 2.0)], colocated_instance()),
        (random_tasks(rng, 20, metric), metric),
    ]
    for tasks, inst in cases:
        for build in (build_dense_graph, build_sparse_graph):
            flows = solve_fleet(build(tasks, inst)).flows
            assert flows
            for key, val in flows.items():
                assert all(type(end) is int or end in (SOURCE, SINK) for end in key), key
                assert type(val) is int and val > 0, (key, val)


def test_recover_single_task_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    result = recover_schedules(graph, {(SOURCE, 0): 1, (0, SINK): 1})
    assert result.schedules == (("A",),)


def test_recover_rejects_unconserved_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    with pytest.raises(FlowError, match="conserved"):
        recover_schedules(graph, {(SOURCE, 0): 1})


def test_recover_reports_lowest_task_first():
    # A -> B -> C. With flow s -> B -> C, task A (index 0) is uncovered and
    # task C (index 2) breaks conservation; tasks are checked in index order.
    inst = colocated_instance()
    tasks = [Task("A", "x", "x", 0.0, 1.0), Task("B", "x", "x", 5.0, 1.0),
             Task("C", "x", "x", 10.0, 1.0)]
    graph = build_sparse_graph(tasks, inst)
    with pytest.raises(FlowError, match="task 0 is not covered"):
        recover_schedules(graph, {(SOURCE, 1): 1, (1, 2): 1})
    # s -> A -> C: A is fine, B (index 1) is uncovered, C still leaks.
    with pytest.raises(FlowError, match="task 1 is not covered"):
        recover_schedules(graph, {(SOURCE, 0): 1, (0, 2): 1})
    # s -> A -> B, nothing out of B: the break at index 1 comes before the
    # uncovered task C at index 2.
    with pytest.raises(FlowError, match="not conserved at task 1: in 1 vs out 0"):
        recover_schedules(graph, {(SOURCE, 0): 1, (0, 1): 1})
    # Nothing enters A but a unit leaves it: conservation is checked first.
    with pytest.raises(FlowError, match="not conserved at task 0: in 0 vs out 1"):
        recover_schedules(graph, {(0, 1): 1, (1, 2): 1, (2, SINK): 1})


def test_recover_rejects_fractional_flow():
    inst = colocated_instance()
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], inst)
    with pytest.raises(FlowError):
        recover_schedules(graph, {(SOURCE, 0): 0.5, (0, SINK): 0.5})


def test_recover_rejects_redundant_unit():
    # A -> B -> C chain carrying two units: the second path covers nothing new.
    inst = colocated_instance()
    tasks = [Task("A", "x", "x", 0.0, 1.0), Task("B", "x", "x", 5.0, 1.0),
             Task("C", "x", "x", 10.0, 1.0)]
    graph = build_sparse_graph(tasks, inst)
    flow = {(SOURCE, 0): 2, (0, 1): 2, (1, 2): 2, (2, SINK): 2}
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
    flows = _min_flow(graph)
    keys = (
        {(SOURCE, i) for i in graph.source_arcs.tolist()}
        | arc_set(graph)
        | {(i, SINK) for i in graph.sink_arcs.tolist()}
    )
    assert set(flows) <= keys
    assert all(type(v) is int and v > 0 for v in flows.values())
    return sum(v for (a, _), v in flows.items() if a == SOURCE), flows


def test_min_flow_without_arcs():
    inst = colocated_instance()
    tasks = [Task(f"T{i}", "x", "x", float(i), 5.0) for i in range(4)]  # overlapping
    graph = build_sparse_graph(tasks, inst)
    assert arc_set(graph) == set()
    size, flows = min_flow_size(graph)
    assert size == 4
    assert flows == {**{(SOURCE, i): 1 for i in range(4)}, **{(i, SINK): 1 for i in range(4)}}
    assert solve_fleet(graph).fleet_size == 4


def test_min_flow_single_task():
    graph = build_sparse_graph([Task("A", "x", "x", 0.0, 5.0)], colocated_instance())
    assert _min_flow(graph) == {(SOURCE, 0): 1, (0, SINK): 1}
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
    assert flows == {(SOURCE, 0): 2, (0, 1): 1, (0, 2): 1, (1, SINK): 1, (2, SINK): 1}
    join = build_sparse_graph(tasks[3:], inst)
    assert id_arcs(join) == {("D", "F"), ("E", "F")} and set(join.sink_arcs.tolist()) == {2}
    size, flows = min_flow_size(join)
    assert size == 2
    assert flows == {(SOURCE, 0): 1, (SOURCE, 1): 1, (0, 2): 1, (1, 2): 1, (2, SINK): 2}
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
    d_task = next(t for t in tasks if t.id.startswith("d:"))
    # Both commodities in this fixture end at the hub itself, so check the
    # tuple fields straight against the materialized route.
    assert d_task.start == dropoff.start_time
    assert d_task.duration == dropoff.duration
    assert d_task.start_loc == "h" and d_task.end_loc == r2.destination


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
    for build in (build_dense_graph, build_sparse_graph):
        result = solve_fleet(build(tasks, inst))
        assert result.fleet_size == len(result.schedules) == oracle
        assert schedules_feasible(result, tasks, inst)
