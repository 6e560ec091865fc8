"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the logged (not asserted) trend observations.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from odmts import instgen
from odmts.cli import EXIT_OK, PipelineConfig, run_pipeline
from odmts.design import solve_design
from odmts.fleet import (
    Task,
    build_dense_graph,
    build_sparse_graph,
    min_fleet_oracle,
    routes_to_tasks,
    solve_fleet,
)
from odmts.instance import EPS, CostParams, save_instance
from odmts.milp import _check_solution, _constraint_rows, solve_lp
from odmts.fleet import fleet_model
from odmts.routegen import (
    compute_hub_sets,
    direct_cost,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
    estimate_hub_arrival,
    materialize_dropoff,
    materialize_pickup,
)

from conftest import euclid_instance, mk_commodity, mk_instance
from oracles import brute_force_dropoff, brute_force_pickup, design_oracle


def check(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def random_metric_instance(rng, n_nodes=8, span=30.0):
    pts = {f"n{i}": tuple(rng.uniform(0.0, span, size=2)) for i in range(n_nodes)}
    return euclid_instance(pts, ["n0"])


def random_tasks(rng, n, inst):
    nodes = list(inst.nodes)
    tasks = []
    for i in range(n):
        a, b = rng.choice(len(nodes), size=2)
        start = float(rng.uniform(0.0, 120.0))
        dur = inst.time(nodes[a], nodes[b]) + float(rng.uniform(0.0, 15.0))
        tasks.append(Task(f"t{i:03d}", nodes[a], nodes[b], start, dur))
    return tasks


@pytest.fixture(scope="module")
def fleet_battery():
    """200 seeded random task sets: both graphs by max flow, both LPs, oracle."""
    records = []
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        inst = random_metric_instance(rng)
        tasks = random_tasks(rng, int(rng.integers(5, 51)), inst)
        dense_graph = build_dense_graph(tasks, inst)
        sparse_graph = build_sparse_graph(tasks, inst)
        deviations, objectives = [], []
        for graph in (dense_graph, sparse_graph):
            model, var = fleet_model(graph)
            sol = solve_lp(model)
            deviations.append(
                max(abs(v - round(v)) for v in sol.values.values()) if sol.values else 0.0
            )
            objectives.append(sol.objective)
        records.append(
            {
                "seed": seed,
                "inst": inst,
                "tasks": tasks,
                "dense": solve_fleet(dense_graph),
                "sparse": solve_fleet(sparse_graph),
                "oracle": min_fleet_oracle(tasks, inst),
                "lp_deviation": max(deviations),
                # HiGHS on the dense (exact-cover) and sparse LPs: an
                # algorithm independent of the max flow both graphs go through.
                "lp_objectives": objectives,
                "sparse_lp": (model, var),
            }
        )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_fleet_equivalence(fleet_battery):
    records, elapsed = fleet_battery
    mismatches = [
        r["seed"]
        for r in records
        if not (r["dense"].fleet_size == r["sparse"].fleet_size == r["oracle"])
        or any(abs(obj - r["oracle"]) > 1e-6 for obj in r["lp_objectives"])
    ]
    check(
        "criterion 1 (fleet equivalence with both LPs, 200 instances)",
        not mismatches and elapsed < 30.0,
        f"mismatched seeds: {mismatches or 'none'}, runtime {elapsed:.1f}s",
    )
    # The min-flow solution is an optimal point of the sparse LP: only the
    # LP's variables, every row of its model satisfied, the LP's objective.
    for r in records:
        model, var = r["sparse_lp"]
        flows = r["sparse"].flows
        assert set(flows) <= set(var), r["seed"]
        x = np.zeros(len(model.var_names))
        for key, val in flows.items():
            x[var[key]] = val
        _check_solution(model, _constraint_rows(model), x, integrality=False)
        assert model.objective_vector() @ x == r["sparse"].fleet_size, r["seed"]
    # The constructed six-task example has optimal fleet size 3.
    inst = mk_instance(["x", "y"], ["x"], [[0.0, 1.0], [1.0, 0.0]])
    tasks = [Task(t, "x", "x", s, 5.0) for t, s in zip("ABCDEF", (0, 1, 2, 10, 11, 12))]
    for build in (build_dense_graph, build_sparse_graph):
        assert solve_fleet(build(tasks, inst)).fleet_size == 3


def test_criterion_2_total_unimodularity(fleet_battery):
    records, _ = fleet_battery
    worst = max(r["lp_deviation"] for r in records)
    check(
        "criterion 2 (LP relaxations integral on all 200)",
        worst <= 1e-6,
        f"largest deviation from integrality {worst:.2e}",
    )


def test_criterion_3_schedule_validity(fleet_battery):
    records, _ = fleet_battery
    bad = []
    for r in records:
        by_id = {t.id: t for t in r["tasks"]}
        for result in (r["dense"], r["sparse"]):
            assigned = [tid for sched in result.schedules for tid in sched]
            if sorted(assigned) != sorted(by_id) or len(result.schedules) != result.fleet_size:
                bad.append(r["seed"])
                continue
            for sched in result.schedules:
                for a_id, b_id in zip(sched, sched[1:]):
                    a, b = by_id[a_id], by_id[b_id]
                    gap = a.start + a.duration + r["inst"].time(a.end_loc, b.start_loc)
                    if gap > b.start + EPS:
                        bad.append(r["seed"])
    check(
        "criterion 3 (schedules partition tasks and chain feasibly)",
        not bad,
        f"violating seeds: {sorted(set(bad)) or 'none'}",
    )


def test_criterion_4_design_oracle():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(30):
        inst = instgen.generate(
            seed=100 + seed,
            n_nodes=7,
            n_hubs=2 + seed % 2,
            n_commodities=3 + seed % 3,
            horizon=(0.0, 6.0),
        )
        inst = dataclasses.replace(
            inst,
            routing=dataclasses.replace(
                inst.routing,
                shuttle_capacity=1 + seed % 2,
                first_hub_count=2,
                last_hub_count=2,
            ),
        )
        hs = compute_hub_sets(inst)
        om = enumerate_pickup_routes(inst, hs)
        op = enumerate_dropoff_routes(inst, hs)
        solved = solve_design(inst, om, op).objective
        expected = design_oracle(inst, om, op)
        if abs(solved - expected) > 1e-6:
            mismatches.append((seed, solved, expected))
    elapsed = time.perf_counter() - t0
    check(
        "criterion 4 (design MIP equals exhaustive oracle, 30 instances)",
        not mismatches and elapsed < 60.0,
        f"mismatches: {mismatches or 'none'}, runtime {elapsed:.1f}s",
    )


def _design_run(inst):
    hs = compute_hub_sets(inst)
    om = enumerate_pickup_routes(inst, hs)
    op = enumerate_dropoff_routes(inst, hs)
    ds = solve_design(inst, om, op)
    tasks = routes_to_tasks(ds, inst)
    fleet = solve_fleet(build_sparse_graph(tasks, inst))
    direct_riders = sum(inst.commodity(cid).passengers for cid in ds.direct)
    return ds.objective, fleet.fleet_size, direct_riders


def test_criterion_5_capacity_trend():
    cost = CostParams(
        alpha=1e-3,
        shuttle_cost_per_km=1.0,
        bus_cost_per_km=0.4,
        bus_trips_per_line=1,
        bus_wait=7.5,
    )
    hard_failures = []
    fleet_down = direct_down = 0
    for seed in range(10):
        base = instgen.generate(
            seed=200 + seed,
            n_nodes=60,
            n_hubs=6,
            n_commodities=100,
            horizon=(0.0, 60.0),
            side_km=16.0,
            cost=cost,
        )
        row = {}
        for cap in (1, 2, 3):
            inst = dataclasses.replace(
                base, routing=dataclasses.replace(base.routing, shuttle_capacity=cap)
            )
            row[cap] = _design_run(inst)
        tol = 1e-6 * max(1.0, abs(row[1][0]))
        if not (row[1][0] >= row[2][0] - tol and row[2][0] >= row[3][0] - tol):
            hard_failures.append((seed, [row[c][0] for c in (1, 2, 3)]))
        fleet_down += row[3][1] < row[1][1]
        direct_down += row[3][2] < row[1][2]
        print(
            f"  seed {seed}: objective {row[1][0]:.2f} -> {row[3][0]:.2f}, "
            f"fleet {row[1][1]} -> {row[3][1]}, direct riders {row[1][2]} -> {row[3][2]}"
        )
    print(
        f"  [logged, not asserted] fleet decreased on {fleet_down}/10 seeds, "
        f"direct riders decreased on {direct_down}/10 seeds (capacity 3 vs 1)"
    )
    check(
        "criterion 5 (objective non-increasing in capacity, 10 seeds)",
        not hard_failures,
        f"violations: {hard_failures or 'none'}",
    )


def test_criterion_6_enumeration_equals_brute_force():
    def as_set(omega):
        return {(w.key, round(w.cost, 9)) for routes in omega.values() for w in routes}

    mismatches = []
    for seed in range(6):
        inst = instgen.generate(
            seed=300 + seed,
            n_nodes=8,
            n_hubs=3,
            n_commodities=5 + seed % 4,
            horizon=(0.0, 9.0),
        )
        inst = dataclasses.replace(
            inst,
            routing=dataclasses.replace(
                inst.routing,
                shuttle_capacity=1 + seed % 3,
                first_hub_count=2,
                last_hub_count=2,
            ),
        )
        hs = compute_hub_sets(inst)
        if as_set(enumerate_pickup_routes(inst, hs)) != as_set(brute_force_pickup(inst, hs)):
            mismatches.append((seed, "pickup"))
        if as_set(enumerate_dropoff_routes(inst, hs)) != as_set(brute_force_dropoff(inst, hs)):
            mismatches.append((seed, "dropoff"))
    check(
        "criterion 6 (enumeration equals brute force, pickup and dropoff)",
        not mismatches,
        f"mismatches: {mismatches or 'none'}",
    )


def test_criterion_7_route_math_spot_checks():
    failures = []

    def expect(name, got, want):
        if abs(got - want) > 1e-9:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    # Line opening cost: (1 - alpha) * b * n * D with Table-style parameters.
    line_inst = mk_instance(
        ["h", "l", "x"],
        ["h", "l"],
        [[0.0, 10.0, 8.0], [10.0, 0.0, 8.0], [8.0, 8.0, 0.0]],
    )
    from odmts.design import line_open_cost, line_use_cost

    expect("line open cost", line_open_cost("h", "l", line_inst), 599.40)

    # Per-commodity line use cost: p * alpha * (T + S).
    use_inst = mk_instance(
        ["h", "l", "x"],
        ["h", "l"],
        [[0.0, 8.0, 8.0], [8.0, 0.0, 8.0], [8.0, 8.0, 0.0]],
    )
    rider2 = mk_commodity("r", "x", "h", 0.0, passengers=2)
    expect("line use cost", line_use_cost(rider2, "h", "l", use_inst), 0.031)

    # Direct ride: p * ((1 - alpha) * c * D + alpha * T).
    direct_inst = mk_instance(
        ["a", "b"], ["a"], [[0.0, 20.0], [20.0, 0.0]],
        commodities=(mk_commodity("r", "a", "b", 0.0),),
    )
    expect("direct cost", direct_cost(direct_inst.commodities[0], direct_inst), 20.0)

    # Pickup timing, elapsed times, and blended cost.
    pick_inst = mk_instance(
        ["a", "b", "h"],
        ["h"],
        [[0.0, 3.0, 6.0], [4.0, 0.0, 5.0], [6.0, 5.0, 0.0]],
        commodities=(mk_commodity("r1", "a", "h", 0.0), mk_commodity("r2", "b", "h", 2.0)),
        capacity=2,
    )
    pick = materialize_pickup(pick_inst.commodities, "h", pick_inst)
    expect("pickup xi[0]", pick.xi[0], 8.0)
    expect("pickup xi[1]", pick.xi[1], 6.0)
    expect("pickup cost", pick.cost, 8.006)

    # Dropoff timing: start at the latest arrival, no waiting afterwards.
    drop_inst = mk_instance(
        ["h", "d1", "d2"],
        ["h"],
        [[0.0, 4.0, 7.0], [4.0, 0.0, 3.0], [7.0, 3.0, 0.0]],
        commodities=(mk_commodity("r1", "d2", "d1", 0.0), mk_commodity("r2", "d1", "d2", 0.0)),
        capacity=2,
    )
    drop = materialize_dropoff(drop_inst.commodities, "h", {"r1": 10.0, "r2": 12.0}, drop_inst)
    expect("dropoff xi[0]", drop.xi[0], 6.0)
    expect("dropoff xi[1]", drop.xi[1], 7.0)

    # Hub arrival estimate: mean over the eligible first hubs.
    est_inst = mk_instance(
        ["o", "h1", "h2", "l"],
        ["h1", "h2", "l"],
        [
            [0.0, 4.0, 10.0, 10.0],
            [4.0, 0.0, 6.0, 8.0],
            [10.0, 6.0, 0.0, 0.0],
            [10.0, 8.0, 0.0, 0.0],
        ],
        commodities=(mk_commodity("r", "o", "l", 0.0),),
        first_hubs=2,
    )
    hs = compute_hub_sets(est_inst)
    expect(
        "hub arrival estimate",
        estimate_hub_arrival(est_inst.commodities[0], "l", hs, est_inst),
        18.5,
    )

    check("criterion 7 (route-math spot checks at 1e-9)", not failures, "; ".join(failures))


def test_criterion_8_desk_scale_pipeline(tmp_path):
    cost = CostParams(
        alpha=1e-3,
        shuttle_cost_per_km=1.0,
        bus_cost_per_km=0.4,
        bus_trips_per_line=1,
        bus_wait=7.5,
    )
    inst = instgen.generate(
        seed=400, n_nodes=60, n_hubs=6, n_commodities=100, side_km=16.0, cost=cost
    )
    assert inst.routing.shuttle_capacity == 3
    assert inst.routing.bucket_len == 3.0
    assert inst.routing.duration_threshold == 0.5
    path = str(tmp_path / "desk.json")
    save_instance(inst, path)
    out = str(tmp_path / "run")
    t0 = time.perf_counter()
    code = run_pipeline(PipelineConfig(instance=path, out=out, check_oracle=True))
    elapsed = time.perf_counter() - t0
    artifacts = ["routes.jsonl", "design.json", "fleet.json", "report.json", "report.csv"]
    present = all(os.path.exists(os.path.join(out, a)) for a in artifacts)
    check(
        "criterion 8 (full pipeline on 100 commodities under 120 s)",
        code == EXIT_OK and present and elapsed < 120.0,
        f"exit {code}, artifacts {'all present' if present else 'missing'}, {elapsed:.1f}s",
    )


def test_criterion_9_perturbation_harness(tmp_path):
    cost = CostParams(
        alpha=1e-3,
        shuttle_cost_per_km=1.0,
        bus_cost_per_km=0.4,
        bus_trips_per_line=1,
        bus_wait=7.5,
    )
    inst = instgen.generate(
        seed=12,
        n_nodes=30,
        n_hubs=4,
        n_commodities=40,
        horizon=(0.0, 60.0),
        side_km=16.0,
        cost=cost,
    )
    path = str(tmp_path / "base.json")
    save_instance(inst, path)

    def opened_lines(run_dir):
        with open(os.path.join(run_dir, "design.json")) as fh:
            return tuple(sorted(tuple(hl) for hl in json.load(fh)["opened_lines"]))

    base_out = str(tmp_path / "base_run")
    assert run_pipeline(PipelineConfig(instance=path, out=base_out)) == EXIT_OK
    base_lines = opened_lines(base_out)

    failures = []
    stable = 0
    for k in range(10):
        out = str(tmp_path / f"rep{k}")
        code = run_pipeline(
            PipelineConfig(instance=path, out=out, perturb_scale=1.0, perturb_seed=k)
        )
        if code != EXIT_OK:
            failures.append(k)
            continue
        stable += opened_lines(out) == base_lines
    print(
        f"  [logged, not asserted] opened-line set identical to the unperturbed "
        f"run on {stable}/10 replicates (base: {len(base_lines)} lines)"
    )
    check(
        "criterion 9 (pipeline completes on 10 perturbed replicates)",
        not failures,
        f"failed replicates: {failures or 'none'}",
    )
