import dataclasses

import numpy as np
import pytest

from odmts import instgen
from odmts.design import (
    DesignError,
    ItineraryError,
    _checked_design,
    _extract,
    _leg_path,
    build_design_model,
    bus_lines,
    line_open_cost,
    line_use_cost,
    load_solution,
    rider_minutes,
    save_solution,
    solve_design,
    solve_in_rounds,
)
from odmts.milp import OPTIMAL, MilpSolution, _check_solution, _constraint_rows, solve_milp, write_lp
from odmts.routegen import (
    DROPOFF,
    PICKUP,
    compute_hub_sets,
    direct_cost,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
)

from conftest import DESK_COST, euclid_instance, mk_commodity, mk_instance
from model_files import read_names
from oracles import design_model_by_rows, design_oracle


def line_cost_instance(alpha=1e-3):
    time = [
        [0.0, 10.0, 8.0],
        [10.0, 0.0, 8.0],
        [8.0, 8.0, 0.0],
    ]
    return mk_instance(["h", "l", "x"], ["h", "l"], time, commodities=(), alpha=alpha)


def test_line_open_cost_formula():
    inst = line_cost_instance()
    # (1 - alpha) * b * n * D with D = 10, b = 3.75, n = 16.
    assert line_open_cost("h", "l", inst) == pytest.approx(0.999 * 3.75 * 16 * 10, abs=1e-9)
    assert line_open_cost("h", "l", inst) == pytest.approx(599.40, abs=1e-9)


def test_line_use_cost_formula():
    time = [
        [0.0, 8.0, 8.0],
        [8.0, 0.0, 8.0],
        [8.0, 8.0, 0.0],
    ]
    inst = mk_instance(["h", "l", "x"], ["h", "l"], time)
    r = mk_commodity("r", "x", "h", 0.0, passengers=2)
    assert line_use_cost(r, "h", "l", inst) == pytest.approx(2 * 0.001 * (8 + 7.5), abs=1e-9)
    assert line_use_cost(r, "h", "l", inst) == pytest.approx(0.031, abs=1e-9)


def test_line_open_cost_vanishes_at_alpha_one():
    inst = line_cost_instance(alpha=1.0)
    assert line_open_cost("h", "l", inst) == 0.0


def test_line_costs_reject_non_hubs():
    inst = line_cost_instance()
    with pytest.raises(ValueError):
        line_open_cost("h", "x", inst)
    with pytest.raises(ValueError):
        line_use_cost(mk_commodity("r", "x", "h", 0.0), "x", "l", inst)


def enumerated(inst):
    hs = compute_hub_sets(inst)
    return enumerate_pickup_routes(inst, hs), enumerate_dropoff_routes(inst, hs)


@pytest.mark.parametrize(
    "seed,alpha,capacity", [(10, None, None), (11, None, None), (15, 0.0, 1)]
)
def test_bulk_design_model_equals_row_by_row(seed, alpha, capacity):
    inst = instgen.generate(seed=seed, n_nodes=20, n_hubs=4, n_commodities=25, max_passengers=3)
    if alpha is not None:
        inst = dataclasses.replace(
            inst,
            cost=dataclasses.replace(inst.cost, alpha=alpha),
            routing=dataclasses.replace(inst.routing, shuttle_capacity=capacity),
        )
    om, op = enumerated(inst)
    shared = [w for omega in (om, op) for ws in omega.values() for w in ws if len(w.commodities) > 1]
    assert bool(shared) == (capacity is None)
    bulk, ref = build_design_model(inst, om, op).model, design_model_by_rows(inst, om, op)
    assert bulk.var_names == ref.var_names
    assert bulk.row_names == ref.row_names
    for column in ("lb", "ub", "integer"):
        assert np.array_equal(getattr(bulk, column), getattr(ref, column))
    (a, lo, hi), (ref_a, ref_lo, ref_hi) = _constraint_rows(bulk), _constraint_rows(ref)
    for got, want in (
        *zip(bulk.objective, ref.objective),
        (a.indptr, ref_a.indptr), (a.indices, ref_a.indices), (a.data, ref_a.data), (lo, ref_lo), (hi, ref_hi)
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_variable_count_small_model():
    points = {"a": (0, 0), "b": (10, 0), "h1": (2, 1), "h2": (8, 1)}
    r = mk_commodity("r", "a", "b", 0.0)
    inst = euclid_instance(points, ["h1", "h2"], (r,), capacity=1, first_hubs=1, last_hubs=1)
    om, op = enumerated(inst)
    dm = build_design_model(inst, om, op)
    # 2 lines -> 2 z; 2 y for the single commodity; 1 pickup + 1 dropoff x; 1 eta.
    assert len(bus_lines(inst)) == 2
    assert len(dm.model.var_names) == 2 * (1 + 1) + 2 + 1 == 7


def test_empty_commodity_set_closes_everything():
    points = {"h1": (0, 0), "h2": (5, 0), "x": (1, 1)}
    inst = euclid_instance(points, ["h1", "h2"], ())
    ds = solve_design(inst, {}, {})
    assert ds.objective == pytest.approx(0.0)
    assert ds.opened_lines == ()


def direct_wins_instance():
    points = {"a": (0, 0), "b": (20, 0), "h1": (0, 10), "h2": (10, 10)}
    r = mk_commodity("r", "a", "b", 0.0)
    return euclid_instance(points, ["h1", "h2"], (r,), capacity=1, first_hubs=2, last_hubs=2)


def test_single_commodity_goes_direct():
    inst = direct_wins_instance()
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.direct == {"r"}
    assert ds.opened_lines == ()
    assert ds.objective == pytest.approx(20.0, abs=1e-9)
    assert ds.objective == pytest.approx(design_oracle(inst, om, op), abs=1e-6)


def bus_corridor_instance(n_commodities=20, side_hub=False, ends=1):
    """Riders from a to b, next to hubs h1 and h2; `side_hub` adds a third
    hub h3 off the corridor, and each rider may use its `ends` nearest hubs
    at either end."""
    points = {"a": (0.0, 0.0), "b": (24.0, 0.0), "h1": (2.0, 0.0), "h2": (22.0, 0.0)}
    if side_hub:
        points["h3"] = (12.0, 6.0)
    comms = tuple(
        mk_commodity(f"r{i:02d}", "a", "b", 0.0) for i in range(n_commodities)
    )
    return euclid_instance(
        points,
        list(points)[2:],
        comms,
        bus_cost=0.5,
        bus_trips=1.0,
        capacity=1,
        first_hubs=ends,
        last_hubs=ends,
    )


def test_corridor_opens_balanced_line_pair():
    inst = bus_corridor_instance()
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert set(ds.opened_lines) == {("h1", "h2"), ("h2", "h1")}
    assert not ds.direct
    pickup, hops, dropoff = ds.trips["r00"]
    assert (pickup.kind, hops, dropoff.kind) == (PICKUP, (("h1", "h2"),), DROPOFF)
    assert ds.objective == pytest.approx(design_oracle(inst, om, op), abs=1e-6)


def test_alpha_one_prefers_direct_everywhere():
    points = {"a": (0, 0), "b": (20, 0), "c": (1, 2), "h1": (10, 5), "h2": (10, -5)}
    comms = (mk_commodity("r1", "a", "b", 0.0), mk_commodity("r2", "c", "b", 1.0))
    inst = euclid_instance(points, ["h1", "h2"], comms, alpha=1.0, capacity=2,
                           first_hubs=2, last_hubs=2)
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.direct == {"r1", "r2"}
    expected = sum(c.passengers * inst.time(c.origin, c.destination) for c in comms)
    assert ds.objective == pytest.approx(expected, abs=1e-9)


def shared_hub_instance():
    points = {
        "a1": (0.0, 0.0),
        "a2": (0.5, 0.0),
        "h": (10.0, 0.0),
        "b1": (19.5, 0.0),
        "b2": (20.0, 0.0),
    }
    comms = (mk_commodity("r1", "a1", "b1", 0.0), mk_commodity("r2", "a2", "b2", 0.0))
    return euclid_instance(points, ["h"], comms, capacity=2, first_hubs=1, last_hubs=1)


def test_shared_routes_through_one_hub_no_bus():
    inst = shared_hub_instance()
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert not ds.direct
    assert ds.opened_lines == ()
    for cid in ("r1", "r2"):
        pickup, hops, dropoff = ds.trips[cid]
        assert hops == ()
        assert pickup.hub == "h" and dropoff.hub == "h"
        assert len(pickup.commodities) == 2
    assert ds.objective == pytest.approx(design_oracle(inst, om, op), abs=1e-6)


def test_breakdown_matches_objective():
    inst = bus_corridor_instance(6)
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    b = ds.breakdown
    assert ds.objective == pytest.approx(
        b.bus_fixed + b.route_cost + b.direct_cost + b.bus_inconvenience, abs=1e-6
    )
    for h in inst.hubs:
        assert sum(1 for a, _ in ds.opened_lines if a == h) == sum(
            1 for _, b_ in ds.opened_lines if b_ == h
        )


def test_direct_itinerary_shape():
    inst = direct_wins_instance()
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.trips == {"r": None}
    assert rider_minutes(ds, "r", inst) == pytest.approx(20.0)


def test_rider_minutes_decomposition():
    inst = bus_corridor_instance(8)
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    pickup, (hop,), dropoff = ds.trips["r00"]
    expected = (
        pickup.xi_of("r00")
        + inst.time(*hop)
        + inst.cost.bus_wait
        + dropoff.xi_of("r00")
    )
    assert rider_minutes(ds, "r00", inst) == pytest.approx(expected, abs=1e-9)


def test_itinerary_error_on_branching_legs():
    inst = bus_corridor_instance(4)
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert {("h1", "h2"), ("h2", "h1")} <= set(ds.opened_lines)
    bus_legs = {**ds.bus_legs, "r00": (("h1", "h2"), ("h2", "h1"))}
    with pytest.raises(ItineraryError, match="commodity r00 has bus legs off its path"):
        _checked_design(inst, ds.opened_lines, bus_legs, ds.selected_routes, ds.direct)


def test_alpha_zero_itineraries_extract():
    # Free bus legs invite cost-neutral cycles; reading each commodity's
    # leg path must keep itineraries simple.
    inst = bus_corridor_instance(6)
    inst = dataclasses.replace(inst, cost=dataclasses.replace(inst.cost, alpha=0.0))
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.trips.keys() == {c.id for c in inst.commodities}
    for cid, trip in ds.trips.items():
        assert trip is None or set(trip[1]) == set(ds.bus_legs[cid])


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_extract_drops_cost_neutral_cycles(alpha):
    """An optimum by hand: r00 rides h1 -> h2 plus the cycle h2 -> h3 -> h2,
    and r01 goes direct and rides the cycle h1 -> h2 -> h1. With alpha = 0
    the cycles are free and `_extract` keeps only r00's path; with alpha > 0
    they cost, and the cost check rejects the vector."""
    inst = bus_corridor_instance(2, side_hub=True)
    inst = dataclasses.replace(inst, cost=dataclasses.replace(inst.cost, alpha=alpha))
    om, op = enumerated(inst)
    dm = build_design_model(inst, om, op)
    (pickup,) = [w for w in dm.routes if w.kind == PICKUP and w.hub == "h1" and w.key[2] == ("r00",)]
    (dropoff,) = [w for w in dm.routes if w.kind == DROPOFF and w.hub == "h2" and w.key[2] == ("r00",)]
    line = {hl: k for k, hl in enumerate(dm.lines)}
    v = np.zeros(len(dm.model.var_names))
    v[dm.z[[line[hl] for hl in [("h1", "h2"), ("h2", "h1"), ("h2", "h3"), ("h3", "h2")]]]] = 1
    v[dm.y[0, [line[("h1", "h2")], line[("h2", "h3")], line[("h3", "h2")]]]] = 1
    v[dm.y[1, [line[("h1", "h2")], line[("h2", "h1")]]]] = 1
    v[dm.x[[dm.routes.index(pickup), dm.routes.index(dropoff)]]] = 1
    v[dm.eta[1]] = 1
    _check_solution(dm.model, _constraint_rows(dm.model), v, integrality=True)
    sol = MilpSolution(OPTIMAL, float(dm.model.objective_vector() @ v), v, None)
    if alpha > 0:
        with pytest.raises(DesignError, match="does not match solver objective"):
            _extract(dm, sol, inst)
        return
    ds = _extract(dm, sol, inst)
    assert ds.bus_legs == {"r00": (("h1", "h2"),), "r01": ()}
    assert ds.trips == {"r00": (pickup, (("h1", "h2"),), dropoff), "r01": None}
    assert ds.objective == pytest.approx(sol.objective, abs=1e-9)


def test_extract_rejects_rider_on_two_pickup_and_two_dropoff_routes():
    """A feasible vector by hand: r00 rides its pickup and its dropoff route
    at both h1 and h2, so each hub's flow balances without a bus leg. The
    cost adds up, but r00 has no single itinerary, so it is no design."""
    inst = bus_corridor_instance(1, ends=2)
    dm = build_design_model(inst, *enumerated(inst))
    assert sorted((w.kind, w.hub) for w in dm.routes) == [(k, h) for k in (DROPOFF, PICKUP) for h in ("h1", "h2")]
    v = np.zeros(len(dm.model.var_names))
    v[dm.x] = 1
    _check_solution(dm.model, _constraint_rows(dm.model), v, integrality=True)
    sol = MilpSolution(OPTIMAL, float(dm.model.objective_vector() @ v), v, None)
    with pytest.raises(DesignError, match="commodity r00 has 2 pickup and 2 dropoff routes selected"):
        _extract(dm, sol, inst)


def test_leg_path_takes_fewest_hops_in_leg_order():
    longer = [("h1", "h5"), ("h5", "h6"), ("h6", "h4")]
    via_h2, via_h3 = [("h1", "h2"), ("h2", "h4")], [("h1", "h3"), ("h3", "h4")]
    legs = [*longer, via_h2[0], via_h3[0], via_h2[1], via_h3[1], ("h4", "h1")]
    assert _leg_path(legs, "h1", "h4") == via_h2
    assert _leg_path([*longer, *via_h3, *via_h2], "h1", "h4") == via_h3
    assert _leg_path(legs, "h4", "h4") == []
    with pytest.raises(ItineraryError, match="do not reach the dropoff hub h7"):
        _leg_path(legs, "h1", "h7")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_small_instances_match_exhaustive_oracle(seed):
    inst = instgen.generate(
        seed=seed, n_nodes=7, n_hubs=2 + seed % 2, n_commodities=4, horizon=(0.0, 6.0)
    )
    inst = dataclasses.replace(
        inst,
        routing=dataclasses.replace(
            inst.routing, shuttle_capacity=2, first_hub_count=2, last_hub_count=2
        ),
    )
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.objective == pytest.approx(design_oracle(inst, om, op), abs=1e-6)


@pytest.mark.parametrize("seed", [500, 501, 504])
def test_oracle_equality_under_heavy_sharing(seed):
    # Every departure in one consolidation window, so most commodities are
    # coupled through shared-route candidates.
    inst = instgen.generate(
        seed=seed, n_nodes=6, n_hubs=2, n_commodities=5, horizon=(0.0, 2.9), side_km=6.0
    )
    inst = dataclasses.replace(
        inst,
        routing=dataclasses.replace(
            inst.routing, shuttle_capacity=2, first_hub_count=2, last_hub_count=2
        ),
    )
    om, op = enumerated(inst)
    shared = {
        w.key for routes in (*om.values(), *op.values()) for w in routes
        if len(w.commodities) > 1
    }
    assert len(shared) >= 5
    ds = solve_design(inst, om, op)
    assert ds.objective == pytest.approx(design_oracle(inst, om, op), abs=1e-6)


@pytest.mark.parametrize(
    "seed, horizon, rounds",
    [
        (402, (0.0, 240.0), [1]),
        (403, (0.0, 240.0), [1]),
        (404, (0.0, 240.0), [1]),
        (405, (0.0, 240.0), [1]),
        (204, (0.0, 60.0), [2, 3]),  # fractional route columns after round 1
    ],
)
def test_rounds_equal_monolithic_mip(seed, horizon, rounds):
    inst = instgen.generate(
        seed=seed, n_nodes=60, n_hubs=6, n_commodities=100, horizon=horizon, side_km=16.0,
        cost=DESK_COST,
    )
    assert inst.routing.shuttle_capacity == 3
    dm = build_design_model(inst, *enumerated(inst))
    sol, taken = solve_in_rounds(dm)
    assert sol.objective == pytest.approx(solve_milp(dm.model).objective, rel=1e-9, abs=0.0)
    assert taken in rounds
    _check_solution(dm.model, _constraint_rows(dm.model), sol.x, integrality=True)


def test_rounds_leave_the_model_unchanged():
    inst = instgen.generate(
        seed=204, n_nodes=60, n_hubs=6, n_commodities=100, horizon=(0.0, 60.0), side_km=16.0,
        cost=DESK_COST,
    )
    dm = build_design_model(inst, *enumerated(inst))
    before = [a.copy() for a in (dm.model.integer, dm.model.lb, dm.model.ub, *dm.model._merged_rows())]
    _, taken = solve_in_rounds(dm)
    assert taken >= 2
    after = (dm.model.integer, dm.model.lb, dm.model.ub, *dm.model._merged_rows())
    for old, new in zip(before, after):
        np.testing.assert_array_equal(new, old)
        assert new.dtype == old.dtype


def test_objective_monotone_in_capacity():
    base = instgen.generate(seed=21, n_nodes=10, n_hubs=2, n_commodities=8, horizon=(0.0, 6.0))
    objectives = []
    for cap in (1, 2, 3):
        inst = dataclasses.replace(
            base,
            routing=dataclasses.replace(
                base.routing, shuttle_capacity=cap, first_hub_count=2, last_hub_count=2
            ),
        )
        om, op = enumerated(inst)
        objectives.append(solve_design(inst, om, op).objective)
    assert objectives[0] >= objectives[1] - 1e-6
    assert objectives[1] >= objectives[2] - 1e-6


def test_objective_bounded_by_all_direct():
    inst = instgen.generate(seed=22, n_nodes=9, n_hubs=3, n_commodities=6, horizon=(0.0, 12.0))
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    assert ds.objective <= sum(direct_cost(c, inst) for c in inst.commodities) + 1e-6


def test_solution_round_trip(tmp_path):
    inst = bus_corridor_instance(5)
    om, op = enumerated(inst)
    ds = solve_design(inst, om, op)
    path = str(tmp_path / "design.json")
    save_solution(ds, path)
    back = load_solution(path, inst)
    assert back.objective == pytest.approx(ds.objective)
    assert back.opened_lines == ds.opened_lines
    assert back.direct == ds.direct
    assert {w.key for w in back.selected_routes} == {w.key for w in ds.selected_routes}


def test_route_with_unknown_commodity_rejected():
    inst = shared_hub_instance()
    om, op = enumerated(inst)
    rogue = mk_commodity("ghost", "a1", "b1", 0.0)
    from odmts.routegen import materialize_pickup

    bad = materialize_pickup((rogue,), "h", inst)
    with pytest.raises(ValueError, match="ghost"):
        build_design_model(inst, {"ghost": [bad]}, op)


@pytest.mark.parametrize(
    "edit,message",
    [
        ("kind", "has kind 'dropoff', expected 'pickup'"),
        ("hub", "references unknown hub 'a1'"),
        ("commodity", "serves unknown commodity 'ghost'"),
    ],
)
def test_route_of_wrong_kind_hub_or_commodity_rejected(edit, message):
    inst = shared_hub_instance()
    om, op = enumerated(inst)
    w = om["r1"][0]
    bad = {
        "kind": dataclasses.replace(w, kind=DROPOFF),
        "hub": dataclasses.replace(w, hub="a1"),
        "commodity": dataclasses.replace(w, commodities=(*w.commodities, mk_commodity("ghost", "a1", "b1", 0.0))),
    }[edit]
    with pytest.raises(ValueError, match=message):
        build_design_model(inst, {**om, "r1": [bad]}, op)


def test_assembly_checks_each_route_per_map_wherever_it_is_listed():
    inst = shared_hub_instance()
    om, op = enumerated(inst)
    w = om["r1"][0]
    with pytest.raises(ValueError, match="has kind 'pickup', expected 'dropoff'"):
        build_design_model(inst, om, {**op, "r2": [*op["r2"], w]})  # the same object, also under dropoffs
    ghost = mk_commodity("ghost", "a1", "b1", 0.0)
    for bad, message in (
        (dataclasses.replace(w, hub="a1"), "references unknown hub 'a1'"),
        (dataclasses.replace(w, commodities=(*w.commodities, ghost)), "serves unknown commodity 'ghost'"),
    ):
        with pytest.raises(ValueError, match=message):
            build_design_model(inst, {**om, "r2": [*om["r2"], bad]}, op)  # listed under r2 only
    # A distinct object with the same key shares its column.
    twin = build_design_model(inst, {**om, "r2": [*om["r2"], dataclasses.replace(w)]}, op)
    assert len(twin.routes) == len(build_design_model(inst, om, op).routes)


def test_line_endpoints_must_differ():
    with pytest.raises(ValueError, match=r"bus line endpoints must differ, got \(h, h\)"):
        line_open_cost("h", "h", line_cost_instance())


def test_x_names_escape_the_member_separator(tmp_path):
    # Routes [a, b] and [a|b] must not share a name: '\' and '|' in a member id are escaped.
    points = {"o": (0.0, 0.0), "h": (10.0, 0.0), "d": (20.0, 0.0)}
    comms = tuple(mk_commodity(cid, "o", "d", 0.0) for cid in ("a", "b", "a|b", "c\\"))
    inst = euclid_instance(points, ["h"], comms, capacity=2, first_hubs=1, last_hubs=1)
    dm = build_design_model(inst, *enumerated(inst))
    names = [dm.model.var_name(int(j)) for j in dm.x]
    assert "x[pickup,h,a|b]" in names and "x[pickup,h,a\\|b]" in names and "x[pickup,h,c\\\\]" in names
    assert len(set(names)) == len(names)
    path = tmp_path / "design.lp"
    write_lp(dm.model, str(path))
    assert read_names(str(path))[0] == dm.model.var_names
