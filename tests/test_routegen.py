import pytest

from odmts import instgen
from odmts.instance import window_of
from odmts.routegen import (
    DROPOFF,
    PICKUP,
    compute_hub_sets,
    direct_cost,
    dump_routes,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
    estimate_hub_arrival,
    feasible,
    load_routes,
    materialize_direct,
    materialize_dropoff,
    materialize_pickup,
    route_cost,
)

from conftest import mk_commodity, mk_instance
from oracles import brute_force_dropoff, brute_force_pickup


def test_estimate_hub_arrival_mean_formula():
    # Nodes: origin o, first hubs h1/h2, target hub l.
    #          o     h1    h2    l
    time = [
        [0.0, 4.0, 10.0, 10.0],
        [4.0, 0.0, 6.0, 8.0],
        [10.0, 6.0, 0.0, 0.0],
        [10.0, 8.0, 0.0, 0.0],
    ]
    r = mk_commodity("r", "o", "l", 0.0)
    inst = mk_instance(
        ["o", "h1", "h2", "l"], ["h1", "h2", "l"], time, commodities=(r,), first_hubs=2
    )
    hs = compute_hub_sets(inst)
    assert hs.first["r"] == ("h1", "h2")  # nearest two from o; h2/l tie broken by id
    t1 = estimate_hub_arrival(r, "l", hs, inst)
    # ((4 + 7.5 + 8) + (10 + 7.5 + 0)) / 2
    assert abs(t1 - 18.5) <= 1e-9


def test_estimate_hub_arrival_degenerate_and_shift():
    time = [[0.0, 0.0], [0.0, 0.0]]
    r0 = mk_commodity("r", "h", "x", 0.0)
    inst = mk_instance(["h", "x"], ["h"], time, commodities=(r0,))
    hs = compute_hub_sets(inst)
    assert estimate_hub_arrival(r0, "h", hs, inst) == pytest.approx(0.0 + 7.5)
    r5 = mk_commodity("r", "h", "x", 5.0)
    inst5 = mk_instance(["h", "x"], ["h"], time, commodities=(r5,))
    assert estimate_hub_arrival(r5, "h", hs, inst5) == pytest.approx(5.0 + 7.5)


def test_estimate_requires_hub(pickup_pair_instance):
    inst = pickup_pair_instance
    hs = compute_hub_sets(inst)
    with pytest.raises(ValueError):
        estimate_hub_arrival(inst.commodities[0], "a", hs, inst)


def test_materialize_pickup_two_stop(pickup_pair_instance):
    inst = pickup_pair_instance
    r1, r2 = inst.commodities
    route = materialize_pickup((r1, r2), "h", inst)
    assert route.xi == (8.0, 6.0)
    assert route.dist == 8.0
    assert route.start_time == 0.0 and route.duration == 8.0
    assert route.arcs == (("a", "b"), ("b", "h"))
    assert route.cost == pytest.approx(0.999 * 8 + 0.001 * (8 + 6), abs=1e-9)
    assert route.cost == pytest.approx(8.006, abs=1e-9)


def test_materialize_pickup_single(pickup_pair_instance):
    inst = pickup_pair_instance
    r2 = inst.commodities[1]
    route = materialize_pickup((r2,), "h", inst)
    assert route.xi == (5.0,)
    assert route.duration == 5.0
    assert route.cost == pytest.approx(0.999 * 5 + 0.001 * 5, abs=1e-9)


def test_materialize_pickup_waits_for_late_rider(pickup_pair_instance):
    inst = pickup_pair_instance
    r1 = inst.commodities[0]
    late = mk_commodity("r2", "b", "h", 10.0)
    route = materialize_pickup((r1, late), "h", inst)
    # Shuttle reaches b at 3, waits until 10, arrives at h at 15.
    assert route.xi == (15.0, 5.0)


def test_materialize_pickup_empty_raises(pickup_pair_instance):
    with pytest.raises(ValueError):
        materialize_pickup((), "h", pickup_pair_instance)


def dropoff_fixture():
    #         h     d1    d2
    time = [
        [0.0, 4.0, 7.0],
        [4.0, 0.0, 3.0],
        [7.0, 3.0, 0.0],
    ]
    r1 = mk_commodity("r1", "d2", "d1", 0.0)
    r2 = mk_commodity("r2", "d1", "d2", 0.0)
    inst = mk_instance(["h", "d1", "d2"], ["h"], time, commodities=(r1, r2), capacity=2, delta=1.5)
    return inst, r1, r2


def test_materialize_dropoff_two_stop():
    inst, r1, r2 = dropoff_fixture()
    route = materialize_dropoff((r1, r2), "h", {"r1": 10.0, "r2": 12.0}, inst)
    assert route.start_time == 12.0
    assert route.xi == (pytest.approx(6.0), pytest.approx(7.0))
    assert route.duration == pytest.approx(7.0)  # pure drive, last rider has no hub wait
    assert route.arcs == (("h", "d1"), ("d1", "d2"))


def test_materialize_dropoff_single():
    inst, r1, _ = dropoff_fixture()
    route = materialize_dropoff((r1,), "h", {"r1": 10.0}, inst)
    assert route.start_time == 10.0
    assert route.xi == (4.0,)
    assert route.duration == 4.0


def test_materialize_dropoff_equal_arrivals_pure_drive():
    inst, r1, r2 = dropoff_fixture()
    route = materialize_dropoff((r1, r2), "h", {"r1": 9.0, "r2": 9.0}, inst)
    assert route.xi == (pytest.approx(4.0), pytest.approx(7.0))


def test_route_cost_direct_and_boundaries():
    time = [[0.0, 20.0], [20.0, 0.0]]
    r = mk_commodity("r", "a", "b", 0.0)
    inst = mk_instance(["a", "b"], ["a"], time, commodities=(r,))
    assert direct_cost(r, inst) == pytest.approx(20.0, abs=1e-9)
    route = materialize_direct(r, inst)
    assert route_cost(route, inst) == pytest.approx(20.0, abs=1e-9)

    zero_alpha = mk_instance(["a", "b"], ["a"], time, commodities=(r,), alpha=0.0)
    pickup = materialize_pickup((r,), "a", zero_alpha)
    assert route_cost(pickup, zero_alpha) == pytest.approx(pickup.dist, abs=1e-12)


def test_route_cost_matches_pickup_example(pickup_pair_instance):
    inst = pickup_pair_instance
    route = materialize_pickup(inst.commodities, "h", inst)
    assert route_cost(route, inst) == pytest.approx(8.006, abs=1e-9)


def test_feasible_detour_bound(pickup_pair_instance):
    inst = pickup_pair_instance
    r1, r2 = inst.commodities
    hs = compute_hub_sets(inst)
    route = materialize_pickup((r1, r2), "h", inst)
    # xi_2 = 6 against bound (1 + delta) * T(b, h) = (1 + delta) * 5.
    tight = mk_instance(
        inst.nodes, inst.hubs, inst.travel_time, inst.travel_dist,
        commodities=inst.commodities, capacity=2, delta=0.5, bucket=3.0,
    )
    assert feasible(route, tight, compute_hub_sets(tight))  # 6 <= 7.5

    # Push xi_2 to 8 by delaying r1: shuttle leaves a at 0 but b only at 4.
    slow = mk_instance(
        inst.nodes, inst.hubs,
        [[0.0, 5.0, 8.0], [4.0, 0.0, 5.0], [6.0, 5.0, 0.0]],
        commodities=inst.commodities, capacity=2, delta=0.5, bucket=6.0,
    )
    route8 = materialize_pickup(slow.commodities, "h", slow)
    assert route8.xi[1] == 8.0
    assert not feasible(route8, slow, compute_hub_sets(slow))  # 8 > 7.5


def test_feasible_capacity(pickup_pair_instance):
    inst = pickup_pair_instance
    big = mk_commodity("r3", "b", "h", 2.0, passengers=3)
    route = materialize_pickup((inst.commodities[0], big), "h", inst)
    assert route.passengers == 4
    assert not feasible(route, inst, compute_hub_sets(inst))  # capacity 2


def test_feasible_bucket_condition(pickup_pair_instance):
    inst = pickup_pair_instance
    r1 = inst.commodities[0]
    other_bucket = mk_commodity("r2", "b", "h", 4.0)  # bucket 1 vs r1's bucket 0 (W = 3)
    route = materialize_pickup((r1, other_bucket), "h", inst)
    assert not feasible(route, inst, compute_hub_sets(inst))
    assert feasible(materialize_direct(r1, inst), inst)


def test_enumerate_pickup_k1_individuals_only():
    inst = instgen.generate(seed=5, n_nodes=8, n_hubs=3, n_commodities=5, horizon=(0, 12))
    inst = _with_routing(inst, capacity=1, first=2, last=2)
    hs = compute_hub_sets(inst)
    omega = enumerate_pickup_routes(inst, hs)
    for c in inst.commodities:
        routes = omega[c.id]
        assert len(routes) == 2
        assert all(len(r.commodities) == 1 for r in routes)
        assert [r.hub for r in routes] == list(hs.first[c.id])


def _with_routing(inst, capacity=None, first=None, last=None, delta=None, bucket=None):
    import dataclasses

    routing = inst.routing
    routing = dataclasses.replace(
        routing,
        shuttle_capacity=capacity if capacity is not None else routing.shuttle_capacity,
        first_hub_count=first if first is not None else routing.first_hub_count,
        last_hub_count=last if last is not None else routing.last_hub_count,
        duration_threshold=delta if delta is not None else routing.duration_threshold,
        bucket_len=bucket if bucket is not None else routing.bucket_len,
    )
    return dataclasses.replace(inst, routing=routing)


def test_enumerate_pickup_keeps_cheapest_order(pickup_pair_instance):
    inst = pickup_pair_instance
    r1, r2 = inst.commodities
    hs = compute_hub_sets(inst)
    omega = enumerate_pickup_routes(inst, hs)
    shared = [w for w in omega["r1"] if len(w.commodities) == 2]
    assert len(shared) == 1
    # Both orders are feasible with delta = 1.5; the enumeration must keep the
    # cheaper one, which the two materializations identify directly.
    fwd = materialize_pickup((r1, r2), "h", inst)
    rev = materialize_pickup((r2, r1), "h", inst)
    assert fwd.cost < rev.cost
    assert shared[0].key == fwd.key and shared[0].cost == pytest.approx(fwd.cost)
    assert shared[0] is omega["r2"][-1]  # shared object across member lists


def test_enumerate_pickup_no_cross_bucket_sharing(pickup_pair_instance):
    inst = pickup_pair_instance
    far = (
        mk_commodity("r1", "a", "h", 0.0),
        mk_commodity("r2", "b", "h", 4.0),  # different 3-minute bucket
    )
    import dataclasses

    inst = dataclasses.replace(inst, commodities=far)
    omega = enumerate_pickup_routes(inst, compute_hub_sets(inst))
    assert all(len(w.commodities) == 1 for routes in omega.values() for w in routes)


def test_enumerate_dropoff_k1_individuals():
    inst = instgen.generate(seed=6, n_nodes=8, n_hubs=3, n_commodities=4, horizon=(0, 12))
    inst = _with_routing(inst, capacity=1, first=2, last=2)
    hs = compute_hub_sets(inst)
    omega = enumerate_dropoff_routes(inst, hs)
    for c in inst.commodities:
        routes = omega[c.id]
        assert len(routes) == 2
        assert all(w.kind == DROPOFF and len(w.commodities) == 1 for w in routes)


def test_enumerate_dropoff_shares_within_window():
    # Arrange two commodities whose hub-arrival estimates share a window.
    #         o     h     d1    d2
    time = [
        [0.0, 4.0, 8.0, 8.0],
        [4.0, 0.0, 3.0, 4.0],
        [8.0, 3.0, 0.0, 2.0],
        [8.0, 4.0, 2.0, 0.0],
    ]
    r1 = mk_commodity("r1", "o", "d1", 0.0)
    r2 = mk_commodity("r2", "o", "d2", 0.0)
    inst = mk_instance(
        ["o", "h", "d1", "d2"], ["h"], time, commodities=(r1, r2),
        capacity=2, delta=1.5, bucket=3.0,
    )
    hs = compute_hub_sets(inst)
    # Identical estimates: t1 = 0 + (4 + 7.5 + 0) = 11.5 for both.
    assert estimate_hub_arrival(r1, "h", hs, inst) == pytest.approx(11.5)
    omega = enumerate_dropoff_routes(inst, hs)
    shared = [w for w in omega["r1"] if len(w.commodities) == 2]
    assert len(shared) == 1
    assert feasible(shared[0], inst, hs)
    # The kept order is the cheaper materialization.
    t1_map = {"r1": 11.5, "r2": 11.5}
    best = min(
        (materialize_dropoff(seq, "h", t1_map, inst) for seq in ((r1, r2), (r2, r1))),
        key=lambda w: w.cost,
    )
    assert shared[0].cost == pytest.approx(best.cost)


def test_enumerate_dropoff_window_split():
    # Same layout, but r2 departs late enough to land in the next window.
    time = [
        [0.0, 4.0, 8.0, 8.0],
        [4.0, 0.0, 3.0, 4.0],
        [8.0, 3.0, 0.0, 2.0],
        [8.0, 4.0, 2.0, 0.0],
    ]
    r1 = mk_commodity("r1", "o", "d1", 0.0)   # t1 = 11.5, window 3
    r2 = mk_commodity("r2", "o", "d2", 1.0)   # t1 = 12.5, window 4
    inst = mk_instance(
        ["o", "h", "d1", "d2"], ["h"], time, commodities=(r1, r2),
        capacity=2, delta=1.5, bucket=3.0,
    )
    hs = compute_hub_sets(inst)
    assert window_of(11.5, inst) != window_of(12.5, inst)
    omega = enumerate_dropoff_routes(inst, hs)
    assert all(len(w.commodities) == 1 for routes in omega.values() for w in routes)


# -- brute-force cross-checks -------------------------------------------------


def route_set(omega):
    return {(w.key, round(w.cost, 9)) for routes in omega.values() for w in routes}


def assert_shared_objects(omega):
    """A shared route is one object, listed under each of its members."""
    for routes in omega.values():
        for w in routes:
            for c in w.commodities:
                assert sum(x is w for x in omega[c.id]) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumeration_matches_brute_force(seed):
    inst = instgen.generate(seed=seed, n_nodes=7, n_hubs=3, n_commodities=5, horizon=(0, 9))
    inst = _with_routing(inst, capacity=3, first=2, last=2, delta=1.0, bucket=4.5)
    hs = compute_hub_sets(inst)
    fast = enumerate_pickup_routes(inst, hs)
    slow = brute_force_pickup(inst, hs)
    assert route_set(fast) == route_set(slow)
    assert_shared_objects(fast)
    for routes in fast.values():
        for w in routes:
            assert feasible(w, inst, hs)


@pytest.mark.parametrize("seed, longest", [(0, 3), (1, 3), (2, 2)])
def test_dropoff_enumeration_matches_brute_force(seed, longest):
    inst = instgen.generate(seed=seed, n_nodes=7, n_hubs=3, n_commodities=5, horizon=(0, 9))
    inst = _with_routing(inst, capacity=3, first=2, last=2, delta=1.0, bucket=4.5)
    hs = compute_hub_sets(inst)
    fast = enumerate_dropoff_routes(inst, hs)
    slow = brute_force_dropoff(inst, hs)
    assert route_set(fast) == route_set(slow)
    assert max(len(w.commodities) for routes in fast.values() for w in routes) == longest
    assert_shared_objects(fast)
    for routes in fast.values():
        for w in routes:
            assert feasible(w, inst, hs)


def test_perturbed_dropoff_enumeration_matches_brute_force():
    from odmts.instgen import perturb_arrival_estimates

    inst = instgen.generate(seed=31, n_nodes=7, n_hubs=3, n_commodities=6, horizon=(0, 9))
    inst = _with_routing(inst, capacity=2, first=2, last=2)
    hs = compute_hub_sets(inst)
    offsets = perturb_arrival_estimates(inst, 1.0, seed=8)
    fast = enumerate_dropoff_routes(inst, hs, t1_offsets=offsets)
    slow = brute_force_dropoff(inst, hs, t1_offsets=offsets)
    assert route_set(fast) == route_set(slow)
    assert_shared_objects(fast)
    # The noise must actually shift the route start times (perturbed hub
    # arrivals) relative to the clean run.
    def starts(omega):
        return {(w.key, round(w.start_time, 9)) for v in omega.values() for w in v}

    clean = enumerate_dropoff_routes(inst, hs)
    assert starts(fast) != starts(clean)


def test_route_sets_nest_in_capacity():
    base = instgen.generate(seed=9, n_nodes=8, n_hubs=2, n_commodities=6, horizon=(0, 9))
    keys_by_cap = []
    for cap in (1, 2, 3):
        inst = _with_routing(base, capacity=cap, first=2, last=2)
        hs = compute_hub_sets(inst)
        omega = enumerate_pickup_routes(inst, hs)
        keys_by_cap.append({w.key for routes in omega.values() for w in routes})
    assert keys_by_cap[0] <= keys_by_cap[1] <= keys_by_cap[2]


def test_pickup_xi_monotone_at_exact_rendezvous(pickup_pair_instance):
    # With nobody waiting (the shuttle arrives exactly at each rider's
    # departure time), elapsed times decrease along the pickup order.
    inst = pickup_pair_instance
    r1 = inst.commodities[0]
    exact = mk_commodity("r2", "b", "h", 3.0)  # T(a, b) = 3, so arrival == departure
    route = materialize_pickup((r1, exact), "h", inst)
    assert route.xi[0] >= route.xi[1]


def test_pickup_xi_bounded_below_by_remaining_drive():
    # Waiting or not, a rider's elapsed time is at least the drive from its
    # stop to the hub along the route.
    inst = instgen.generate(seed=11, n_nodes=9, n_hubs=2, n_commodities=6, horizon=(0, 6))
    inst = _with_routing(inst, capacity=3, first=2, last=2, delta=2.0, bucket=6.0)
    hs = compute_hub_sets(inst)
    omega = enumerate_pickup_routes(inst, hs)
    shared = 0
    for routes in omega.values():
        for w in routes:
            stops = [c.origin for c in w.commodities] + [w.hub]
            remaining = 0.0
            drives = []
            for a, b in zip(reversed(stops[:-1]), reversed(stops[1:])):
                remaining += inst.time(a, b)
                drives.append(remaining)
            drives.reverse()
            shared += len(w.commodities) > 1
            for x, lo in zip(w.xi, drives):
                assert x >= lo - 1e-9
    assert shared > 0  # the instance actually produced shared routes


def test_appending_stop_never_shortens_distance(pickup_pair_instance):
    inst = pickup_pair_instance
    r1, r2 = inst.commodities
    short = materialize_pickup((r1,), "h", inst)
    longer = materialize_pickup((r1, r2), "h", inst)
    assert longer.dist >= short.dist - 1e-12


def test_route_dump_round_trip(tmp_path, pickup_pair_instance):
    inst = pickup_pair_instance
    hs = compute_hub_sets(inst)
    omega_minus = enumerate_pickup_routes(inst, hs)
    omega_plus = enumerate_dropoff_routes(inst, hs)
    path = str(tmp_path / "routes.jsonl")
    dump_routes(omega_minus, omega_plus, path)
    back_minus, back_plus = load_routes(path, inst)
    assert route_set(back_minus) == route_set(omega_minus)
    assert route_set(back_plus) == route_set(omega_plus)
    for routes in back_minus.values():
        for w in routes:
            assert w.kind == PICKUP
