"""Shuttle route materialization and enumeration.

Two route kinds exist. A pickup route collects commodities at their
origins in sequence and delivers all of them to one hub; a dropoff route
starts at a hub and drops its commodities off in sequence. A direct ride,
one commodity driven straight from origin to destination, is not a route:
the design model's eta variable stands for it, at `direct_cost`.

Timing rules:

* Pickup: the shuttle starts at the first origin at that commodity's
  departure time. At each later stop it departs at max(arrival, departure
  time of the commodity boarding there), i.e. it waits for late riders.
  Per-commodity elapsed time xi_j runs from the commodity's departure time
  to the arrival at the hub.
* Dropoff: riders reach the hub at estimated times t1; the shuttle leaves
  at the latest of them and then drives without further waiting. xi_j is
  the rider's hub wait plus the drive to its stop. The route *duration* is
  the pure drive time (hub waits are rider time, not shuttle time).

Enumeration produces, per commodity, every individual route to each of its
eligible hubs plus, for every (hub, commodity set) that admits a feasible
shared sequence, exactly one route: the cheapest feasible permutation (ties
broken by lexicographically smallest id sequence). Commodities are grouped
once per (hub, window): the departure bucket for pickups, the window of the
hub-arrival estimate for dropoffs. One depth-first search serves both kinds;
each kind supplies only its timing state and how a stop extends it. The
search prunes partial sequences only when capacity, the detour bound, or the
consolidation window is already violated; elapsed times only grow along a
sequence, so pruning never removes a feasible completion. The search reads
travel times by node index, through index maps built once per enumeration.

A route record holds what the instance cannot supply: the kind, the hub,
the members in service order and, for a dropoff, their hub-arrival
estimates `t1`. A route read back from a file (`route_from_dict`) is
rebuilt from these, and every other written field must equal the rebuilt
one. It must also fit the run's shuttle capacity; the hub eligibility,
detour bound and window rest on routing overrides that only route
enumeration reads, so a reading stage cannot check them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter, mul
from typing import Callable, Mapping, Sequence

import numpy as np

from .instance import (
    EPS, Commodity, Instance, InstanceFormatError, _finite, _typed, bucket_of, window_of,
)

PICKUP = "pickup"
DROPOFF = "dropoff"


@dataclass(frozen=True)
class Route:
    """A materialized shuttle route.

    commodities is the service order; xi holds the per-commodity elapsed
    minutes; arcs the traversed node pairs; cost blends distance cost and
    rider minutes with the alpha weight; t1 holds a dropoff's members'
    hub-arrival estimates in service order, and is empty for a pickup.
    """

    kind: str
    commodities: tuple[Commodity, ...]
    hub: str
    xi: tuple[float, ...]
    passengers: int
    arcs: tuple[tuple[str, str], ...]
    dist: float
    cost: float
    start_time: float
    duration: float
    t1: tuple[float, ...]

    def __post_init__(self) -> None:  # `key` is not a field: `fields(Route)` is the dump schema
        object.__setattr__(self, "key", (self.kind, self.hub, tuple([c.id for c in self.commodities])))

    def xi_of(self, cid: str) -> float:
        for c, x in zip(self.commodities, self.xi):
            if c.id == cid:
                return x
        raise KeyError(cid)


@dataclass(frozen=True)
class HubSets:
    """Per-commodity eligible first and last hubs, nearest first."""

    first: dict[str, tuple[str, ...]]
    last: dict[str, tuple[str, ...]]


def compute_hub_sets(inst: Instance) -> HubSets:
    """Nearest hubs by travel time from the origin (first) and to the
    destination (last); ties broken by hub id."""
    hubs = sorted(inst.hubs)  # a stable sort by time keeps equal times in id order
    cols = [inst.node_index(h) for h in hubs]
    times, sets = np.asarray(inst.time_view), []
    # A row per node: its times to each hub (for first hubs), then from each hub (for last hubs).
    for by_node, end, count in ((times[:, cols], "origin", inst.routing.first_hub_count),
                                (times[cols].T, "destination", inst.routing.last_hub_count)):
        rows = by_node[[inst.node_index(getattr(c, end)) for c in inst.commodities]]
        order = np.argsort(rows, axis=1, kind="stable")[:, :count].tolist()
        sets.append({c.id: tuple([hubs[k] for k in row]) for c, row in zip(inst.commodities, order)})
    return HubSets(*sets)


def estimate_hub_arrival(r: Commodity, hub: str, hs: HubSets, inst: Instance) -> float:
    """Estimated time the riders of r reach `hub` on their way out: the
    departure time plus the mean, over r's eligible first hubs, of shuttle
    drive + bus wait + bus ride."""
    if hub not in inst.hubs:
        raise ValueError(f"'{hub}' is not a hub")
    firsts = hs.first[r.id]
    s = inst.cost.bus_wait
    times, origin, end = inst.time_view, inst.node_index(r.origin), inst.node_index(hub)
    total = sum([times[origin, i] + s + times[i, end] for i in map(inst.node_index, firsts)])
    return r.depart + total / len(firsts)


def _blend(inst: Instance, dist: float, rider_minutes: float) -> float:
    a = inst.cost.alpha
    return (1.0 - a) * inst.cost.shuttle_cost_per_km * dist + a * rider_minutes


def _route(
    kind: str, seq: Sequence[Commodity], hub: str, xi: list[float], arcs: list[tuple[str, str]], dist: float,
    start: float, duration: float, t1: Sequence[float], inst: Instance,
) -> Route:
    """The route serving `seq` at `hub`, its passengers and cost summed over `seq`."""
    pax = [c.passengers for c in seq]
    cost = _blend(inst, dist, sum(map(mul, pax, xi)))
    return Route(kind, tuple(seq), hub, tuple(xi), sum(pax), tuple(arcs), dist, cost, start, duration, tuple(t1))


def materialize_pickup(seq: Sequence[Commodity], hub: str, inst: Instance) -> Route:
    if not seq:
        raise ValueError("pickup route needs at least one commodity")
    times, dists, node = inst.time_view, inst.dist_view, inst.node_index
    dep = seq[0].depart
    loc, i = seq[0].origin, node(seq[0].origin)
    dist = 0.0
    arcs: list[tuple[str, str]] = []
    for c in seq[1:]:
        j = node(c.origin)
        arrival = dep + times[i, j]
        if loc != c.origin:
            arcs.append((loc, c.origin))
            dist += dists[i, j]
        dep = max(arrival, c.depart)
        loc, i = c.origin, j
    j = node(hub)
    hub_arrival = dep + times[i, j]
    if loc != hub:
        arcs.append((loc, hub))
        dist += dists[i, j]
    xi = [hub_arrival - c.depart for c in seq]
    return _route(PICKUP, seq, hub, xi, arcs, dist, seq[0].depart, xi[0], (), inst)


def materialize_dropoff(
    seq: Sequence[Commodity], hub: str, t1_map: Mapping[str, float], inst: Instance
) -> Route:
    """t1_map gives each commodity's estimated arrival time at `hub`."""
    if not seq:
        raise ValueError("dropoff route needs at least one commodity")
    t1s = [t1_map[c.id] for c in seq]
    start = max(t1s)
    times, dists, node = inst.time_view, inst.dist_view, inst.node_index
    loc, i = hub, node(hub)
    drive = 0.0
    dist = 0.0
    arcs: list[tuple[str, str]] = []
    xi: list[float] = []
    for c, t1 in zip(seq, t1s):
        j = node(c.destination)
        drive += times[i, j]
        if loc != c.destination:
            arcs.append((loc, c.destination))
            dist += dists[i, j]
        loc, i = c.destination, j
        xi.append((start - t1) + drive)
    return _route(DROPOFF, seq, hub, xi, arcs, dist, start, drive, t1s, inst)


def direct_cost(r: Commodity, inst: Instance) -> float:
    """Cost of serving r with its own origin-to-destination shuttle ride."""
    a = inst.cost.alpha
    d = inst.dist(r.origin, r.destination)
    t = inst.time(r.origin, r.destination)
    return r.passengers * ((1.0 - a) * inst.cost.shuttle_cost_per_km * d + a * t)


# -- enumeration -------------------------------------------------------------


def _enumerate(
    inst: Instance,
    hubs_of: Mapping[str, tuple[str, ...]],
    group_of: Callable[[Commodity, str], int],
    start: Callable[[Commodity, str], tuple],
    step: Callable[[Commodity, tuple], tuple | None],
    materialize: Callable[[Sequence[Commodity], str], Route],
) -> dict[str, list[Route]]:
    """The search shared by both route kinds.

    Commodities are grouped once per (hub, window), in instance order. Every
    commodity gets its individual route to each eligible hub, in hub order;
    shared sequences starting with it extend only within its group. `start`
    gives the state (timing, node indices) of a one-stop sequence at a hub,
    and `step` the state after appending a stop, or None when that breaks a
    detour bound. Per (hub, commodity set) the cheapest order is kept (within
    EPS, the first by id sequence), and shared routes
    are attached to every member after its individual routes, by hub, then
    sorted ids.
    """
    cap = inst.routing.shuttle_capacity
    groups: dict[tuple[str, int], list[Commodity]] = {}
    firsts: list[tuple[Commodity, str, list[Commodity]]] = []
    for c in inst.commodities:
        for hub in hubs_of[c.id]:
            pool = groups.setdefault((hub, group_of(c, hub)), [])
            pool.append(c)
            firsts.append((c, hub, pool))
    omega: dict[str, list[Route]] = {c.id: [] for c in inst.commodities}
    best: dict[tuple, Route] = {}

    def extend(hub: str, pool: list[Commodity], seq: tuple, ids: tuple, pax: int, state: tuple) -> None:
        for c in pool:
            if pax + c.passengers > cap or c.id in ids:
                continue
            nstate = step(c, state)
            if nstate is None:
                continue  # some rider already over its detour bound
            nseq = seq + (c,)
            nids = ids + (c.id,)
            route = materialize(nseq, hub)
            key = (hub, frozenset(nids))
            prev = best.get(key)
            if prev is None or route.cost < prev.cost - EPS or (
                abs(route.cost - prev.cost) <= EPS and nids < prev.key[2]
            ):
                best[key] = route
            if pax + c.passengers < cap:
                extend(hub, pool, nseq, nids, pax + c.passengers, nstate)

    for r1, hub, pool in firsts:
        omega[r1.id].append(materialize((r1,), hub))
        extend(hub, pool, (r1,), (r1.id,), r1.passengers, start(r1, hub))
    del extend  # it refers to itself; without the cycle the search state is freed on return
    for key in sorted(best, key=lambda k: (k[0], sorted(k[1]))):
        route = best[key]
        for c in route.commodities:
            omega[c.id].append(route)
    return omega


def enumerate_pickup_routes(inst: Instance, hs: HubSets) -> dict[str, list[Route]]:
    """All practically feasible pickup routes, as a map commodity id -> routes
    serving it. Shared route objects are the same instance in every member's
    list. Riders share when they depart in the same bucket; the shuttle waits
    for late riders, and each rider's hub arrival must meet its detour bound."""
    stretch = 1.0 + inst.routing.duration_threshold
    bucket = {c.id: bucket_of(c.depart, inst) for c in inst.commodities}
    times, origin = inst.time_view, {c.id: inst.node_index(c.origin) for c in inst.commodities}

    def start(r1: Commodity, hub: str) -> tuple:
        i, h = origin[r1.id], inst.node_index(hub)
        return r1.depart, r1.depart + stretch * times[i, h], i, h

    def step(c: Commodity, state: tuple) -> tuple | None:
        dep, deadline, i, h = state  # i: the last origin, h: the hub
        j = origin[c.id]
        to_hub = times[j, h]
        ndep = max(dep + times[i, j], c.depart)
        ndeadline = min(deadline, c.depart + stretch * to_hub)
        if ndep + to_hub > ndeadline + EPS:
            return None
        return ndep, ndeadline, j, h

    return _enumerate(
        inst,
        hs.first,
        lambda c, hub: bucket[c.id],
        start,
        step,
        lambda seq, hub: materialize_pickup(seq, hub, inst),
    )


def arrival_estimates(
    inst: Instance,
    hs: HubSets,
    t1_offsets: Mapping[tuple[str, str], float] | None = None,
) -> dict[tuple[str, str], float]:
    """Hub-arrival estimates t1 for every (commodity, eligible last hub),
    optionally shifted by an additive noise map."""
    t1: dict[tuple[str, str], float] = {}
    for c in inst.commodities:
        for hub in hs.last[c.id]:
            est = estimate_hub_arrival(c, hub, hs, inst)
            if t1_offsets is not None:
                est += t1_offsets.get((c.id, hub), 0.0)
            t1[(c.id, hub)] = est
    return t1


def enumerate_dropoff_routes(
    inst: Instance,
    hs: HubSets,
    t1_offsets: Mapping[tuple[str, str], float] | None = None,
) -> dict[str, list[Route]]:
    """Dropoff analogue of enumerate_pickup_routes, grouping by the window of
    the hub-arrival estimates. The shuttle leaves at the latest estimate of
    its riders; `bound` is the latest start that keeps every rider so far
    within its detour bound."""
    stretch = 1.0 + inst.routing.duration_threshold
    t1: dict[str, dict[str, float]] = {hub: {} for hub in inst.hubs}
    for (cid, hub), val in arrival_estimates(inst, hs, t1_offsets).items():
        t1[hub][cid] = val
    times, destination = inst.time_view, {c.id: inst.node_index(c.destination) for c in inst.commodities}

    def start(r1: Commodity, hub: str) -> tuple:
        h, j, t1_at = inst.node_index(hub), destination[r1.id], t1[hub]
        d0 = times[h, j]
        return t1_at[r1.id], d0, t1_at[r1.id] + stretch * d0 - d0, j, h, t1_at

    def step(c: Commodity, state: tuple) -> tuple | None:
        leave, drive, bound, i, h, t1_at = state  # i: the last destination, h: the hub
        j, t1_c = destination[c.id], t1_at[c.id]
        nleave = max(leave, t1_c)
        ndrive = drive + times[i, j]
        nbound = min(bound, t1_c + stretch * times[h, j] - ndrive)
        if nleave > nbound + EPS:
            return None
        return nleave, ndrive, nbound, j, h, t1_at

    return _enumerate(
        inst,
        hs.last,
        lambda c, hub: window_of(t1[hub][c.id], inst),
        start,
        step,
        lambda seq, hub: materialize_dropoff(seq, hub, t1[hub], inst),
    )


# -- serialization -----------------------------------------------------------


_NAMES = tuple(sorted(f.name for f in fields(Route)))
_values = attrgetter(*_NAMES)
# Keys come sorted and routes hold no cycles; json.dumps would build an encoder per call.
_ENCODER = json.JSONEncoder(check_circular=False)


def route_to_dict(route: Route) -> dict:
    """A route's fields as a flat dict, keys sorted, its commodities as their ids."""
    rec = dict(zip(_NAMES, _values(route)))
    rec["commodities"] = list(route.key[2])
    return rec


def route_from_dict(data: dict, inst: Instance) -> Route:
    """The route of `route_to_dict`, rebuilt from its kind, its hub of
    `inst`, its distinct `commodities` of `inst` in service order and `t1`,
    one finite hub-arrival estimate per member of a dropoff and none for a
    pickup. Every written field must equal the rebuilt route's as the dump
    encodes it (so `true`, `1` and `1.0` differ), and the route must fit
    `inst`'s shuttle capacity; else KeyError, TypeError or ValueError."""
    kind, hub, ids = data["kind"], data["hub"], _typed(data["commodities"], list, "a list", "commodities")
    if kind not in (PICKUP, DROPOFF) or hub not in inst.hubs:
        raise ValueError(f"kind {kind!r} at hub {hub!r}: not a route kind at a hub of the instance")
    seq = [inst.commodity(cid) for cid in ids]
    if len(set(ids)) != len(ids):
        raise ValueError(f"route {(kind, hub, tuple(ids))} lists a commodity twice: it needs distinct members")
    t1 = {f"[{k}]": v for k, v in enumerate(_typed(data["t1"], (list, tuple), "a list", "t1"))}
    want = len(ids) if kind == DROPOFF else 0
    if len(t1) != want:
        raise ValueError(f"field 't1' has {len(t1)} entries, but a {kind} route of {len(ids)} members has {want}")
    if kind == PICKUP:
        route = materialize_pickup(seq, hub, inst)
    else:
        route = materialize_dropoff(seq, hub, dict(zip(ids, (_finite(t1, k, "t1") for k in t1))), inst)
    rebuilt = route_to_dict(route)
    if _ENCODER.encode(data) != _ENCODER.encode(rebuilt):  # one encoding each; the loop names a difference
        for name, value in rebuilt.items():
            if _ENCODER.encode(data[name]) != _ENCODER.encode(value):
                raise ValueError(f"field '{name}' is {data[name]!r}, but route {route.key} materializes to {value!r}")
    capacity = inst.routing.shuttle_capacity
    if route.passengers > capacity:
        raise ValueError(f"route {route.key} holds {route.passengers} riders, over the shuttle capacity {capacity}")
    return route


def dump_routes(omega_minus: dict[str, list[Route]], omega_plus: dict[str, list[Route]], path: str) -> None:
    """Write one JSON object per line for every distinct route."""
    seen = {r.key: r for omega in (omega_minus, omega_plus) for routes in omega.values() for r in routes}
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_ENCODER.encode(route_to_dict(seen[key])) + "\n" for key in sorted(seen))


def load_routes(path: str, inst: Instance) -> tuple[dict[str, list[Route]], dict[str, list[Route]]]:
    """Rebuild the per-commodity route maps from a route dump; a line that
    is not a route of `inst` raises InstanceFormatError naming the path."""
    omega_minus: dict[str, list[Route]] = {c.id: [] for c in inst.commodities}
    omega_plus: dict[str, list[Route]] = {c.id: [] for c in inst.commodities}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                route = route_from_dict(json.loads(line), inst)
            except (KeyError, TypeError, ValueError) as exc:
                raise InstanceFormatError(f"{path}: line {lineno} is not a route: {exc!r}") from exc
            target = omega_minus if route.kind == PICKUP else omega_plus
            for c in route.commodities:
                target[c.id].append(route)
    return omega_minus, omega_plus
