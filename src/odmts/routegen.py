"""Shuttle route materialization and enumeration.

Three route kinds exist. A pickup route collects commodities at their
origins in sequence and delivers all of them to one hub; a dropoff route
starts at a hub and drops its commodities off in sequence; a direct route
drives one commodity straight from origin to destination.

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
sequence, so pruning never removes a feasible completion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .instance import EPS, Commodity, Instance, InstanceFormatError, bucket_of, window_of

PICKUP = "pickup"
DROPOFF = "dropoff"
DIRECT = "direct"


@dataclass(frozen=True)
class Route:
    """A materialized shuttle route.

    commodities is the service order; xi holds the per-commodity elapsed
    minutes; arcs the traversed node pairs; cost blends distance cost and
    rider minutes with the alpha weight.
    """

    kind: str
    commodities: tuple[Commodity, ...]
    hub: str | None
    xi: tuple[float, ...]
    passengers: int
    arcs: tuple[tuple[str, str], ...]
    dist: float
    cost: float
    start_time: float
    duration: float

    @property
    def key(self) -> tuple:
        return (self.kind, self.hub, tuple(c.id for c in self.commodities))

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
    first: dict[str, tuple[str, ...]] = {}
    last: dict[str, tuple[str, ...]] = {}
    for c in inst.commodities:
        by_out = sorted(inst.hubs, key=lambda h: (inst.time(c.origin, h), h))
        by_in = sorted(inst.hubs, key=lambda h: (inst.time(h, c.destination), h))
        first[c.id] = tuple(by_out[: inst.routing.first_hub_count])
        last[c.id] = tuple(by_in[: inst.routing.last_hub_count])
    return HubSets(first=first, last=last)


def estimate_hub_arrival(r: Commodity, hub: str, hs: HubSets, inst: Instance) -> float:
    """Estimated time the riders of r reach `hub` on their way out: the
    departure time plus the mean, over r's eligible first hubs, of shuttle
    drive + bus wait + bus ride."""
    if hub not in inst.hubs:
        raise ValueError(f"'{hub}' is not a hub")
    firsts = hs.first[r.id]
    s = inst.cost.bus_wait
    total = sum(inst.time(r.origin, h) + s + inst.time(h, hub) for h in firsts)
    return r.depart + total / len(firsts)


def _blend(inst: Instance, dist: float, rider_minutes: float) -> float:
    a = inst.cost.alpha
    return (1.0 - a) * inst.cost.shuttle_cost_per_km * dist + a * rider_minutes


def materialize_pickup(seq: Sequence[Commodity], hub: str, inst: Instance) -> Route:
    if not seq:
        raise ValueError("pickup route needs at least one commodity")
    dep = seq[0].depart
    loc = seq[0].origin
    dist = 0.0
    arcs: list[tuple[str, str]] = []
    for c in seq[1:]:
        arrival = dep + inst.time(loc, c.origin)
        if loc != c.origin:
            arcs.append((loc, c.origin))
            dist += inst.dist(loc, c.origin)
        dep = max(arrival, c.depart)
        loc = c.origin
    hub_arrival = dep + inst.time(loc, hub)
    if loc != hub:
        arcs.append((loc, hub))
        dist += inst.dist(loc, hub)
    xi = tuple(hub_arrival - c.depart for c in seq)
    rider_minutes = sum(c.passengers * x for c, x in zip(seq, xi))
    return Route(
        kind=PICKUP,
        commodities=tuple(seq),
        hub=hub,
        xi=xi,
        passengers=sum(c.passengers for c in seq),
        arcs=tuple(arcs),
        dist=dist,
        cost=_blend(inst, dist, rider_minutes),
        start_time=seq[0].depart,
        duration=xi[0],
    )


def materialize_dropoff(
    seq: Sequence[Commodity], hub: str, t1_map: Mapping[str, float], inst: Instance
) -> Route:
    """t1_map gives each commodity's estimated arrival time at `hub`."""
    if not seq:
        raise ValueError("dropoff route needs at least one commodity")
    start = max(t1_map[c.id] for c in seq)
    loc = hub
    drive = 0.0
    dist = 0.0
    arcs: list[tuple[str, str]] = []
    xi: list[float] = []
    for c in seq:
        drive += inst.time(loc, c.destination)
        if loc != c.destination:
            arcs.append((loc, c.destination))
            dist += inst.dist(loc, c.destination)
        loc = c.destination
        xi.append((start - t1_map[c.id]) + drive)
    rider_minutes = sum(c.passengers * x for c, x in zip(seq, xi))
    return Route(
        kind=DROPOFF,
        commodities=tuple(seq),
        hub=hub,
        xi=tuple(xi),
        passengers=sum(c.passengers for c in seq),
        arcs=tuple(arcs),
        dist=dist,
        cost=_blend(inst, dist, rider_minutes),
        start_time=start,
        duration=drive,
    )


def materialize_direct(r: Commodity, inst: Instance) -> Route:
    t = inst.time(r.origin, r.destination)
    return Route(
        kind=DIRECT,
        commodities=(r,),
        hub=None,
        xi=(t,),
        passengers=r.passengers,
        arcs=((r.origin, r.destination),),
        dist=inst.dist(r.origin, r.destination),
        cost=direct_cost(r, inst),
        start_time=r.depart,
        duration=t,
    )


def direct_cost(r: Commodity, inst: Instance) -> float:
    """Cost of serving r with its own origin-to-destination shuttle ride."""
    a = inst.cost.alpha
    d = inst.dist(r.origin, r.destination)
    t = inst.time(r.origin, r.destination)
    return r.passengers * ((1.0 - a) * inst.cost.shuttle_cost_per_km * d + a * t)


def route_cost(route: Route, inst: Instance) -> float:
    """Recompute a route's cost from its fields (independent of the cached value)."""
    if route.kind == DIRECT:
        return direct_cost(route.commodities[0], inst)
    rider_minutes = sum(c.passengers * x for c, x in zip(route.commodities, route.xi))
    return _blend(inst, route.dist, rider_minutes)


def _dropoff_t1_values(route: Route, inst: Instance) -> list[float]:
    """Recover the hub-arrival estimates baked into a dropoff route."""
    drive = 0.0
    loc = route.hub
    t1s = []
    for c, x in zip(route.commodities, route.xi):
        drive += inst.time(loc, c.destination)
        loc = c.destination
        t1s.append(route.start_time - (x - drive))
    return t1s


def feasible(route: Route, inst: Instance, hs: HubSets | None = None) -> bool:
    """Check the practical-interest conditions: eligible hub and bounded
    detour for every commodity, capacity, and a shared consolidation window
    (departure times for pickups, hub-arrival estimates for dropoffs).
    Direct routes are always feasible."""
    if route.kind == DIRECT:
        return True
    if hs is None:
        hs = compute_hub_sets(inst)
    if route.passengers > inst.routing.shuttle_capacity:
        return False
    delta = inst.routing.duration_threshold
    if route.kind == PICKUP:
        for c, x in zip(route.commodities, route.xi):
            if route.hub not in hs.first[c.id]:
                return False
            if x > (1.0 + delta) * inst.time(c.origin, route.hub) + EPS:
                return False
        buckets = {bucket_of(c.depart, inst) for c in route.commodities}
        return len(buckets) == 1
    if route.kind == DROPOFF:
        for c, x in zip(route.commodities, route.xi):
            if route.hub not in hs.last[c.id]:
                return False
            if x > (1.0 + delta) * inst.time(route.hub, c.destination) + EPS:
                return False
        windows = {window_of(t1, inst) for t1 in _dropoff_t1_values(route, inst)}
        return len(windows) == 1
    raise ValueError(f"unknown route kind {route.kind!r}")


# -- enumeration -------------------------------------------------------------


def _better(cost: float, ids: tuple[str, ...], best: tuple[float, tuple[str, ...]]) -> bool:
    if cost < best[0] - EPS:
        return True
    return abs(cost - best[0]) <= EPS and ids < best[1]


def _enumerate(
    inst: Instance,
    hubs_of: Mapping[str, tuple[str, ...]],
    group_of: Callable[[Commodity, str], int],
    start: Callable[[Commodity, str], tuple],
    step: Callable[[str, Commodity, Commodity, tuple], tuple | None],
    materialize: Callable[[Sequence[Commodity], str], Route],
) -> dict[str, list[Route]]:
    """The search shared by both route kinds.

    Commodities are grouped once per (hub, window), in instance order. Every
    commodity gets its individual route to each eligible hub, in hub order;
    shared sequences starting with it extend only within its group. `start`
    gives the timing state of a one-stop sequence at a hub, and `step` the
    state after appending a stop, or None when that breaks a detour bound.
    Per (hub, commodity set) the cheapest order is kept, and shared routes
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
            nstate = step(hub, seq[-1], c, state)
            if nstate is None:
                continue  # some rider already over its detour bound
            nseq = seq + (c,)
            nids = ids + (c.id,)
            route = materialize(nseq, hub)
            key = (hub, frozenset(nids))
            prev = best.get(key)
            if prev is None or _better(route.cost, nids, (prev.cost, tuple(x.id for x in prev.commodities))):
                best[key] = route
            if pax + c.passengers < cap:
                extend(hub, pool, nseq, nids, pax + c.passengers, nstate)

    for r1, hub, pool in firsts:
        omega[r1.id].append(materialize((r1,), hub))
        extend(hub, pool, (r1,), (r1.id,), r1.passengers, start(r1, hub))
    for key in sorted(best, key=lambda k: (k[0], tuple(sorted(k[1])))):
        route = best[key]
        for c in route.commodities:
            omega[c.id].append(route)
    return omega


def enumerate_pickup_routes(inst: Instance, hs: HubSets) -> dict[str, list[Route]]:
    """All practically feasible pickup routes, as a map commodity id -> routes
    serving it. Shared route objects are the same instance in every member's
    list. Riders share when they depart in the same bucket; the shuttle waits
    for late riders, and each rider's hub arrival must meet its detour bound."""
    delta = inst.routing.duration_threshold
    bucket = {c.id: bucket_of(c.depart, inst) for c in inst.commodities}

    def start(r1: Commodity, hub: str) -> tuple:
        return r1.depart, r1.depart + (1.0 + delta) * inst.time(r1.origin, hub)

    def step(hub: str, last: Commodity, c: Commodity, state: tuple) -> tuple | None:
        dep, deadline = state
        ndep = max(dep + inst.time(last.origin, c.origin), c.depart)
        ndeadline = min(deadline, c.depart + (1.0 + delta) * inst.time(c.origin, hub))
        if ndep + inst.time(c.origin, hub) > ndeadline + EPS:
            return None
        return ndep, ndeadline

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
    delta = inst.routing.duration_threshold
    t1: dict[str, dict[str, float]] = {hub: {} for hub in inst.hubs}
    for (cid, hub), val in arrival_estimates(inst, hs, t1_offsets).items():
        t1[hub][cid] = val

    def start(r1: Commodity, hub: str) -> tuple:
        d0 = inst.time(hub, r1.destination)
        return t1[hub][r1.id], d0, t1[hub][r1.id] + (1.0 + delta) * d0 - d0

    def step(hub: str, last: Commodity, c: Commodity, state: tuple) -> tuple | None:
        leave, drive, bound = state
        nleave = max(leave, t1[hub][c.id])
        ndrive = drive + inst.time(last.destination, c.destination)
        nbound = min(bound, t1[hub][c.id] + (1.0 + delta) * inst.time(hub, c.destination) - ndrive)
        if nleave > nbound + EPS:
            return None
        return nleave, ndrive, nbound

    return _enumerate(
        inst,
        hs.last,
        lambda c, hub: window_of(t1[hub][c.id], inst),
        start,
        step,
        lambda seq, hub: materialize_dropoff(seq, hub, t1[hub], inst),
    )


# -- serialization -----------------------------------------------------------


def route_to_dict(route: Route) -> dict:
    return {
        "kind": route.kind,
        "hub": route.hub,
        "commodities": [c.id for c in route.commodities],
        "xi": list(route.xi),
        "passengers": route.passengers,
        "arcs": [list(a) for a in route.arcs],
        "dist": route.dist,
        "cost": route.cost,
        "start_time": route.start_time,
        "duration": route.duration,
    }


def route_from_dict(data: dict, inst: Instance) -> Route:
    return Route(
        kind=data["kind"],
        commodities=tuple(inst.commodity(cid) for cid in data["commodities"]),
        hub=data["hub"],
        xi=tuple(data["xi"]),
        passengers=data["passengers"],
        arcs=tuple((a, b) for a, b in data["arcs"]),
        dist=data["dist"],
        cost=data["cost"],
        start_time=data["start_time"],
        duration=data["duration"],
    )


def dump_routes(omega_minus: dict[str, list[Route]], omega_plus: dict[str, list[Route]], path: str) -> None:
    """Write one JSON object per line for every distinct route."""
    seen: dict[tuple, Route] = {}
    for omega in (omega_minus, omega_plus):
        for routes in omega.values():
            for r in routes:
                seen[r.key] = r
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(seen):
            fh.write(json.dumps(route_to_dict(seen[key]), sort_keys=True))
            fh.write("\n")


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
