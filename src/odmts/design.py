"""Network design: which bus lines to open and how each commodity travels.

The model selects, at minimum blended cost, a set of hub-to-hub bus lines
(respecting per-hub in/out degree balance), and for every commodity either a
direct shuttle ride or a combination of one pickup route, a chain of bus
legs, and one dropoff route. Selected shared routes pull in every commodity
they contain, which hub-level flow conservation then forces to continue by
bus or dropoff route.

Decision variables (all binary): z per candidate line, y per commodity and
line, x per distinct shuttle route, eta per commodity (direct flag). A
route's cost enters the objective once, no matter how many commodities it
serves.

The MIP is solved in integrality rounds. Its gap comes from the
fixed-charge line variables z; once they are integral, the rest of an
optimal solution almost always is too. So round 1 solves the model with
only z integer, and each later round also makes integer the columns that
came out fractional, until a round returns an integral solution. That
solution is feasible for the full MIP and optimal for a relaxation of it,
so it is a proven optimum of the full MIP, at the same 1e-9 gap. It can be
a different cost-equal optimum from the one a single solve of the full MIP
returns. Each commodity's bus legs are then read as its hop path from the
pickup hub to the dropoff hub; with alpha = 0 legs are free, and
cost-neutral cycles off that path are dropped. A solved design and a loaded
design.json pass one check, `_checked_design`, which builds every
`DesignSolution` with each rider's trip and recomputes its cost; that cost
must match the solver's objective, or the one the file states.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .instance import Commodity, Instance, InstanceFormatError, _number, _record, _string, _typed, record_dict
from .milp import EQUAL, GREATER_EQUAL, INT_TOL, LESS_EQUAL, OPTIMAL, MilpModel, MilpSolution, Names, solve_milp
from .routegen import DROPOFF, PICKUP, Route, direct_cost, route_from_dict, route_to_dict


_MEMBER = str.maketrans({"\\": "\\\\", "|": "\\|"})  # escapes a commodity id in an x name


class DesignError(RuntimeError):
    """A design that is not feasible or whose cost does not add up; for a
    solved model, an internal failure."""


class ItineraryError(DesignError):
    """The solution's bus legs do not form a simple path for a commodity."""


def _check_line(h: str, l: str, inst: Instance) -> None:
    if h not in inst.hubs or l not in inst.hubs:
        raise ValueError(f"({h}, {l}) is not a pair of hubs")
    if h == l:
        raise ValueError(f"bus line endpoints must differ, got ({h}, {l})")


def line_open_cost(h: str, l: str, inst: Instance) -> float:
    """Fixed cost of opening the bus line h -> l for the whole horizon."""
    _check_line(h, l, inst)
    cp = inst.cost
    return (1.0 - cp.alpha) * cp.bus_cost_per_km * cp.bus_trips_per_line * inst.dist(h, l)


def line_use_cost(r: Commodity, h: str, l: str, inst: Instance) -> float:
    """Inconvenience cost of commodity r riding the line h -> l (wait + ride,
    per passenger, weighted by alpha)."""
    _check_line(h, l, inst)
    cp = inst.cost
    return r.passengers * cp.alpha * (inst.time(h, l) + cp.bus_wait)


def bus_lines(inst: Instance) -> list[tuple[str, str]]:
    """All ordered hub pairs eligible as bus lines."""
    return [(h, l) for h in inst.hubs for l in inst.hubs if h != l]


@dataclass
class CostBreakdown:
    bus_fixed: float
    route_cost: float
    direct_cost: float
    bus_inconvenience: float

    def total(self) -> float:
        return self.bus_fixed + self.route_cost + self.direct_cost + self.bus_inconvenience


@dataclass(frozen=True)
class DesignSolution:
    """A checked design; `trips` maps a commodity id to None if direct, else
    (pickup route, bus hops in path order, dropoff route). Only
    `_checked_design` builds one: a `dataclasses.replace` keeps stale trips."""

    opened_lines: tuple[tuple[str, str], ...]
    bus_legs: dict[str, tuple[tuple[str, str], ...]]
    selected_routes: tuple[Route, ...]
    direct: frozenset[str]
    objective: float
    breakdown: CostBreakdown
    trips: dict[str, tuple[Route, tuple[tuple[str, str], ...], Route] | None]


def _routes_by_member(routes) -> dict[tuple[str, str], list[Route]]:
    """(commodity id, kind) -> the routes serving it, in order."""
    index: dict[tuple[str, str], list[Route]] = {}
    for w in routes:
        for cid in dict.fromkeys(c.id for c in w.commodities):
            index.setdefault((cid, w.kind), []).append(w)
    return index


@dataclass
class DesignModel:
    """The assembled model and the column of each variable: z per line, y
    per commodity and line (a commodities x lines array), x per route in
    `routes` order and eta per commodity."""

    model: MilpModel
    lines: list[tuple[str, str]]
    routes: list[Route]
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray
    eta: np.ndarray


def build_design_model(
    inst: Instance,
    omega_minus: dict[str, list[Route]],
    omega_plus: dict[str, list[Route]],
) -> DesignModel:
    """Assemble the design model from the enumerated route sets.

    Identical route objects appearing in several commodities' lists share a
    single x variable. Raises if a route references an unknown commodity or
    a hub outside the hub set.

    Names are `Names` blocks over the commodity, hub and kind ids, such as
    y[<commodity>,<hub>,<hub>]. An x name x[<kind>,<hub>,<members>] joins
    the route's commodity ids with '|', each with '\\' and '|' escaped by
    a '\\', so that distinct routes have distinct names.
    """
    known = {c.id for c in inst.commodities}
    hubs = set(inst.hubs)
    routes: dict[tuple, Route] = {}
    for omega, kind in ((omega_minus, PICKUP), (omega_plus, DROPOFF)):
        for cid in omega:
            if cid not in known:
                raise ValueError(f"route map references unknown commodity '{cid}'")
        for w in {id(w): w for rlist in omega.values() for w in rlist}.values():  # each object once per map
            if w.kind != kind:
                raise ValueError(f"route {w.key} has kind {w.kind!r}, expected {kind!r}")
            if w.hub not in hubs:
                raise ValueError(f"route {w.key} references unknown hub '{w.hub}'")
            if not known.issuperset(w.key[2]):
                unknown = next(cid for cid in w.key[2] if cid not in known)
                raise ValueError(f"route {w.key} serves unknown commodity '{unknown}'")
            routes[w.key] = w

    model = MilpModel(name="design")
    lines = bus_lines(inst)
    comms = inst.commodities
    keys = sorted(routes)
    n_h, n_l, n_c = len(inst.hubs), len(lines), len(comms)

    hub_pos = {h: k for k, h in enumerate(inst.hubs)}
    tail = np.array([hub_pos[h] for h, _ in lines], dtype=np.int64)
    head = np.array([hub_pos[l] for _, l in lines], dtype=np.int64)
    cids = tuple(c.id for c in comms)
    pairs = Names(  # one name per (commodity, line) pair
        "y[{},{},{}]",
        (cids, np.repeat(np.arange(n_c), n_l)), (inst.hubs, np.tile(tail, n_c)), (inst.hubs, np.tile(head, n_c)),
    )
    c_pos = {cid: k for k, cid in enumerate(cids)}
    members = np.full((len(keys), max((len(k[2]) for k in keys), default=0)), -1)
    for r, key in enumerate(keys):
        members[r, :len(key[2])] = [c_pos[cid] for cid in key[2]]
    escaped = tuple(cid.translate(_MEMBER) if "\\" in cid or "|" in cid else cid for cid in cids)

    z = model.add_vars(Names("z[{},{}]", (inst.hubs, tail), (inst.hubs, head)), 0, 1, integer=True)
    y = model.add_vars(pairs, 0, 1, integer=True).reshape(n_c, n_l)
    x = model.add_vars(
        Names(
            "x[{},{},{}]",
            ((PICKUP, DROPOFF), [(PICKUP, DROPOFF).index(k[0]) for k in keys]),
            (inst.hubs, [hub_pos[k[1]] for k in keys]),
            (escaped, members),
        ),
        0, 1, integer=True,
    )
    eta = model.add_vars(Names("eta[{}]", (cids, np.arange(n_c))), 0, 1, integer=True)
    x_of = dict(zip(keys, x.tolist()))

    # line_use_cost for every (commodity, line) pair, in the same float order.
    node = np.array([inst.node_index(h) for h in inst.hubs], dtype=np.int64)
    ride = np.asarray(inst.travel_time, dtype=float)[node[tail], node[head]]
    passengers = np.array([c.passengers for c in comms], dtype=float)
    cost = np.empty(model.n_vars)
    cost[z] = [line_open_cost(*hl, inst) for hl in lines]
    cost[y] = (passengers * inst.cost.alpha)[:, None] * (ride + inst.cost.bus_wait)[None, :]
    cost[x] = [routes[key].cost for key in keys]
    cost[eta] = [direct_cost(c, inst) for c in comms]
    model.set_objective(np.arange(cost.size), cost)

    # Per-hub balance of opened lines.
    ones = np.ones(n_l)
    model.add_rows(
        np.concatenate([tail, head]), np.concatenate([z, z]), np.concatenate([ones, -ones]),
        EQUAL, 0.0, Names("balance[{}]", (inst.hubs, np.arange(n_h))),
    )

    # Cover rows (pickup, dropoff per commodity) and the route terms of the
    # flow rows. A route listed twice counts once in a cover row and twice in
    # a flow row.
    cover_rows, cover_cols, flow_rows, flow_cols, flow_vals = [], [], [], [], []
    for ci, (c, eta_col) in enumerate(zip(comms, eta.tolist())):
        for side, (omega, sign) in enumerate(((omega_minus, 1.0), (omega_plus, -1.0))):
            members = omega.get(c.id, [])
            cols = [x_of[w.key] for w in members]
            cover = dict.fromkeys([eta_col, *cols])
            cover_rows += [2 * ci + side] * len(cover)
            cover_cols += cover
            flow_rows += [ci * n_h + hub_pos[w.hub] for w in members]
            flow_cols += cols
            flow_vals += [sign] * len(members)
    model.add_rows(
        cover_rows, cover_cols, np.ones(len(cover_cols)), GREATER_EQUAL, 1.0,
        Names("cover_{}[{}]", ("pd", np.tile([0, 1], n_c)), (cids, np.repeat(np.arange(n_c), 2))),
    )

    # Bus legs only on opened lines: y[c, h, l] - z[h, l] <= 0.
    model.add_rows(
        np.repeat(np.arange(y.size), 2),
        np.column_stack([np.tile(z, n_c), y.ravel()]).ravel(),
        np.tile([-1.0, 1.0], y.size),
        LESS_EQUAL,
        0.0,
        Names("open[{},{},{}]", *pairs.fields),
    )

    # Hub flow conservation per commodity: bus arrivals plus pickup-route
    # drop-offs equal bus departures plus dropoff-route starts.
    base = (np.arange(n_c) * n_h)[:, None]
    model.add_rows(
        np.concatenate([(base + head).ravel(), (base + tail).ravel(), flow_rows]),
        np.concatenate([y.ravel(), y.ravel(), flow_cols]),
        np.concatenate([np.ones(y.size), -np.ones(y.size), flow_vals]),
        EQUAL, 0.0,
        Names("flow[{},{}]", (cids, np.repeat(np.arange(n_c), n_h)), (inst.hubs, np.tile(np.arange(n_h), n_c))),
    )

    return DesignModel(model, lines, [routes[key] for key in keys], z, y, x, eta)


def _extract(dm: DesignModel, sol: MilpSolution, inst: Instance) -> DesignSolution:
    """Read the solution off the model's columns; `inst` is the instance the
    model was built from. A direct rider keeps no bus legs, and any other
    only those on its `_hop_path`, in line order. `_checked_design` then
    checks the design, which `_trip` reads the same way, and its cost must
    match the solver's objective (else DesignError): that shows the dropped
    legs, cost-neutral cycles at alpha = 0, cost nothing."""
    on = sol.x > 0.5
    opened = tuple(hl for hl, o in zip(dm.lines, on[dm.z].tolist()) if o)
    selected = tuple(w for w, o in zip(dm.routes, on[dm.x].tolist()) if o)
    direct = frozenset(c.id for c, o in zip(inst.commodities, on[dm.eta].tolist()) if o)
    routes_of = _routes_by_member(selected)
    bus_legs: dict[str, tuple[tuple[str, str], ...]] = {}
    for c, row in zip(inst.commodities, on[dm.y].tolist()):
        legs = () if c.id in direct else tuple(hl for hl, o in zip(dm.lines, row) if o)
        path = _hop_path(c.id, routes_of, legs)[1] if legs else ()
        bus_legs[c.id] = tuple(leg for leg in legs if leg in path)
    ds = _checked_design(inst, opened, bus_legs, selected, direct)
    if not _close(ds.objective, sol.objective):
        raise DesignError(f"cost breakdown {ds.objective} does not match solver objective {sol.objective}")
    return ds


def _close(value: float, reference: float) -> bool:
    """`value` equals `reference` to 1e-6, relative when |reference| > 1."""
    return abs(value - reference) <= 1e-6 * max(1.0, abs(reference))


def _checked_design(inst: Instance, opened, bus_legs, selected, direct) -> DesignSolution:
    """The design of `inst` with these opened lines, bus legs by commodity,
    selected routes and direct riders, once the lines balance at every hub,
    no line is opened twice, every leg is on an opened line, every direct
    rider has no selected route and no bus leg, and every other rider has
    one trip, one pickup route, bus legs that are exactly a `_leg_path` and
    one dropoff route; else DesignError. Its cost is summed
    lines as given, routes in selection order, commodities in instance order."""
    for hl, k in Counter(opened).items():
        if k > 1:
            raise DesignError(f"line {hl} is opened {k} times")
    outs, ins = Counter(h for h, _ in opened), Counter(l for _, l in opened)
    for h in inst.hubs:
        if outs[h] != ins[h]:
            raise DesignError(f"degree balance violated at hub {h}: {outs[h]} out vs {ins[h]} in")
    is_open = set(opened)
    for c in inst.commodities:
        for leg in bus_legs[c.id]:
            if leg not in is_open:
                raise DesignError(f"commodity {c.id} uses unopened line {leg}")
    breakdown = CostBreakdown(
        bus_fixed=sum(line_open_cost(*hl, inst) for hl in opened),
        route_cost=sum(w.cost for w in selected),
        direct_cost=sum(direct_cost(c, inst) for c in inst.commodities if c.id in direct),
        bus_inconvenience=sum(line_use_cost(c, *hl, inst) for c in inst.commodities for hl in bus_legs[c.id]),
    )
    routes_of = _routes_by_member(selected)
    for c in inst.commodities:
        if c.id in direct and (bus_legs[c.id] or (c.id, PICKUP) in routes_of or (c.id, DROPOFF) in routes_of):
            raise ItineraryError(f"commodity {c.id} is direct but has a selected route or a bus leg")
    trips = {c.id: None if c.id in direct else _trip(c.id, routes_of, bus_legs[c.id]) for c in inst.commodities}
    return DesignSolution(opened, bus_legs, selected, direct, breakdown.total(), breakdown, trips)


def _hop_path(cid: str, routes_of, legs) -> tuple[Route, list[tuple[str, str]], Route]:
    """Rider `cid`'s one pickup route, the `_leg_path` of `legs` from its hub
    to the hub of the rider's one dropoff route, and that route; else
    ItineraryError."""
    pickups, dropoffs = routes_of.get((cid, PICKUP), ()), routes_of.get((cid, DROPOFF), ())
    if len(pickups) != 1 or len(dropoffs) != 1:
        raise ItineraryError(f"commodity {cid} has {len(pickups)} pickup and {len(dropoffs)} dropoff routes selected")
    try:
        return pickups[0], _leg_path(legs, pickups[0].hub, dropoffs[0].hub), dropoffs[0]
    except ItineraryError as exc:
        raise ItineraryError(f"commodity {cid}: {exc}") from None


def _trip(cid: str, routes_of, legs) -> tuple[Route, tuple[tuple[str, str], ...], Route]:
    """The `_hop_path` of rider `cid`, whose `legs` must all lie on it."""
    pickup, hops, dropoff = _hop_path(cid, routes_of, legs)
    if len(hops) != len(legs):
        raise ItineraryError(f"commodity {cid} has bus legs off its path {hops}: {list(legs)}")
    return pickup, tuple(hops), dropoff


def solve_design(inst: Instance, omega_minus, omega_plus) -> DesignSolution:
    """Solve the model `build_design_model` makes of these route maps."""
    return solve_design_model(build_design_model(inst, omega_minus, omega_plus), inst)


def solve_design_model(dm: DesignModel, inst: Instance) -> DesignSolution:
    """Solve an assembled design model to proven optimality in the
    integrality rounds of `solve_in_rounds` (a cost-equal optimum may differ
    from the full MIP's) and read the design off with `_extract`."""
    sol, _ = solve_in_rounds(dm)
    if sol.status != OPTIMAL:
        raise DesignError(f"design solve ended {sol.status}, not optimal")
    return _extract(dm, sol, inst)


def solve_in_rounds(dm: DesignModel) -> tuple[MilpSolution, int]:
    """Solve the design MIP as a sequence of relaxations and return the
    solution with the number of rounds taken.

    Each round solves `dm.model` itself under an integrality mask, which
    leaves the model unchanged. Round 1 keeps only the z columns integer.
    Each later round also makes integer every column that came out
    fractional (|v - round(v)| > INT_TOL), so the loop ends by the full MIP
    at the latest. The solver checks every round's solution against the
    rows and the round's mask; the first round in which no other column is
    fractional is integral for the full model. A relaxation that is not
    solved to optimality ends the loop with its status."""
    full = dm.model.integer
    integer = np.zeros_like(full)
    integer[dm.z] = full[dm.z]
    rounds = 0
    while True:
        rounds += 1
        sol = solve_milp(dm.model, integer=integer)
        if sol.status != OPTIMAL:
            return sol, rounds
        frac = full & ~integer & (np.abs(sol.x - np.round(sol.x)) > INT_TOL)
        if not frac.any():
            return sol, rounds
        integer |= frac


def _leg_path(legs, start: str, end: str) -> list[tuple[str, str]]:
    """The fewest-hop path of `legs` from hub `start` to hub `end`, by a
    breadth-first search that takes each hub's successors in `legs` order
    (line order, in a solved or saved design); else ItineraryError."""
    succ: dict[str, list[str]] = {}
    for h, l in legs:
        succ.setdefault(h, []).append(l)
    path_to: dict[str, list[tuple[str, str]]] = {start: []}
    queue = deque([start])
    while queue and end not in path_to:
        h = queue.popleft()
        for l in succ.get(h, ()):
            if l not in path_to:
                path_to[l] = [*path_to[h], (h, l)]
                queue.append(l)
    if end not in path_to:
        raise ItineraryError(f"bus legs {list(legs)} do not reach the dropoff hub {end} from {start}")
    return path_to[end]


def rider_minutes(ds: DesignSolution, cid: str, inst: Instance) -> float:
    """End-to-end minutes for one rider of the commodity, read off its trip:
    the direct ride time, or the pickup route's elapsed time, then wait +
    ride per bus hop, then the dropoff route's elapsed time."""
    trip = ds.trips[cid]
    if trip is None:
        c = inst.commodity(cid)
        return inst.time(c.origin, c.destination)
    pickup, hops, dropoff = trip
    total = pickup.xi_of(cid)
    for hop in hops:
        total += inst.time(*hop) + inst.cost.bus_wait
    return total + dropoff.xi_of(cid)


# -- serialization -----------------------------------------------------------


def solution_to_dict(ds: DesignSolution) -> dict:
    return {
        "opened_lines": [list(hl) for hl in ds.opened_lines],
        "bus_legs": {cid: [list(hl) for hl in legs] for cid, legs in ds.bus_legs.items()},
        "selected_routes": [route_to_dict(w) for w in ds.selected_routes],
        "direct": sorted(ds.direct),
        "objective": ds.objective,
        "breakdown": record_dict(ds.breakdown),
    }


def _lines(val, inst: Instance, name: str) -> tuple[tuple[str, str], ...]:
    """The list `val` of [hub, hub] lists as line tuples; else ValueError."""
    for pair in _typed(val, list, "a list", name):
        if type(pair) is not list or len(pair) != 2 or not all(type(v) is str for v in pair):
            raise ValueError(f"field '{name}' holds {pair!r}, not a pair of hub ids")
        _check_line(*pair, inst)
    return tuple((a, b) for a, b in val)


def solution_from_dict(data: dict, inst: Instance) -> DesignSolution:
    """The solution of `solution_to_dict`, checked against `inst`: lines and
    bus legs must be lists of [hub, hub] lists of distinct hubs, `direct` a
    list of ids, ids commodities of `inst` and costs numbers, the design must
    pass `_checked_design`, and `objective` and each `breakdown` field must
    match the recomputed cost (`_close`), which the solution then carries;
    else KeyError, TypeError, ValueError or DesignError."""
    opened = _lines(data["opened_lines"], inst, "opened_lines")
    legs_of = _typed(data["bus_legs"], dict, "an object", "bus_legs")
    bus_legs = {cid: _lines(legs, inst, f"bus_legs.{cid}") for cid, legs in legs_of.items()}
    direct = frozenset(_string(cid, "direct") for cid in _typed(data["direct"], list, "a list", "direct"))
    unknown = (bus_legs.keys() | direct) - {c.id for c in inst.commodities}
    if unknown:
        raise ValueError(f"commodities {', '.join(sorted(map(repr, unknown)))} are not in the instance")
    selected = tuple(route_from_dict(d, inst) for d in data["selected_routes"])
    objective = _number(data, "objective", "")
    breakdown = _record(CostBreakdown, data["breakdown"], "breakdown.", {"float": _number})
    ds = _checked_design(inst, opened, bus_legs, selected, direct)
    for name, value, cost in [
        ("objective", objective, ds.objective),
        *((f"breakdown.{k}", v, getattr(ds.breakdown, k)) for k, v in record_dict(breakdown).items()),
    ]:
        if not _close(value, cost):
            raise ValueError(f"field '{name}' is {value!r}, but the design costs {cost!r}")
    return ds


def save_solution(ds: DesignSolution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(path: str, inst: Instance) -> DesignSolution:
    """Read a saved design solution through `solution_from_dict`: a feasible
    design of `inst`, every rider's trip included, whose written
    cost matches the recomputed one. A file that is not one raises
    InstanceFormatError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return solution_from_dict(json.load(fh), inst)
        except (KeyError, TypeError, ValueError, DesignError) as exc:
            raise InstanceFormatError(f"{path}: not a design solution: {exc!r}") from exc
