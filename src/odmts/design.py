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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .instance import Commodity, Instance, InstanceFormatError
from .milp import EQUAL, GREATER_EQUAL, LESS_EQUAL, MilpModel, MilpSolution, OPTIMAL, solve_milp
from .routegen import DROPOFF, PICKUP, Route, direct_cost, route_from_dict, route_to_dict


class DesignError(RuntimeError):
    """Internal failure: the design model should never be infeasible."""


class ItineraryError(RuntimeError):
    """The solution's bus legs do not form a simple path for a commodity."""


def _check_line(h: str, l: str, inst: Instance) -> None:
    hubs = set(inst.hubs)
    if h not in hubs or l not in hubs:
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


@dataclass
class DesignSolution:
    opened_lines: tuple[tuple[str, str], ...]
    bus_legs: dict[str, tuple[tuple[str, str], ...]]
    selected_routes: tuple[Route, ...]
    direct: frozenset[str]
    objective: float
    breakdown: CostBreakdown

    def routes_of(self, cid: str, kind: str) -> list[Route]:
        return list(self._routes_by_member.get((cid, kind), ()))

    @cached_property
    def _routes_by_member(self) -> dict[tuple[str, str], list[Route]]:
        """(commodity id, kind) -> the selected routes serving it, in order."""
        index: dict[tuple[str, str], list[Route]] = {}
        for w in self.selected_routes:
            for cid in dict.fromkeys(c.id for c in w.commodities):
                index.setdefault((cid, w.kind), []).append(w)
        return index


@dataclass
class DesignModel:
    """The assembled model plus the variable bookkeeping needed to read it back."""

    model: MilpModel
    lines: list[tuple[str, str]]
    routes: dict[tuple, Route]
    z_idx: dict[tuple[str, str], int]
    y_idx: dict[tuple[str, str, str], int]
    x_idx: dict[tuple, int]
    eta_idx: dict[str, int]


def build_design_model(
    inst: Instance,
    omega_minus: dict[str, list[Route]],
    omega_plus: dict[str, list[Route]],
) -> DesignModel:
    """Assemble the design model from the enumerated route sets.

    Identical route objects appearing in several commodities' lists share a
    single x variable. Raises if a route references an unknown commodity or
    a hub outside the hub set.
    """
    known = {c.id for c in inst.commodities}
    hubs = set(inst.hubs)
    routes: dict[tuple, Route] = {}
    for omega, kind in ((omega_minus, PICKUP), (omega_plus, DROPOFF)):
        for cid, rlist in omega.items():
            if cid not in known:
                raise ValueError(f"route map references unknown commodity '{cid}'")
            for w in rlist:
                if w.kind != kind:
                    raise ValueError(f"route {w.key} has kind {w.kind!r}, expected {kind!r}")
                if w.hub not in hubs:
                    raise ValueError(f"route {w.key} references unknown hub '{w.hub}'")
                for c in w.commodities:
                    if c.id not in known:
                        raise ValueError(f"route {w.key} serves unknown commodity '{c.id}'")
                routes[w.key] = w

    model = MilpModel(name="design")
    lines = bus_lines(inst)
    comms = inst.commodities
    keys = sorted(routes)
    n_h, n_l, n_c = len(inst.hubs), len(lines), len(comms)

    z = model.add_vars([f"z[{h},{l}]" for h, l in lines], 0, 1, integer=True)
    y = model.add_vars(
        [f"y[{c.id},{h},{l}]" for c in comms for h, l in lines], 0, 1, integer=True
    ).reshape(n_c, n_l)
    x = model.add_vars([f"x[{k[0]},{k[1]},{'|'.join(k[2])}]" for k in keys], 0, 1, integer=True)
    eta = model.add_vars([f"eta[{c.id}]" for c in comms], 0, 1, integer=True)
    z_idx = dict(zip(lines, z.tolist()))
    y_idx = dict(zip(((c.id, h, l) for c in comms for h, l in lines), y.ravel().tolist()))
    x_idx = dict(zip(keys, x.tolist()))
    eta_idx = dict(zip((c.id for c in comms), eta.tolist()))

    # line_use_cost for every (commodity, line) pair, in the same float order.
    hub_pos = {h: k for k, h in enumerate(inst.hubs)}
    tail = np.array([hub_pos[h] for h, _ in lines], dtype=np.int64)
    head = np.array([hub_pos[l] for _, l in lines], dtype=np.int64)
    node = np.array([inst.node_index(h) for h in inst.hubs], dtype=np.int64)
    ride = np.asarray(inst.travel_time, dtype=float)[node[tail], node[head]]
    passengers = np.array([c.passengers for c in comms], dtype=float)
    cost = np.empty(len(model.var_names))
    cost[z] = [line_open_cost(*hl, inst) for hl in lines]
    cost[y] = (passengers * inst.cost.alpha)[:, None] * (ride + inst.cost.bus_wait)[None, :]
    cost[x] = [routes[key].cost for key in keys]
    cost[eta] = [direct_cost(c, inst) for c in comms]
    model.set_objective(dict(enumerate(cost.tolist())))

    def add_block(rows, cols, vals, n_rows, sense, rhs, names) -> None:
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        a = sp.csr_array((vals, (rows, cols)), shape=(n_rows, len(model.var_names)))
        model.add_rows(a.indptr, a.indices, a.data, sense, rhs, names)

    # Per-hub balance of opened lines.
    ones = np.ones(n_l)
    add_block(
        np.concatenate([tail, head]), np.concatenate([z, z]), np.concatenate([ones, -ones]),
        n_h, EQUAL, 0.0, [f"balance[{h}]" for h in inst.hubs],
    )

    # Cover rows (pickup, dropoff per commodity) and the route terms of the
    # flow rows. A route listed twice counts once in a cover row and twice in
    # a flow row.
    cover_rows, cover_cols, flow_rows, flow_cols, flow_vals = [], [], [], [], []
    for ci, c in enumerate(comms):
        for side, (omega, sign) in enumerate(((omega_minus, 1.0), (omega_plus, -1.0))):
            members = omega.get(c.id, [])
            cols = list(dict.fromkeys([eta_idx[c.id]] + [x_idx[w.key] for w in members]))
            cover_rows += [2 * ci + side] * len(cols)
            cover_cols += cols
            flow_rows += [ci * n_h + hub_pos[w.hub] for w in members]
            flow_cols += [x_idx[w.key] for w in members]
            flow_vals += [sign] * len(members)
    add_block(
        cover_rows, cover_cols, np.ones(len(cover_cols)), 2 * n_c, GREATER_EQUAL, 1.0,
        [f"cover_{side}[{c.id}]" for c in comms for side in "pd"],
    )

    # Bus legs only on opened lines: y[c, h, l] - z[h, l] <= 0.
    model.add_rows(
        np.arange(0, 2 * y.size + 1, 2),
        np.column_stack([np.tile(z, n_c), y.ravel()]).ravel(),
        np.tile([-1.0, 1.0], y.size),
        LESS_EQUAL,
        0.0,
        [f"open[{c.id},{h},{l}]" for c in comms for h, l in lines],
    )

    # Hub flow conservation per commodity: bus arrivals plus pickup-route
    # drop-offs equal bus departures plus dropoff-route starts.
    base = (np.arange(n_c) * n_h)[:, None]
    add_block(
        np.concatenate([(base + head).ravel(), (base + tail).ravel(), flow_rows]),
        np.concatenate([y.ravel(), y.ravel(), flow_cols]),
        np.concatenate([np.ones(y.size), -np.ones(y.size), flow_vals]),
        n_c * n_h, EQUAL, 0.0, [f"flow[{c.id},{h}]" for c in comms for h in inst.hubs],
    )

    return DesignModel(
        model=model,
        lines=lines,
        routes=routes,
        z_idx=z_idx,
        y_idx=y_idx,
        x_idx=x_idx,
        eta_idx=eta_idx,
    )


def _extract(dm: DesignModel, sol: MilpSolution, inst: Instance) -> DesignSolution:
    def on(name: str) -> bool:
        return sol.values[name] > 0.5

    names = dm.model.var_names
    opened = tuple(hl for hl in dm.lines if on(names[dm.z_idx[hl]]))
    bus_legs = {
        c.id: tuple(hl for hl in dm.lines if on(names[dm.y_idx[(c.id, *hl)]]))
        for c in inst.commodities
    }
    selected = tuple(dm.routes[key] for key in sorted(dm.routes) if on(names[dm.x_idx[key]]))
    direct = frozenset(c.id for c in inst.commodities if on(names[dm.eta_idx[c.id]]))

    breakdown = CostBreakdown(
        bus_fixed=sum(line_open_cost(*hl, inst) for hl in opened),
        route_cost=sum(w.cost for w in selected),
        direct_cost=sum(direct_cost(c, inst) for c in inst.commodities if c.id in direct),
        bus_inconvenience=sum(
            line_use_cost(c, h, l, inst) for c in inst.commodities for (h, l) in bus_legs[c.id]
        ),
    )
    return DesignSolution(
        opened_lines=opened,
        bus_legs=bus_legs,
        selected_routes=selected,
        direct=direct,
        objective=breakdown.total(),
        breakdown=breakdown,
    )


def solve_design(
    inst: Instance,
    omega_minus: dict[str, list[Route]],
    omega_plus: dict[str, list[Route]],
) -> DesignSolution:
    """Build the design model and solve it with `solve_design_model`."""
    return solve_design_model(build_design_model(inst, omega_minus, omega_plus), inst)


def solve_design_model(dm: DesignModel, inst: Instance) -> DesignSolution:
    """Solve an assembled design model to proven optimality.

    With alpha = 0 bus legs are free and optimal y flows can contain
    cost-neutral cycles; a second lexicographic pass then minimizes the
    number of bus legs at unchanged cost so itineraries stay extractable.
    """
    sol = solve_milp(dm.model)
    if sol.status != OPTIMAL:
        raise DesignError(
            f"design model unexpectedly {sol.status}; every commodity has a direct option"
        )
    solver_objective = sol.objective
    if inst.cost.alpha == 0.0 and inst.commodities:
        sol = _lexicographic_min_legs(dm, sol)
    extracted = _extract(dm, sol, inst)
    tol = 1e-6 * max(1.0, abs(solver_objective))
    if abs(extracted.objective - solver_objective) > tol:
        raise DesignError(
            f"cost breakdown {extracted.objective} does not match solver objective {solver_objective}"
        )
    _assert_solution(extracted, inst, sol)
    return extracted


def _lexicographic_min_legs(dm: DesignModel, first: MilpSolution) -> MilpSolution:
    cap = first.objective + 1e-9 * max(1.0, abs(first.objective))
    tie = dm.model.copy("design-tiebreak")
    tie.add_constraint(dm.model.objective, LESS_EQUAL, cap, name="objective-cap")
    tie.set_objective(dict.fromkeys(dm.y_idx.values(), 1.0))
    sol = solve_milp(tie)
    if sol.status != OPTIMAL:
        raise DesignError("tie-break pass unexpectedly failed")
    return sol


def _assert_solution(ds: DesignSolution, inst: Instance, sol: MilpSolution) -> None:
    for h in inst.hubs:
        outs = sum(1 for (a, b) in ds.opened_lines if a == h)
        ins = sum(1 for (a, b) in ds.opened_lines if b == h)
        if outs != ins:
            raise DesignError(f"degree balance violated at hub {h}: {outs} out vs {ins} in")
    opened = set(ds.opened_lines)
    for c in inst.commodities:
        covered = ds.routes_of(c.id, PICKUP) and ds.routes_of(c.id, DROPOFF)
        if c.id not in ds.direct and not covered:
            raise DesignError(f"commodity {c.id} is not covered on both trip ends")
        for leg in ds.bus_legs[c.id]:
            if leg not in opened:
                raise DesignError(f"commodity {c.id} uses unopened line {leg}")


def commodity_itinerary(ds: DesignSolution, cid: str, inst: Instance) -> list["ItineraryLeg"]:
    """Ordered legs for one commodity: [direct] or pickup, bus..., dropoff.

    Raises ItineraryError when the solution's bus legs do not form a simple
    path between the pickup and dropoff hubs (a degenerate optimum)."""
    if cid in ds.direct:
        return [ItineraryLeg("direct", None, None)]
    pickups = ds.routes_of(cid, PICKUP)
    dropoffs = ds.routes_of(cid, DROPOFF)
    if len(pickups) != 1 or len(dropoffs) != 1:
        raise ItineraryError(
            f"commodity {cid} has {len(pickups)} pickup and {len(dropoffs)} dropoff routes selected"
        )
    pickup, dropoff = pickups[0], dropoffs[0]
    legs = list(ds.bus_legs.get(cid, ()))
    nxt: dict[str, str] = {}
    for h, l in legs:
        if h in nxt:
            raise ItineraryError(f"commodity {cid} bus legs branch at hub {h}")
        nxt[h] = l
    path: list[ItineraryLeg] = [ItineraryLeg("pickup", None, pickup)]
    cur = pickup.hub
    hops = 0
    while cur != dropoff.hub or hops < len(legs):
        if cur not in nxt:
            raise ItineraryError(
                f"commodity {cid} bus legs do not reach the dropoff hub {dropoff.hub}"
            )
        path.append(ItineraryLeg("bus", (cur, nxt[cur]), None))
        cur = nxt.pop(cur)
        hops += 1
        if hops > len(legs):
            raise ItineraryError(f"commodity {cid} bus legs contain a cycle")
    if nxt:
        raise ItineraryError(f"commodity {cid} has unused bus legs {sorted(nxt.items())}")
    path.append(ItineraryLeg("dropoff", None, dropoff))
    return path


@dataclass(frozen=True)
class ItineraryLeg:
    kind: str  # "direct" | "pickup" | "bus" | "dropoff"
    line: tuple[str, str] | None
    route: Route | None


def rider_minutes(ds: DesignSolution, cid: str, inst: Instance) -> float:
    """End-to-end minutes for one rider of the commodity, summing shuttle
    elapsed times and per-bus-leg wait + ride."""
    c = inst.commodity(cid)
    total = 0.0
    for leg in commodity_itinerary(ds, cid, inst):
        if leg.kind == "direct":
            total += inst.time(c.origin, c.destination)
        elif leg.kind == "bus":
            h, l = leg.line
            total += inst.time(h, l) + inst.cost.bus_wait
        else:
            total += leg.route.xi_of(cid)
    return total


# -- serialization -----------------------------------------------------------


def solution_to_dict(ds: DesignSolution) -> dict:
    return {
        "opened_lines": [list(hl) for hl in ds.opened_lines],
        "bus_legs": {cid: [list(hl) for hl in legs] for cid, legs in ds.bus_legs.items()},
        "selected_routes": [route_to_dict(w) for w in ds.selected_routes],
        "direct": sorted(ds.direct),
        "objective": ds.objective,
        "breakdown": {
            "bus_fixed": ds.breakdown.bus_fixed,
            "route_cost": ds.breakdown.route_cost,
            "direct_cost": ds.breakdown.direct_cost,
            "bus_inconvenience": ds.breakdown.bus_inconvenience,
        },
    }


def solution_from_dict(data: dict, inst: Instance) -> DesignSolution:
    breakdown = CostBreakdown(**data["breakdown"])
    return DesignSolution(
        opened_lines=tuple((a, b) for a, b in data["opened_lines"]),
        bus_legs={cid: tuple((a, b) for a, b in legs) for cid, legs in data["bus_legs"].items()},
        selected_routes=tuple(route_from_dict(d, inst) for d in data["selected_routes"]),
        direct=frozenset(data["direct"]),
        objective=data["objective"],
        breakdown=breakdown,
    )


def save_solution(ds: DesignSolution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(path: str, inst: Instance) -> DesignSolution:
    """Read a saved design solution; a file that is not one for `inst`
    raises InstanceFormatError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return solution_from_dict(json.load(fh), inst)
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"{path}: not a design solution: {exc!r}") from exc
