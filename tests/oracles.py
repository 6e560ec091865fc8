"""Independent brute-force oracles used only by the test suite.

The design oracle enumerates every degree-balanced set of opened lines and,
for each, every consistent way to cover the commodities (direct, or a
pickup route + simple bus path + dropoff route, with shared routes binding
all their members), taking the global minimum cost. It never touches the
MILP machinery.

`design_model_by_rows` is the reference for the bulk design-model
assembly: it adds the same variables and rows one at a time through
`MilpModel.add_var` and `MilpModel.add_constraint`.

`matrix_findings` is the reference for the matrix checks of `validate`:
plain loops over Python floats, every (i, k, j) triple tried.

`_compatibility` is the full compatibility mask the fleet stages read in
row blocks, assembled for the tests.

`path_cover_by_max_flow` is the second reference for `min_fleet_oracle`:
the same minimum path cover with the matching found as a unit-capacity
max flow (Dinic) instead of Hopcroft-Karp.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

from odmts.design import bus_lines, line_open_cost, line_use_cost
from odmts.fleet import _compatibility_blocks, _sorted_tasks
from odmts.instance import EPS
from odmts.milp import EQUAL, GREATER_EQUAL, LESS_EQUAL, MilpModel
from odmts.routegen import (
    DROPOFF,
    PICKUP,
    arrival_estimates,
    direct_cost,
    feasible,
    materialize_dropoff,
    materialize_pickup,
)


def _keep_cheapest(best, route, hub, seq):
    ids = tuple(c.id for c in seq)
    key = (hub, frozenset(ids))
    prev = best.get(key)
    if (
        prev is None
        or route.cost < prev.cost - 1e-9
        or (
            abs(route.cost - prev.cost) <= 1e-9
            and ids < tuple(c.id for c in prev.commodities)
        )
    ):
        best[key] = route


def brute_force_pickup(inst, hs):
    """All feasible pickup routes by full permutation scan: every hub, every
    ordered commodity sequence up to capacity, filtered by the feasibility
    conditions, cheapest per (hub, set); individual routes always included."""
    comms = list(inst.commodities)
    best = {}
    omega = {c.id: [] for c in comms}
    for c in comms:
        for hub in hs.first[c.id]:
            omega[c.id].append(materialize_pickup((c,), hub, inst))
    for hub in inst.hubs:
        for size in range(2, inst.routing.shuttle_capacity + 1):
            for seq in itertools.permutations(comms, size):
                route = materialize_pickup(seq, hub, inst)
                if feasible(route, inst, hs):
                    _keep_cheapest(best, route, hub, seq)
    for route in best.values():
        for c in route.commodities:
            omega[c.id].append(route)
    return omega


def brute_force_dropoff(inst, hs, t1_offsets=None):
    """Dropoff analogue of brute_force_pickup."""
    comms = list(inst.commodities)
    t1 = arrival_estimates(inst, hs, t1_offsets)
    best = {}
    omega = {c.id: [] for c in comms}
    for c in comms:
        for hub in hs.last[c.id]:
            omega[c.id].append(materialize_dropoff((c,), hub, {c.id: t1[(c.id, hub)]}, inst))
    for hub in inst.hubs:
        for size in range(2, inst.routing.shuttle_capacity + 1):
            for seq in itertools.permutations(comms, size):
                if any(hub not in hs.last[c.id] for c in seq):
                    continue
                t1_map = {c.id: t1[(c.id, hub)] for c in seq}
                route = materialize_dropoff(seq, hub, t1_map, inst)
                if feasible(route, inst, hs):
                    _keep_cheapest(best, route, hub, seq)
    for route in best.values():
        for c in route.commodities:
            omega[c.id].append(route)
    return omega


def balanced_line_sets(inst):
    """All subsets of candidate lines with per-hub in-degree == out-degree."""
    lines = bus_lines(inst)
    for mask in itertools.product((0, 1), repeat=len(lines)):
        opened = tuple(hl for hl, bit in zip(lines, mask) if bit)
        ok = True
        for h in inst.hubs:
            outs = sum(1 for a, _ in opened if a == h)
            ins = sum(1 for _, b in opened if b == h)
            if outs != ins:
                ok = False
                break
        if ok:
            yield opened


def simple_paths(opened, src, dst):
    """All simple hub paths src -> dst over the opened lines, as leg tuples.
    The empty path stands in when src == dst (a tour back to the start can
    never beat it on cost)."""
    if src == dst:
        return [()]
    adj = {}
    for a, b in opened:
        adj.setdefault(a, []).append(b)
    out = []

    def walk(cur, legs, seen):
        if cur == dst:
            out.append(tuple(legs))
            return
        for nxt in adj.get(cur, []):
            if nxt not in seen:
                walk(nxt, legs + [(cur, nxt)], seen | {nxt})

    walk(src, [], {src})
    return out


def design_oracle(inst, omega_minus, omega_plus):
    """Exhaustive minimum of the design problem; exact on small instances."""
    commodities = list(inst.commodities)
    by_key = {}
    for omega in (omega_minus, omega_plus):
        for routes in omega.values():
            for w in routes:
                by_key[w.key] = w
    membership = {
        key: tuple(c.id for c in w.commodities) for key, w in by_key.items()
    }
    coupled_ids = {
        cid for key, members in membership.items() if len(members) > 1 for cid in members
    }
    coupled = [c for c in commodities if c.id in coupled_ids]
    free = [c for c in commodities if c.id not in coupled_ids]

    best_total = math.inf
    for opened in balanced_line_sets(inst):
        z_cost = sum(line_open_cost(*hl, inst) for hl in opened)
        if z_cost >= best_total:
            continue
        paths = {}
        for a in inst.hubs:
            for b in inst.hubs:
                paths[(a, b)] = simple_paths(opened, a, b)

        def options(c, forced_p=None, forced_d=None):
            opts = []
            if forced_p is None and forced_d is None:
                opts.append(("direct", direct_cost(c, inst), None, None))
            pickups = [forced_p] if forced_p else omega_minus[c.id]
            dropoffs = [forced_d] if forced_d else omega_plus[c.id]
            for wp in pickups:
                for wd in dropoffs:
                    for path in paths[(wp.hub, wd.hub)]:
                        leg_cost = sum(line_use_cost(c, a, b, inst) for a, b in path)
                        opts.append(("ride", leg_cost, (wp, path), wd))
            return opts

        # Commodities never served by a shared route are independent.
        free_cost = 0.0
        feasible = True
        for c in free:
            opts = options(c)
            route_costs = []
            for kind, leg_cost, pickup, wd in opts:
                if kind == "direct":
                    route_costs.append(leg_cost)
                else:
                    wp, _ = pickup
                    route_costs.append(leg_cost + wp.cost + wd.cost)
            if not route_costs:
                feasible = False
                break
            free_cost += min(route_costs)
        if not feasible or z_cost + free_cost >= best_total:
            continue

        # Depth-first assignment of the coupled commodities with consistency:
        # selecting a shared route forces every member to ride it.
        assigned: dict[str, tuple] = {}
        selected: dict[tuple, int] = {}

        def forced_route(cid, kind):
            for key, count in selected.items():
                if count and key[0] == kind and cid in membership[key]:
                    return by_key[key]
            return None

        def consistent(w, cid, kind):
            for member in membership[w.key]:
                if member == cid:
                    continue
                if member in assigned:
                    leg = assigned[member][0 if kind == PICKUP else 1]
                    if leg != w.key:
                        return False
            return True

        best_completion = math.inf

        def dfs(i, cost_so_far):
            nonlocal best_completion
            if cost_so_far >= best_completion or z_cost + free_cost + cost_so_far >= best_total:
                return
            if i == len(coupled):
                best_completion = min(best_completion, cost_so_far)
                return
            c = coupled[i]
            fp = forced_route(c.id, PICKUP)
            fd = forced_route(c.id, DROPOFF)
            opts = options(c, fp, fd)
            opts.sort(key=lambda o: o[1])
            for kind, leg_cost, pickup, wd in opts:
                if kind == "direct":
                    if fp or fd:
                        continue
                    assigned[c.id] = ("direct", "direct")
                    dfs(i + 1, cost_so_far + leg_cost)
                    del assigned[c.id]
                    continue
                wp, path = pickup
                if not consistent(wp, c.id, PICKUP) or not consistent(wd, c.id, DROPOFF):
                    continue
                added = leg_cost
                for w in (wp, wd):
                    if selected.get(w.key, 0) == 0:
                        added += w.cost
                assigned[c.id] = (wp.key, wd.key)
                selected[wp.key] = selected.get(wp.key, 0) + 1
                selected[wd.key] = selected.get(wd.key, 0) + 1
                dfs(i + 1, cost_so_far + added)
                selected[wp.key] -= 1
                selected[wd.key] -= 1
                del assigned[c.id]

        dfs(0, 0.0)
        if best_completion < math.inf:
            best_total = min(best_total, z_cost + free_cost + best_completion)
    return best_total


def design_model_by_rows(inst, omega_minus, omega_plus):
    """The design model of `build_design_model`, one variable and one row
    per call, each row a dict summed term by term."""
    routes = {w.key: w for omega in (omega_minus, omega_plus) for ws in omega.values() for w in ws}
    model = MilpModel(name="design")
    lines = bus_lines(inst)
    z_idx = {hl: model.add_var(f"z[{hl[0]},{hl[1]}]", 0, 1, integer=True) for hl in lines}
    y_idx = {
        (c.id, h, l): model.add_var(f"y[{c.id},{h},{l}]", 0, 1, integer=True)
        for c in inst.commodities
        for (h, l) in lines
    }
    x_idx = {
        key: model.add_var(f"x[{key[0]},{key[1]},{'|'.join(key[2])}]", 0, 1, integer=True)
        for key in sorted(routes)
    }
    eta_idx = {c.id: model.add_var(f"eta[{c.id}]", 0, 1, integer=True) for c in inst.commodities}

    objective = {z_idx[hl]: line_open_cost(*hl, inst) for hl in lines}
    for key, w in routes.items():
        objective[x_idx[key]] = w.cost
    for c in inst.commodities:
        objective[eta_idx[c.id]] = direct_cost(c, inst)
        for (h, l) in lines:
            objective[y_idx[(c.id, h, l)]] = line_use_cost(c, h, l, inst)
    model.set_objective(list(objective), list(objective.values()))

    for h in inst.hubs:
        row = {}
        for l in inst.hubs:
            if l != h:
                row[z_idx[(h, l)]] = row.get(z_idx[(h, l)], 0.0) + 1.0
                row[z_idx[(l, h)]] = row.get(z_idx[(l, h)], 0.0) - 1.0
        model.add_constraint(row, EQUAL, 0.0, name=f"balance[{h}]")
    for c in inst.commodities:
        for tag, omega in (("p", omega_minus), ("d", omega_plus)):
            row = {eta_idx[c.id]: 1.0}
            for w in omega.get(c.id, []):
                row[x_idx[w.key]] = 1.0
            model.add_constraint(row, GREATER_EQUAL, 1.0, name=f"cover_{tag}[{c.id}]")
    for c in inst.commodities:
        for hl in lines:
            model.add_constraint(
                {y_idx[(c.id, *hl)]: 1.0, z_idx[hl]: -1.0}, LESS_EQUAL, 0.0,
                name=f"open[{c.id},{hl[0]},{hl[1]}]",
            )
    for c in inst.commodities:
        for h in inst.hubs:
            row = {}
            for l in inst.hubs:
                if l != h:
                    row[y_idx[(c.id, l, h)]] = row.get(y_idx[(c.id, l, h)], 0.0) + 1.0
                    row[y_idx[(c.id, h, l)]] = row.get(y_idx[(c.id, h, l)], 0.0) - 1.0
            for omega, sign in ((omega_minus, 1.0), (omega_plus, -1.0)):
                for w in omega.get(c.id, []):
                    if w.hub == h:
                        row[x_idx[w.key]] = row.get(x_idx[w.key], 0.0) + sign
            model.add_constraint(row, EQUAL, 0.0, name=f"flow[{c.id},{h}]")
    return model


def matrix_findings(name, mat, nodes, cap=20):
    """The (code, subject, message) findings `validate` reports for one
    matrix, in its order, and the uncapped triangle violation count.

    Negative and non-finite entries (row-major), then non-zero diagonal
    entries, then every (i, k, j) with distinct indices whose entry
    exceeds the relayed sum by more than EPS (k-major, then row-major),
    tried only when every entry is finite. The entry and triangle lists
    keep their first `cap` findings plus one `<code>-more` total.
    """
    m = [[float(x) for x in row] for row in mat]
    n = len(nodes)

    def capped(code, found, plural):
        if len(found) <= cap:
            return found
        more = (f"{code}-more", (name, len(found)), f"{name}: {len(found)} {plural} in all, first {cap} listed")
        return found[:cap] + [more]

    def entries(code, test, what):
        return [
            (code, (name, nodes[i], nodes[j]), f"{name}[{nodes[i]},{nodes[j]}] = {m[i][j]} is {what}")
            for i in range(n)
            for j in range(n)
            if test(m[i][j])
        ]

    negative = entries("negative-entry", lambda x: x < 0, "negative")
    nonfinite = entries("nonfinite-entry", lambda x: not math.isfinite(x), "non-finite")
    diagonal = [
        ("nonzero-diagonal", (name, nodes[i]), f"{name}[{nodes[i]},{nodes[i]}] = {m[i][i]} must be zero")
        for i in range(n)
        if abs(m[i][i]) > EPS
    ]
    triangle = []
    for k in range(n) if not nonfinite else ():
        for i in range(n):
            for j in range(n):
                if i == k or j == k or i == j:
                    continue
                via = m[i][k] + m[k][j]
                if m[i][j] - via > EPS:
                    triangle.append((
                        "triangle",
                        (name, nodes[i], nodes[k], nodes[j]),
                        f"{name}[{nodes[i]},{nodes[j]}] = {m[i][j]} exceeds "
                        f"{name}[{nodes[i]},{nodes[k]}] + {name}[{nodes[k]},{nodes[j]}] = {via}",
                    ))
    findings = (
        capped("negative-entry", negative, "negative entries")
        + capped("nonfinite-entry", nonfinite, "non-finite entries")
        + diagonal
        + capped("triangle", triangle, "triangle violations")
    )
    return findings, len(triangle)


def _compatibility(tasks, inst):
    """comp[i, j] == (i != j and compatible(tasks[i], tasks[j], inst)) on
    (start, id)-sorted tasks, with the scalar rule's float order so ties at
    EPS fall the same way. The full mask, strictly upper triangular,
    assembled from `fleet._compatibility_blocks`, so no n x n float matrix
    is held; the stages read the blocks, and the tests check them through
    this."""
    n = len(tasks)
    comp = np.zeros((n, n), dtype=bool)
    for i0, c0, block in _compatibility_blocks(tasks, inst):
        comp[i0 : i0 + len(block), c0:] = block
    return comp


def path_cover_by_max_flow(tasks, inst):
    """Minimum path cover of the full compatibility relation: task count
    minus a maximum bipartite matching, found as a unit-capacity max flow
    (Dinic) s -> i -> j' -> t with one i -> j' arc per compatible pair."""
    ts = _sorted_tasks(tasks)
    n = len(ts)
    left, right = np.nonzero(_compatibility(ts, inst))
    s, t = 2 * n, 2 * n + 1
    idx = np.arange(n)
    rows = np.concatenate([np.full(n, s), left, n + idx])
    cols = np.concatenate([idx, n + right, np.full(n, t)])
    graph = sp.csr_array((np.ones(rows.size, dtype=np.int32), (rows, cols)), shape=(2 * n + 2, 2 * n + 2))
    return n - int(maximum_flow(graph, s, t, method="dinic").flow_value)
