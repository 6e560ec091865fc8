"""Problem data model: instances, commodities, parameters, file I/O and validation.

An instance is purely matrix-based: a list of node ids, a hub subset, travel
time and distance matrices (minutes / kilometers, possibly asymmetric but
expected to satisfy the triangle inequality), a set of commodities, and the
cost / routing parameters. Loading and semantic validation are separate
passes so that malformed data can be reported in bulk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

#: Absolute tolerance for time (and cost tie-break) comparisons, in minutes.
EPS = 1e-9


class InstanceFormatError(ValueError):
    """Raised when an instance file, or a stage artifact read back from
    disk, cannot be parsed into its schema."""


class HorizonError(ValueError):
    """Raised when a time stamp falls outside the operating horizon."""


@dataclass(frozen=True)
class Commodity:
    """A group of riders sharing an origin, destination and departure time."""

    id: str
    origin: str
    destination: str
    passengers: int
    depart: float


@dataclass(frozen=True)
class CostParams:
    """Cost model parameters.

    alpha blends operating cost (weight 1 - alpha) against rider
    inconvenience in minutes (weight alpha). Costs are dollars per km,
    bus_trips_per_line is the number of trips bought when a line opens,
    bus_wait is the fixed boarding wait at a hub in minutes.
    """

    alpha: float
    shuttle_cost_per_km: float
    bus_cost_per_km: float
    bus_trips_per_line: float
    bus_wait: float


@dataclass(frozen=True)
class RoutingParams:
    """Shared-route generation parameters.

    duration_threshold is the allowed relative detour (a route leg may take
    up to (1 + threshold) times the direct drive), bucket_len the width of
    the consolidation time windows in minutes, and the hub counts fix how
    many nearest hubs are eligible as first / last hubs per commodity.
    """

    shuttle_capacity: int
    duration_threshold: float
    bucket_len: float
    first_hub_count: int
    last_hub_count: int


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance; safe to share across workers after load."""

    nodes: tuple[str, ...]
    hubs: tuple[str, ...]
    travel_time: np.ndarray
    travel_dist: np.ndarray
    commodities: tuple[Commodity, ...]
    cost: CostParams
    routing: RoutingParams
    horizon: tuple[float, float]
    _index: dict[str, int] = field(init=False, repr=False)
    _by_id: dict[str, Commodity] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.nodes)})
        object.__setattr__(self, "_by_id", {c.id: c for c in self.commodities})
        self.travel_time.setflags(write=False)
        self.travel_dist.setflags(write=False)

    def node_index(self, node: str) -> int:
        return self._index[node]

    def time(self, i: str, j: str) -> float:
        return float(self.travel_time[self._index[i], self._index[j]])

    def dist(self, i: str, j: str) -> float:
        return float(self.travel_dist[self._index[i], self._index[j]])

    def commodity(self, cid: str) -> Commodity:
        return self._by_id[cid]

    def n_buckets(self) -> int:
        t_min, t_max = self.horizon
        return max(1, math.ceil((t_max - t_min - EPS) / self.routing.bucket_len))


@dataclass(frozen=True)
class Violation:
    """A single validation finding with a concrete witness."""

    code: str
    subject: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "instance valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)


# -- loading ----------------------------------------------------------------


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise InstanceFormatError(f"missing required field '{path}{key}'")
    return obj[key]


def _number(obj: dict, key: str, path: str) -> float:
    val = _require(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InstanceFormatError(f"field '{path}{key}' must be a number, got {val!r}")
    return float(val)


def _integer(obj: dict, key: str, path: str) -> int:
    val = _number(obj, key, path)
    if val != int(val):
        raise InstanceFormatError(f"field '{path}{key}' must be an integer, got {val!r}")
    return int(val)


def _matrix(raw: Any, n: int, name: str) -> np.ndarray:
    try:
        mat = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"field '{name}' is not a numeric matrix: {exc}") from exc
    if mat.shape != (n, n):
        raise InstanceFormatError(
            f"field '{name}' must be a {n}x{n} square array, got shape {mat.shape}"
        )
    return mat


def instance_from_dict(data: dict) -> Instance:
    """Build an Instance from the JSON document structure (no semantic checks)."""
    nodes = tuple(str(n) for n in _require(data, "nodes", ""))
    hubs = tuple(str(h) for h in _require(data, "hubs", ""))
    time_mat = _matrix(_require(data, "time", ""), len(nodes), "time")
    dist_mat = _matrix(_require(data, "dist", ""), len(nodes), "dist")

    commodities = []
    for k, raw in enumerate(_require(data, "commodities", "")):
        path = f"commodities[{k}]."
        commodities.append(
            Commodity(
                id=str(_require(raw, "id", path)),
                origin=str(_require(raw, "origin", path)),
                destination=str(_require(raw, "destination", path)),
                passengers=_integer(raw, "passengers", path),
                depart=_number(raw, "depart", path),
            )
        )

    cost_raw = _require(data, "cost", "")
    cost = CostParams(
        alpha=_number(cost_raw, "alpha", "cost."),
        shuttle_cost_per_km=_number(cost_raw, "shuttle_cost_per_km", "cost."),
        bus_cost_per_km=_number(cost_raw, "bus_cost_per_km", "cost."),
        bus_trips_per_line=_number(cost_raw, "bus_trips_per_line", "cost."),
        bus_wait=_number(cost_raw, "bus_wait", "cost."),
    )
    routing_raw = _require(data, "routing", "")
    routing = RoutingParams(
        shuttle_capacity=_integer(routing_raw, "shuttle_capacity", "routing."),
        duration_threshold=_number(routing_raw, "duration_threshold", "routing."),
        bucket_len=_number(routing_raw, "bucket_len", "routing."),
        first_hub_count=_integer(routing_raw, "first_hub_count", "routing."),
        last_hub_count=_integer(routing_raw, "last_hub_count", "routing."),
    )
    horizon_raw = _require(data, "horizon", "")
    horizon = (_number(horizon_raw, "t_min", "horizon."), _number(horizon_raw, "t_max", "horizon."))

    return Instance(
        nodes=nodes,
        hubs=hubs,
        travel_time=time_mat,
        travel_dist=dist_mat,
        commodities=tuple(commodities),
        cost=cost,
        routing=routing,
        horizon=horizon,
    )


def instance_to_dict(inst: Instance) -> dict:
    """Serialize an Instance back to the JSON document structure."""
    return {
        "nodes": list(inst.nodes),
        "hubs": list(inst.hubs),
        "time": inst.travel_time.tolist(),
        "dist": inst.travel_dist.tolist(),
        "commodities": [
            {
                "id": c.id,
                "origin": c.origin,
                "destination": c.destination,
                "passengers": c.passengers,
                "depart": c.depart,
            }
            for c in inst.commodities
        ],
        "cost": {
            "alpha": inst.cost.alpha,
            "shuttle_cost_per_km": inst.cost.shuttle_cost_per_km,
            "bus_cost_per_km": inst.cost.bus_cost_per_km,
            "bus_trips_per_line": inst.cost.bus_trips_per_line,
            "bus_wait": inst.cost.bus_wait,
        },
        "routing": {
            "shuttle_capacity": inst.routing.shuttle_capacity,
            "duration_threshold": inst.routing.duration_threshold,
            "bucket_len": inst.routing.bucket_len,
            "first_hub_count": inst.routing.first_hub_count,
            "last_hub_count": inst.routing.last_hub_count,
        },
        "horizon": {"t_min": inst.horizon[0], "t_max": inst.horizon[1]},
    }


def load_instance(path: str) -> Instance:
    """Load an instance file. Schema errors raise InstanceFormatError with
    field context; semantic problems (negative entries, broken triangle
    inequality, ...) are left for validate()."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: top-level JSON value must be an object")
    try:
        return instance_from_dict(data)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- validation --------------------------------------------------------------


#: Witnesses kept per finding code and matrix; the rest are only counted.
_MAX_WITNESSES = 20


def _capped_more(name: str, code: str, what: str, total: int, out: list[Violation]) -> None:
    """Close a witness list cut at _MAX_WITNESSES with one `<code>-more`
    finding that carries the total count."""
    if total > _MAX_WITNESSES:
        out.append(
            Violation(
                f"{code}-more",
                (name, total),
                f"{name}: {total} {what} in all, first {_MAX_WITNESSES} listed",
            )
        )


def _check_entries(
    name: str,
    mat: np.ndarray,
    nodes: Sequence[str],
    mask: np.ndarray,
    code: str,
    adjective: str,
    out: list[Violation],
) -> None:
    """One finding per entry flagged in `mask`, row-major, capped."""
    for i, j in np.argwhere(mask)[:_MAX_WITNESSES]:
        out.append(
            Violation(
                code,
                (name, nodes[i], nodes[j]),
                f"{name}[{nodes[i]},{nodes[j]}] = {mat[i, j]} is {adjective}",
            )
        )
    _capped_more(name, code, f"{adjective} entries", int(np.count_nonzero(mask)), out)


def _triangle_rows(mat: np.ndarray) -> np.ndarray:
    """Rows that may hold a triangle violation, by a shortest-path certificate.

    The Floyd-Warshall closure is at most fl(mat[i,k] + mat[k,j]) for every
    relay k (float addition is monotone), so a pair (i, j) whose entry
    exceeds its closure by at most EPS cannot violate. The closure needs
    non-negative arcs; with a negative entry every row is returned.
    """
    if (mat < 0).any():
        return np.arange(len(mat))
    # null_value=inf keeps off-diagonal zeros as arcs.
    closure = floyd_warshall(csgraph_from_dense(mat, null_value=np.inf), directed=True)
    slack = mat - closure
    np.fill_diagonal(slack, 0.0)
    return np.flatnonzero((slack > EPS).any(axis=1))


def _check_triangle(name: str, mat: np.ndarray, nodes: Sequence[str], out: list[Violation]) -> None:
    """Triangle inequality over every (i, k, j) with distinct indices,
    witnesses in k-major then row-major order, capped. `mat` is finite."""
    rows = _triangle_rows(mat)
    if not len(rows):
        return
    # An infinite relay diagonal rules out k == i and k == j, and a -inf
    # left-hand diagonal rules out i == j, with no masking per relay.
    relay = mat.copy()
    np.fill_diagonal(relay, np.inf)
    relay_t = np.ascontiguousarray(relay.T)
    lhs = mat[rows]
    lhs[np.arange(len(rows)), rows] = -np.inf
    buf = np.empty_like(lhs)
    hit = np.empty(lhs.shape, dtype=bool)
    total = 0
    for k in range(len(mat)):
        np.add(relay_t[k, rows][:, None], relay[k], out=buf)
        np.subtract(lhs, buf, out=buf)
        np.greater(buf, EPS, out=hit)
        count = np.count_nonzero(hit)
        if count and total < _MAX_WITNESSES:
            for r, j in np.argwhere(hit)[: _MAX_WITNESSES - total]:
                i = rows[r]
                out.append(
                    Violation(
                        "triangle",
                        (name, nodes[i], nodes[k], nodes[j]),
                        f"{name}[{nodes[i]},{nodes[j]}] = {mat[i, j]} exceeds "
                        f"{name}[{nodes[i]},{nodes[k]}] + {name}[{nodes[k]},{nodes[j]}] "
                        f"= {mat[i, k] + mat[k, j]}",
                    )
                )
        total += count
    _capped_more(name, "triangle", "triangle violations", total, out)


def _check_matrix(name: str, mat: np.ndarray, nodes: Sequence[str], out: list[Violation]) -> None:
    _check_entries(name, mat, nodes, mat < 0, "negative-entry", "negative", out)
    finite = np.isfinite(mat)
    _check_entries(name, mat, nodes, ~finite, "nonfinite-entry", "non-finite", out)
    diag = np.flatnonzero(np.abs(np.diagonal(mat)) > EPS)
    for i in diag:
        out.append(
            Violation(
                "nonzero-diagonal",
                (name, nodes[i]),
                f"{name}[{nodes[i]},{nodes[i]}] = {mat[i, i]} must be zero",
            )
        )
    # A non-finite entry has no meaningful triangle; it is reported above.
    if finite.all():
        _check_triangle(name, mat, nodes, out)


def validate(inst: Instance) -> ValidationReport:
    """Check every instance invariant; findings carry concrete witnesses."""
    out: list[Violation] = []
    node_set = set(inst.nodes)

    for kind, ids in (("node", inst.nodes), ("commodity", [c.id for c in inst.commodities])):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                out.append(Violation("duplicate-id", (kind, i), f"{kind} id '{i}' appears more than once"))
            seen.add(i)

    if len(inst.hubs) < 1:
        out.append(Violation("no-hubs", (), "instance must declare at least one hub"))
    for h in inst.hubs:
        if h not in node_set:
            out.append(Violation("hub-membership", (h,), f"hub '{h}' is not a node"))

    _check_matrix("time", inst.travel_time, inst.nodes, out)
    _check_matrix("dist", inst.travel_dist, inst.nodes, out)

    t_min, t_max = inst.horizon
    if t_max < t_min:
        out.append(Violation("horizon", (t_min, t_max), "horizon end precedes start"))

    cp = inst.cost
    if not (0.0 <= cp.alpha <= 1.0):
        out.append(Violation("alpha-range", (cp.alpha,), f"alpha = {cp.alpha} outside [0, 1]"))
    for nm, val in (
        ("shuttle_cost_per_km", cp.shuttle_cost_per_km),
        ("bus_cost_per_km", cp.bus_cost_per_km),
        ("bus_trips_per_line", cp.bus_trips_per_line),
        ("bus_wait", cp.bus_wait),
    ):
        if val < 0:
            out.append(Violation("cost-negative", (nm,), f"cost.{nm} = {val} is negative"))

    rp = inst.routing
    if rp.shuttle_capacity < 1:
        out.append(Violation("capacity", (rp.shuttle_capacity,), "shuttle_capacity must be >= 1"))
    if rp.duration_threshold < 0:
        out.append(
            Violation("threshold", (rp.duration_threshold,), "duration_threshold must be >= 0")
        )
    if rp.bucket_len <= 0:
        out.append(Violation("bucket-len", (rp.bucket_len,), "bucket_len must be positive"))
    for nm, val in (("first_hub_count", rp.first_hub_count), ("last_hub_count", rp.last_hub_count)):
        if inst.hubs and not (1 <= val <= len(inst.hubs)):
            out.append(
                Violation(
                    "hub-count", (nm, val), f"routing.{nm} = {val} outside [1, {len(inst.hubs)}]"
                )
            )

    for c in inst.commodities:
        if c.passengers < 1:
            out.append(
                Violation("passengers", (c.id,), f"commodity '{c.id}' has passengers < 1")
            )
        if c.passengers > rp.shuttle_capacity:
            out.append(
                Violation(
                    "passengers-capacity",
                    (c.id,),
                    f"commodity '{c.id}' has {c.passengers} passengers, above capacity "
                    f"{rp.shuttle_capacity} (split it first)",
                )
            )
        if c.origin == c.destination:
            out.append(
                Violation("origin-destination", (c.id,), f"commodity '{c.id}' has origin == destination")
            )
        for role, node in (("origin", c.origin), ("destination", c.destination)):
            if node not in node_set:
                out.append(
                    Violation(
                        "node-membership", (c.id, node), f"commodity '{c.id}' {role} '{node}' is not a node"
                    )
                )
        if c.depart < t_min - EPS or c.depart > t_max + EPS:
            out.append(
                Violation(
                    "horizon-membership",
                    (c.id,),
                    f"commodity '{c.id}' departs at {c.depart}, outside [{t_min}, {t_max}]",
                )
            )

    return ValidationReport(out)


# -- time buckets ------------------------------------------------------------


def window_of(t: float, inst: Instance) -> int:
    """Index of the bucket-grid window containing time t.

    The grid starts at the horizon start and extends indefinitely in both
    directions, so arrival estimates that fall outside the horizon can still
    be grouped. Exactly at the horizon end the last in-horizon bucket wins.
    """
    t_min, t_max = inst.horizon
    q = math.floor((t - t_min + EPS) / inst.routing.bucket_len)
    if t <= t_max + EPS:
        q = min(q, inst.n_buckets() - 1)
    return q


def bucket_of(t: float, inst: Instance) -> int:
    """Bucket index of an in-horizon time; raises HorizonError otherwise."""
    t_min, t_max = inst.horizon
    if t < t_min - EPS or t > t_max + EPS:
        raise HorizonError(f"time {t} outside horizon [{t_min}, {t_max}]")
    return max(0, window_of(t, inst))


# -- preprocessing -----------------------------------------------------------


def split_commodities(raw: Iterable[Commodity], capacity: int) -> list[Commodity]:
    """Split requests into capacity-sized chunks, remainder last.

    Total passenger counts are preserved and origin, destination and
    departure times are copied. Requests already within capacity keep their
    id; split chunks get '#k' suffixes.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    out: list[Commodity] = []
    for req in raw:
        if req.passengers <= capacity:
            out.append(req)
            continue
        remaining = req.passengers
        k = 0
        while remaining > 0:
            size = min(capacity, remaining)
            out.append(replace(req, id=f"{req.id}#{k}", passengers=size))
            remaining -= size
            k += 1
    return out
