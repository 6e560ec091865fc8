"""Synthetic instance generation and arrival-estimate perturbation.

Nodes are placed uniformly in a square; travel times and distances are both
the Euclidean distance (times scaled by a minutes-per-km factor), so the
triangle inequality holds by construction. Hubs are a spread subset
(greedy farthest-point). Everything is deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .instance import Commodity, CostParams, Instance, RoutingParams

DEFAULT_COST = CostParams(
    alpha=1e-3,
    shuttle_cost_per_km=1.0,
    bus_cost_per_km=3.75,
    bus_trips_per_line=16.0,
    bus_wait=7.5,
)

DEFAULT_ROUTING = RoutingParams(
    shuttle_capacity=3,
    duration_threshold=0.5,
    bucket_len=3.0,
    first_hub_count=3,
    last_hub_count=3,
)


def _spread_hubs(coords: np.ndarray, k: int) -> list[int]:
    """Greedy farthest-point hub placement, seeded at the most central node."""
    center = coords.mean(axis=0)
    chosen = [int(np.argmin(((coords - center) ** 2).sum(axis=1)))]
    while len(chosen) < k:
        dists = np.min(
            [((coords - coords[c]) ** 2).sum(axis=1) for c in chosen], axis=0
        )
        dists[chosen] = -1.0
        chosen.append(int(np.argmax(dists)))
    return sorted(chosen)


def generate(
    seed: int,
    n_nodes: int,
    n_hubs: int,
    n_commodities: int,
    horizon: tuple[float, float] = (0.0, 240.0),
    *,
    side_km: float = 10.0,
    minutes_per_km: float = 1.0,
    max_passengers: int = 1,
    cost: CostParams | None = None,
    routing: RoutingParams | None = None,
) -> Instance:
    if n_hubs > n_nodes:
        raise ValueError(f"n_hubs {n_hubs} exceeds n_nodes {n_nodes}")
    if n_hubs < 1 or n_nodes < 2:
        raise ValueError("need at least two nodes and one hub")
    t_min, t_max = horizon
    if t_max < t_min:
        raise ValueError(f"horizon end {t_max} precedes its start {t_min}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, side_km, size=(n_nodes, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    time = dist * minutes_per_km

    nodes = tuple(f"n{i}" for i in range(n_nodes))
    hubs = tuple(nodes[i] for i in _spread_hubs(coords, n_hubs))

    if routing is None:
        routing = RoutingParams(
            shuttle_capacity=DEFAULT_ROUTING.shuttle_capacity,
            duration_threshold=DEFAULT_ROUTING.duration_threshold,
            bucket_len=DEFAULT_ROUTING.bucket_len,
            first_hub_count=min(DEFAULT_ROUTING.first_hub_count, n_hubs),
            last_hub_count=min(DEFAULT_ROUTING.last_hub_count, n_hubs),
        )
    elif routing.first_hub_count > n_hubs or routing.last_hub_count > n_hubs:
        raise ValueError("hub counts in routing params exceed the number of hubs")
    commodities = []
    for i in range(n_commodities):
        o = int(rng.integers(n_nodes))
        d = int(rng.integers(n_nodes - 1))
        if d >= o:
            d += 1
        p = int(rng.integers(1, max_passengers + 1)) if max_passengers > 1 else 1
        commodities.append(
            Commodity(
                id=f"c{i}",
                origin=nodes[o],
                destination=nodes[d],
                passengers=p,
                depart=float(rng.uniform(t_min, t_max)),
            )
        )

    return Instance(
        nodes=nodes,
        hubs=hubs,
        travel_time=time,
        travel_dist=dist,
        commodities=tuple(commodities),
        cost=cost if cost is not None else DEFAULT_COST,
        routing=routing,
        horizon=(float(t_min), float(t_max)),
    )


def perturb_arrival_estimates(
    inst: Instance, scale: float, seed: int
) -> dict[tuple[str, str], float]:
    """Additive Laplace(0, scale) noise, in minutes, for every
    (commodity, hub) pair; feed to the dropoff enumeration as t1 offsets."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    noise = rng.laplace(0.0, scale, size=(len(inst.commodities), len(inst.hubs)))
    return {
        (c.id, h): float(noise[i, j])
        for i, c in enumerate(inst.commodities)
        for j, h in enumerate(inst.hubs)
    }
