import numpy as np
import pytest

from odmts.instance import Commodity, CostParams, Instance, RoutingParams

# The desk-scale costs of acceptance criteria 5 and 8.
DESK_COST = CostParams(
    alpha=1e-3, shuttle_cost_per_km=1.0, bus_cost_per_km=0.4, bus_trips_per_line=1, bus_wait=7.5
)


def mk_commodity(cid, origin, destination, depart, passengers=1):
    return Commodity(
        id=cid, origin=origin, destination=destination, passengers=passengers, depart=depart
    )


def mk_instance(
    nodes,
    hubs,
    time,
    dist=None,
    commodities=(),
    alpha=1e-3,
    shuttle_cost=1.0,
    bus_cost=3.75,
    bus_trips=16.0,
    bus_wait=7.5,
    capacity=3,
    delta=0.5,
    bucket=3.0,
    first_hubs=1,
    last_hubs=1,
    horizon=(0.0, 240.0),
):
    time = np.asarray(time, dtype=float)
    dist = time.copy() if dist is None else np.asarray(dist, dtype=float)
    return Instance(
        nodes=tuple(nodes),
        hubs=tuple(hubs),
        travel_time=time,
        travel_dist=dist,
        commodities=tuple(commodities),
        cost=CostParams(
            alpha=alpha,
            shuttle_cost_per_km=shuttle_cost,
            bus_cost_per_km=bus_cost,
            bus_trips_per_line=bus_trips,
            bus_wait=bus_wait,
        ),
        routing=RoutingParams(
            shuttle_capacity=capacity,
            duration_threshold=delta,
            bucket_len=bucket,
            first_hub_count=first_hubs,
            last_hub_count=last_hubs,
        ),
        horizon=horizon,
    )


def euclid_instance(points, hubs, commodities=(), **params):
    """Instance with travel times and distances equal to Euclidean distances
    between named 2D points (triangle inequality holds by construction)."""
    names = list(points)
    coords = np.array([points[n] for n in names], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    return mk_instance(names, hubs, dist, dist, commodities=commodities, **params)


@pytest.fixture
def pickup_pair_instance():
    """Two commodities a -> h and b -> h with T(a,b)=3, T(b,h)=5; distances
    equal travel times."""
    #        a    b    h
    time = [
        [0.0, 3.0, 6.0],  # a
        [4.0, 0.0, 5.0],  # b
        [6.0, 5.0, 0.0],  # h
    ]
    comms = (
        mk_commodity("r1", "a", "h", 0.0),
        mk_commodity("r2", "b", "h", 2.0),
    )
    # Destinations must differ from origins; route this pair's trips to hub h.
    return mk_instance(
        ["a", "b", "h"], ["h"], time, commodities=comms, capacity=2, delta=1.5, bucket=3.0
    )
