"""Reporting metrics computed from a design solution and a fleet result. Direct
rides and usage figures count over `fleet.shuttle_rides`, as the fleet does."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .design import DesignSolution, rider_minutes
from .fleet import DIRECT, FleetResult, shuttle_rides
from .instance import Instance, record_dict
from .routegen import DROPOFF, PICKUP


@dataclass
class Report:
    """One run's metrics, in the order `report_to_dict` writes them."""

    capacity: int
    total_cost: float
    opened_lines: int
    direct_routes: int
    fleet_size: int
    avg_inconvenience: float
    cost_breakdown: dict[str, float]
    connectivity_flag: bool
    avg_shuttle_usage: float | None
    usage_first_leg: float | None
    usage_last_leg: float | None


def avg_inconvenience(ds: DesignSolution, inst: Instance) -> float:
    """Mean end-to-end minutes per rider, weighted by passenger counts."""
    total = 0.0
    riders = 0
    for c in inst.commodities:
        total += c.passengers * rider_minutes(ds, c.id, inst)
        riders += c.passengers
    return total / riders if riders else 0.0


def avg_shuttle_usage(ds: DesignSolution, inst: Instance) -> float | None:
    """Riders per ride over the design's `shuttle_rides`; None with no ride."""
    return _usage(shuttle_rides(ds, inst))


def _usage(rides) -> float | None:
    return sum(riders for _, riders, _ in rides) / len(rides) if rides else None


def lines_connected(opened: tuple[tuple[str, str], ...]) -> bool:
    """True when the opened lines form a single weakly connected component
    (trivially true with no lines)."""
    hubs, ends = np.unique(np.asarray(opened, dtype=str), return_inverse=True)
    adjacency = np.zeros((hubs.size, hubs.size))
    adjacency[tuple(ends.reshape(-1, 2).T)] = 1.0
    return connected_components(adjacency, connection="weak", return_labels=False) <= 1


def build_report(ds: DesignSolution, fleet: FleetResult, inst: Instance) -> Report:
    rides = shuttle_rides(ds, inst)
    of_kind = {kind: [ride for ride in rides if ride[0] == kind] for kind in (PICKUP, DROPOFF, DIRECT)}
    return Report(
        capacity=inst.routing.shuttle_capacity,
        total_cost=ds.objective,
        opened_lines=len(ds.opened_lines),
        direct_routes=len(of_kind[DIRECT]),
        fleet_size=fleet.fleet_size,
        avg_inconvenience=avg_inconvenience(ds, inst),
        avg_shuttle_usage=_usage(rides),
        usage_first_leg=_usage(of_kind[PICKUP]),
        usage_last_leg=_usage(of_kind[DROPOFF]),
        cost_breakdown={
            "bus_fixed": ds.breakdown.bus_fixed,
            "shared_route": ds.breakdown.route_cost,
            "direct": ds.breakdown.direct_cost,
            "bus_inconvenience": ds.breakdown.bus_inconvenience,
        },
        connectivity_flag=lines_connected(ds.opened_lines),
    )


_CSV_COLUMNS = [
    "capacity",
    "total_cost",
    "fleet_size",
    "direct_routes",
    "opened_lines",
    "avg_inconvenience",
    "avg_shuttle_usage",
    "connectivity_flag",
]


def report_to_dict(report: Report) -> dict:
    # Ratios over empty denominators are omitted rather than written as null.
    return {key: val for key, val in record_dict(report).items() if val is not None}


def emit_report(reports: Report | list[Report], path: str, fmt: str) -> None:
    """Write one report (JSON) or a capacity-keyed table of reports (CSV)."""
    items = reports if isinstance(reports, list) else [reports]
    if fmt == "json":
        payload = [report_to_dict(r) for r in items]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload[0] if not isinstance(reports, list) else payload, fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in items:
                row = report_to_dict(r)
                writer.writerow([row.get(col, "") for col in _CSV_COLUMNS])
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'csv')")
