import csv
import dataclasses
import json

import pytest

from odmts.design import solve_design
from odmts.fleet import (
    build_sparse_graph,
    routes_to_tasks,
    solve_fleet,
)
from odmts.metrics import (
    avg_inconvenience,
    avg_shuttle_usage,
    build_report,
    emit_report,
    lines_connected,
    report_to_dict,
)
from odmts.routegen import (
    compute_hub_sets,
    enumerate_dropoff_routes,
    enumerate_pickup_routes,
)

from conftest import euclid_instance, mk_commodity


def solve_all(inst):
    hs = compute_hub_sets(inst)
    om = enumerate_pickup_routes(inst, hs)
    op = enumerate_dropoff_routes(inst, hs)
    ds = solve_design(inst, om, op)
    tasks = routes_to_tasks(ds, inst)
    fleet = solve_fleet(build_sparse_graph(tasks, inst))
    return ds, fleet


def all_direct_instance():
    points = {"a": (0, 0), "b": (15, 0), "c": (0, 1), "d": (15, 1), "h": (7.5, 40)}
    comms = (
        mk_commodity("r1", "a", "b", 0.0),
        mk_commodity("r2", "c", "d", 50.0),
    )
    return euclid_instance(points, ["h"], comms, capacity=1)


def test_avg_inconvenience_all_direct():
    inst = all_direct_instance()
    ds, _ = solve_all(inst)
    assert ds.direct == {"r1", "r2"}
    assert avg_inconvenience(ds, inst) == pytest.approx(15.0, abs=1e-9)


def test_avg_inconvenience_multileg_sum():
    # One rider: pickup leg 4, one bus leg 8 + 7.5 wait, dropoff leg 5.
    points = {
        "o": (0.0, 0.0),
        "h1": (4.0, 0.0),
        "h2": (12.0, 0.0),
        "d": (17.0, 0.0),
    }
    r = mk_commodity("r", "o", "d", 0.0)
    inst = euclid_instance(
        points, ["h1", "h2"], (r,), capacity=1, bus_cost=0.05, bus_trips=1.0
    )
    ds, _ = solve_all(inst)
    assert not ds.direct
    assert avg_inconvenience(ds, inst) == pytest.approx(4 + 8 + 7.5 + 5, abs=1e-9)


def test_avg_inconvenience_weighted_by_passengers():
    # Two direct commodities, times 10 and 20, 1 and 3 passengers.
    points = {"a": (0, 0), "b": (10, 0), "c": (0, 5), "d": (20, 5), "h": (0, 60)}
    comms = (
        mk_commodity("r1", "a", "b", 0.0),
        mk_commodity("r2", "c", "d", 100.0, passengers=3),
    )
    inst = euclid_instance(points, ["h"], comms, capacity=3)
    ds, _ = solve_all(inst)
    assert ds.direct == {"r1", "r2"}
    assert avg_inconvenience(ds, inst) == pytest.approx((10 + 3 * 20) / 4, abs=1e-9)


def test_usage_is_one_at_unit_capacity():
    inst = all_direct_instance()
    ds, _ = solve_all(inst)
    assert avg_shuttle_usage(ds, inst) == pytest.approx(1.0)


def test_usage_counts_direct_riders_individually():
    points = {
        "a1": (0.0, 0.0),
        "a2": (0.3, 0.0),
        "a3": (0.6, 0.0),
        "h": (10.0, 0.0),
        "b1": (19.4, 0.0),
        "b2": (19.7, 0.0),
        "b3": (20.0, 0.0),
        "c": (0.0, 30.0),
        "cd": (0.0, 50.0),
    }
    comms = (
        mk_commodity("r1", "a1", "b1", 0.0),
        mk_commodity("r2", "a2", "b2", 0.0),
        mk_commodity("r3", "a3", "b3", 0.5, passengers=1),
        mk_commodity("far", "c", "cd", 100.0),
    )
    inst = euclid_instance(points, ["h"], comms, capacity=3, first_hubs=1, last_hubs=1)
    ds, _ = solve_all(inst)
    assert ds.direct == {"far"}
    shared = [w for w in ds.selected_routes]
    assert len(shared) == 2 and all(w.passengers == 3 for w in shared)
    # (3 + 3 + 1) riders over (2 + 1) routes.
    assert avg_shuttle_usage(ds, inst) == pytest.approx(7 / 3)


def test_usage_absent_without_routes():
    points = {"a": (0, 0), "b": (15, 0), "h": (7.5, 40)}
    inst = euclid_instance(points, ["h"], (), capacity=1)
    ds, fleet = solve_all(inst)
    assert avg_shuttle_usage(ds, inst) is None
    report = build_report(ds, fleet, inst)
    assert "avg_shuttle_usage" not in report_to_dict(report)


def test_connectivity_flag():
    assert lines_connected(())
    assert lines_connected((("h1", "h2"), ("h2", "h1")))
    # Two separate loops form two components.
    assert not lines_connected(
        (("h1", "h2"), ("h2", "h1"), ("h3", "h4"), ("h4", "h3"))
    )
    assert lines_connected((("h1", "h2"), ("h2", "h3"), ("h3", "h1")))


def test_report_totals_match_solution(tmp_path):
    inst = all_direct_instance()
    ds, fleet = solve_all(inst)
    report = build_report(ds, fleet, inst)
    assert report.total_cost == pytest.approx(ds.objective, abs=1e-9)
    assert report.direct_routes == 2
    assert report.fleet_size == fleet.fleet_size
    parts = report.cost_breakdown
    assert sum(parts.values()) == pytest.approx(report.total_cost, abs=1e-6)


def test_emit_json_round_trip(tmp_path):
    inst = all_direct_instance()
    ds, fleet = solve_all(inst)
    report = build_report(ds, fleet, inst)
    path = str(tmp_path / "report.json")
    emit_report(report, path, "json")
    with open(path) as fh:
        data = json.load(fh)
    assert data == report_to_dict(report)


def test_emit_csv_rows_keyed_by_capacity(tmp_path):
    inst = all_direct_instance()
    reports = []
    for cap in (1, 2):
        capped = dataclasses.replace(
            inst, routing=dataclasses.replace(inst.routing, shuttle_capacity=cap)
        )
        ds, fleet = solve_all(capped)
        reports.append(build_report(ds, fleet, capped))
    path = str(tmp_path / "report.csv")
    emit_report(reports, path, "csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["capacity"] for r in rows] == ["1", "2"]
    assert float(rows[0]["total_cost"]) == pytest.approx(reports[0].total_cost)


def test_emit_rejects_unknown_format(tmp_path):
    inst = all_direct_instance()
    ds, fleet = solve_all(inst)
    with pytest.raises(ValueError):
        emit_report(build_report(ds, fleet, inst), str(tmp_path / "x"), "xml")
