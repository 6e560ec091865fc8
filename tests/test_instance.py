import json
import math

import pytest
from hypothesis import given, strategies as st

from odmts.instance import (
    EPS,
    HorizonError,
    InstanceFormatError,
    bucket_of,
    load_instance,
    split_commodities,
    validate,
    window_of,
)

from conftest import mk_commodity, mk_instance

MINIMAL = {
    "nodes": ["a", "b"],
    "hubs": ["a"],
    "time": [[0.0, 5.0], [5.0, 0.0]],
    "dist": [[0.0, 5.0], [5.0, 0.0]],
    "commodities": [
        {"id": "c0", "origin": "a", "destination": "b", "passengers": 1, "depart": 0.0}
    ],
    "cost": {
        "alpha": 1e-3,
        "shuttle_cost_per_km": 1.0,
        "bus_cost_per_km": 3.75,
        "bus_trips_per_line": 16,
        "bus_wait": 7.5,
    },
    "routing": {
        "shuttle_capacity": 3,
        "duration_threshold": 0.5,
        "bucket_len": 3.0,
        "first_hub_count": 1,
        "last_hub_count": 1,
    },
    "horizon": {"t_min": 0.0, "t_max": 240.0},
}


def write_json(tmp_path, data, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_load_minimal_instance(tmp_path):
    inst = load_instance(write_json(tmp_path, MINIMAL))
    assert len(inst.nodes) == 2
    assert len(inst.hubs) == 1
    assert len(inst.commodities) == 1
    assert inst.time("a", "b") == 5.0
    assert validate(inst).ok


def test_negative_entry_loads_then_validate_flags(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["dist"][0][1] = -2.0
    inst = load_instance(write_json(tmp_path, data))  # loader does not reject
    report = validate(inst)
    assert any(v.code == "negative-entry" for v in report.violations)


def test_missing_alpha_names_field(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    del data["cost"]["alpha"]
    with pytest.raises(InstanceFormatError, match="cost.alpha"):
        load_instance(write_json(tmp_path, data))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  bad\n}")
    with pytest.raises(InstanceFormatError, match="line 2"):
        load_instance(str(path))


def test_fractional_passengers_rejected(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["commodities"][0]["passengers"] = 1.5
    with pytest.raises(InstanceFormatError, match="passengers"):
        load_instance(write_json(tmp_path, data))


def test_non_square_matrix_rejected(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["time"] = [[0.0, 1.0]]
    with pytest.raises(InstanceFormatError, match="square"):
        load_instance(write_json(tmp_path, data))


def test_triangle_violation_has_witness():
    time = [
        [0.0, 10.0, 2.0],
        [1.0, 0.0, 1.0],
        [1.0, 3.0, 0.0],
    ]
    dist = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    inst = mk_instance(["A", "B", "C"], ["A"], time, dist)
    report = validate(inst)
    triangle = [v for v in report.violations if v.code == "triangle"]
    assert [v.subject for v in triangle] == [("time", "A", "C", "B")]


def test_valid_instance_empty_report():
    inst = mk_instance(
        ["a", "b"],
        ["a"],
        [[0.0, 1.0], [1.0, 0.0]],
        commodities=(mk_commodity("c", "a", "b", 10.0),),
    )
    assert validate(inst).ok


def test_horizon_violation_names_commodity():
    inst = mk_instance(
        ["a", "b"],
        ["a"],
        [[0.0, 1.0], [1.0, 0.0]],
        commodities=(mk_commodity("late", "a", "b", 241.0),),
    )
    report = validate(inst)
    assert any(v.code == "horizon-membership" and v.subject == ("late",) for v in report.violations)


def test_validate_flags_oversized_commodity():
    inst = mk_instance(
        ["a", "b"],
        ["a"],
        [[0.0, 1.0], [1.0, 0.0]],
        commodities=(mk_commodity("big", "a", "b", 0.0, passengers=5),),
        capacity=3,
    )
    report = validate(inst)
    assert any(v.code == "passengers-capacity" for v in report.violations)


def test_validate_flags_duplicate_ids():
    inst = mk_instance(
        ["a", "b", "a"],
        ["b"],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        commodities=(
            mk_commodity("c", "a", "b", 0.0),
            mk_commodity("d", "b", "a", 0.0),
            mk_commodity("c", "b", "a", 1.0),
        ),
    )
    dups = [v.subject for v in validate(inst).violations if v.code == "duplicate-id"]
    assert dups == [("node", "a"), ("commodity", "c")]


def test_commodity_lookup_by_id():
    first = mk_commodity("c", "a", "b", 0.0)
    second = mk_commodity("d", "b", "a", 1.0)
    inst = mk_instance(["a", "b"], ["a"], [[0.0, 1.0], [1.0, 0.0]], commodities=(first, second))
    assert inst.commodity("c") is first and inst.commodity("d") is second
    with pytest.raises(KeyError):
        inst.commodity("missing")


def _horizon_instance(t_max=240.0, bucket=3.0):
    return mk_instance(
        ["a", "b"], ["a"], [[0.0, 1.0], [1.0, 0.0]], bucket=bucket, horizon=(0.0, t_max)
    )


def test_bucket_of_examples():
    inst = _horizon_instance()
    assert bucket_of(0.0, inst) == 0
    assert bucket_of(2.999, inst) == 0
    assert bucket_of(3.0, inst) == 1
    # The horizon end lands in the last of ceil(240 / 3) buckets.
    n_buckets = math.ceil((240.0 - 0.0) / 3.0)
    assert n_buckets == 80
    assert bucket_of(240.0, inst) == n_buckets - 1 == 79


def test_bucket_of_out_of_horizon():
    inst = _horizon_instance()
    with pytest.raises(HorizonError):
        bucket_of(-1.0, inst)
    with pytest.raises(HorizonError):
        bucket_of(241.0, inst)


def test_window_extends_beyond_horizon():
    inst = _horizon_instance()
    assert window_of(243.5, inst) == 81
    assert window_of(240.0, inst) == 79  # horizon end stays in the last bucket
    assert window_of(-0.5, inst) == -1


@given(st.floats(min_value=0.0, max_value=240.0), st.floats(min_value=0.0, max_value=240.0))
def test_bucket_of_monotone(t1, t2):
    inst = _horizon_instance()
    lo, hi = sorted((t1, t2))
    assert bucket_of(lo, inst) <= bucket_of(hi, inst)


@given(st.floats(min_value=0.0, max_value=239.0), st.floats(min_value=0.0, max_value=0.999))
def test_bucket_constant_within_window(t, frac):
    inst = _horizon_instance()
    q = bucket_of(t, inst)
    base = q * 3.0
    inside = base + frac * 3.0
    assert bucket_of(inside, inst) == q


def test_split_examples():
    req = mk_commodity("r", "a", "b", 5.0, passengers=7)
    parts = split_commodities([req], 3)
    assert [p.passengers for p in parts] == [3, 3, 1]
    assert all(p.origin == "a" and p.destination == "b" and p.depart == 5.0 for p in parts)
    assert len({p.id for p in parts}) == 3

    small = mk_commodity("s", "a", "b", 1.0, passengers=2)
    assert split_commodities([small], 3) == [small]

    unit = mk_commodity("u", "a", "b", 1.0, passengers=3)
    assert [p.passengers for p in split_commodities([unit], 1)] == [1, 1, 1]


@given(st.lists(st.integers(min_value=1, max_value=40), max_size=8), st.integers(1, 6))
def test_split_conserves_passengers(sizes, capacity):
    reqs = [mk_commodity(f"r{i}", "a", "b", 0.0, passengers=p) for i, p in enumerate(sizes)]
    parts = split_commodities(reqs, capacity)
    assert sum(p.passengers for p in parts) == sum(sizes)
    assert all(1 <= p.passengers <= capacity for p in parts)
    for req in reqs:
        expected = -(-req.passengers // capacity)  # ceil division
        got = [p for p in parts if p.id == req.id or p.id.startswith(req.id + "#")]
        assert len(got) == expected


def test_bucket_eps_rule():
    inst = _horizon_instance()
    # Values within EPS of a boundary land in the upper bucket, deterministically.
    assert bucket_of(3.0 - EPS / 2, inst) == 1
    assert bucket_of(3.0 - 2e-3, inst) == 0
