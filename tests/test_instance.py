import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from odmts import instgen
from odmts.instance import (
    EPS,
    HorizonError,
    InstanceFormatError,
    _triangle_rows,
    bucket_of,
    load_instance,
    split_commodities,
    validate,
    window_of,
)

from conftest import mk_commodity, mk_instance
from oracles import matrix_findings

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


def _closure(mat):
    mat = np.array(mat, dtype=float)
    for k in range(len(mat)):
        np.minimum(mat, mat[:, [k]] + mat[[k], :], out=mat)
    return mat


def _random_matrix(rng, n, kind):
    mat = rng.uniform(0.0, 10.0, (n, n))
    if kind in ("zeros", "metric-zeros"):
        mat[rng.random((n, n)) < 0.3] = 0.0
    if kind == "negative":
        mat[rng.random((n, n)) < 0.15] *= -1.0
    np.fill_diagonal(mat, 0.0)
    if kind.startswith(("metric", "raised", "diagonal")):
        mat = _closure(mat)
    if kind.startswith("diagonal"):
        mat[0, 0], mat[-1, -1] = 2.0, -1.0 if kind == "diagonal-mixed" else 3.0
    if kind.startswith("raised"):
        # Raise the entry whose best single relay is tightest.
        via = mat[:, :, None] + mat[None, :, :]  # via[i, k, j]
        idx = np.arange(n)
        via[idx, idx, :] = np.inf
        via[:, idx, idx] = np.inf
        slack = via.min(axis=1) - mat
        np.fill_diagonal(slack, np.inf)
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        mat[i, j] += 2 * EPS if kind == "raised-2eps" else 0.5 * EPS
    return mat


def _matrix_reference(time, dist, nodes):
    found, time_total = matrix_findings("time", time, nodes)
    more, dist_total = matrix_findings("dist", dist, nodes)
    return found + more, (time_total, dist_total)


def _findings(inst):
    return [(v.code, v.subject, v.message) for v in validate(inst).violations]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "kind",
    [
        "raw",
        "metric",
        "zeros",
        "metric-zeros",
        "negative",
        "diagonal-positive",
        "diagonal-mixed",
        "raised-2eps",
        "raised-half-eps",
    ],
)
def test_matrix_checks_match_reference(kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    n = int(rng.integers(3, 13))
    time, dist = _random_matrix(rng, n, kind), _random_matrix(rng, n, kind)
    nodes = [f"v{i}" for i in range(n)]
    expected, totals = _matrix_reference(time, dist, nodes)
    assert _findings(mk_instance(nodes, nodes[:1], time, dist)) == expected
    if kind.startswith("metric") or kind == "raised-half-eps":
        assert expected == []
    if kind == "raised-2eps":
        assert min(totals) >= 1


def test_sub_eps_slack_chain_validates_ok():
    # Each single relay saves 0.5 EPS, so no triple violates, but the chain
    # 0 -> 1 -> ... -> 7 undercuts the direct entry by 3 EPS.
    n = 8
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    time = gap + 0.5 * EPS * np.maximum(gap - 1, 0)
    assert len(_triangle_rows(time)) > 0
    inst = mk_instance([f"v{i}" for i in range(n)], ["v0"], time)
    assert validate(inst).ok


def test_noisy_city_matrix_capped_with_exact_total():
    base = instgen.generate(seed=400, n_nodes=150, n_hubs=6, n_commodities=0)
    rng = np.random.default_rng(7)
    time, dist = (m * rng.uniform(1.0, 1.02, m.shape) for m in (base.travel_time, base.travel_dist))
    nodes = list(base.nodes)
    expected, totals = _matrix_reference(time, dist, nodes)
    assert min(totals) > 1000
    found = _findings(mk_instance(nodes, nodes[:1], time, dist))
    assert found == expected
    for name, total in zip(("time", "dist"), totals):
        ours = [f for f in found if f[1][0] == name]
        assert len(ours) == 21
        assert ours[-1][:2] == ("triangle-more", (name, total))
        assert ours[-1][2] == f"{name}: {total} triangle violations in all, first 20 listed"


def test_negative_entries_capped():
    n = 6
    time = -np.ones((n, n))
    np.fill_diagonal(time, 0.0)
    nodes = [f"v{i}" for i in range(n)]
    expected, totals = _matrix_reference(time, time, nodes)
    found = _findings(mk_instance(nodes, nodes[:1], time))
    assert found == expected
    codes = [code for code, subject, _ in found if subject[0] == "time"]
    assert codes == ["negative-entry"] * 20 + ["negative-entry-more"] + ["triangle"] * 20 + ["triangle-more"]
    assert totals == (120, 120)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_entry_flagged_without_warning(bad):
    time = _closure(np.random.default_rng(3).uniform(1.0, 5.0, (5, 5)) * (1 - np.eye(5)))
    time[1, 3] = bad
    nodes = [f"v{i}" for i in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = _findings(mk_instance(nodes, nodes[:1], time, time.copy()))
    expected, _ = _matrix_reference(time, time, nodes)
    assert found == expected
    assert [code for code, *_ in found if code != "negative-entry"] == ["nonfinite-entry"] * 2


def test_json_nan_loads_then_validate_flags(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["time"][0][1] = math.nan  # json.dumps writes NaN, json.load reads it back
    report = validate(load_instance(write_json(tmp_path, data)))
    assert [v.subject for v in report.violations] == [("time", "a", "b")]
    assert report.violations[0].code == "nonfinite-entry"


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
