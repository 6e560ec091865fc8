import copy
import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from odmts import instgen
from odmts.instance import (
    EPS,
    Commodity,
    CostParams,
    HorizonError,
    Instance,
    InstanceFormatError,
    RoutingParams,
    _check_triangle,
    _triangle_rows,
    bucket_of,
    instance_to_dict,
    load_instance,
    save_instance,
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


# (record type, JSON path prefix, the record's object inside a document)
RECORDS = [
    (Commodity, "commodities[0].", lambda data: data["commodities"][0]),
    (CostParams, "cost.", lambda data: data["cost"]),
    (RoutingParams, "routing.", lambda data: data["routing"]),
]
RECORD_FIELDS = [
    pytest.param(path, section, f, id=path + f.name)
    for cls, path, section in RECORDS
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize("path, section, field", RECORD_FIELDS)
def test_missing_record_field_is_named(tmp_path, path, section, field):
    data = json.loads(json.dumps(MINIMAL))
    del section(data)[field.name]
    with pytest.raises(InstanceFormatError, match=re.escape(f"missing required field '{path}{field.name}'")):
        load_instance(write_json(tmp_path, data))


MISTYPED = {"int": ["1", 1.5, math.nan, math.inf], "float": ["1"], "str": [5, {"a": 1}, None]}


@pytest.mark.parametrize("path, section, field", RECORD_FIELDS)
def test_mistyped_record_field_is_named(tmp_path, path, section, field):
    for bad in MISTYPED[field.type]:
        data = json.loads(json.dumps(MINIMAL))
        section(data)[field.name] = bad
        with pytest.raises(InstanceFormatError, match=re.escape(f"field '{path}{field.name}' must be")):
            load_instance(write_json(tmp_path, data))


@pytest.mark.parametrize("key", ["nodes", "hubs"])
@pytest.mark.parametrize("bad", [0, 1.5, ["a"], None])
def test_non_string_node_or_hub_is_named(tmp_path, key, bad):
    data = json.loads(json.dumps(MINIMAL))
    data[key][-1] = bad
    where = f"{key}[{len(data[key]) - 1}]"
    with pytest.raises(InstanceFormatError, match=re.escape(f"field '{where}' must be a string, got {bad!r}")):
        load_instance(write_json(tmp_path, data))


def test_saved_instance_round_trips_byte_for_byte(tmp_path):
    """A desk-shape instance saves, loads and saves to the same bytes."""
    inst = instgen.generate(seed=400, n_nodes=60, n_hubs=6, n_commodities=100)
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_instance(inst, first)
    loaded = load_instance(first)
    save_instance(loaded, second)
    assert open(first, "rb").read() == open(second, "rb").read()
    assert (loaded.commodities, loaded.cost, loaded.routing) == (inst.commodities, inst.cost, inst.routing)


def _nonfinite(inst):
    time = inst.travel_time.copy()
    time[0, 1], time[1, 0], time[2, 3] = math.nan, math.inf, -math.inf
    return dataclasses.replace(inst, travel_time=time)


def _first_nodes(inst, n):
    zero = np.zeros((n, n))
    return Instance(("a",)[:n], ("a",)[:n], zero, zero.copy(), (), inst.cost, inst.routing, inst.horizon)


SAVE_CASES = {
    "desk": lambda inst: inst,
    "nonfinite": _nonfinite,
    "int64": lambda inst: dataclasses.replace(inst, travel_dist=np.rint(inst.travel_dist * 100).astype(np.int64)),
    "transposed": lambda inst: dataclasses.replace(inst, travel_time=inst.travel_time.T),
    "non-ascii": lambda inst: dataclasses.replace(
        inst,
        nodes=tuple(f"Ypsilanti-ñ-{n}" for n in inst.nodes),
        hubs=tuple(f"Ypsilanti-ñ-{h}" for h in inst.hubs),
        commodities=tuple(dataclasses.replace(c, id=f"€{c.id}\u2603") for c in inst.commodities),
    ),
    "no-commodities": lambda inst: dataclasses.replace(inst, commodities=()),
    "one-node": lambda inst: _first_nodes(inst, 1),
    "no-nodes": lambda inst: _first_nodes(inst, 0),
}


@pytest.mark.parametrize("case", SAVE_CASES)
def test_save_writes_the_bytes_of_json_dump(tmp_path, case):
    """The row-by-row writer against the plain `json` encoding it stands in for."""
    inst = SAVE_CASES[case](instgen.generate(seed=400, n_nodes=60, n_hubs=6, n_commodities=100))
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    expected = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_save_holds_no_matrix_as_python_lists(tmp_path):
    # Both 400x400 matrices as nested lists take about 10 MB; the file is 8 MB.
    inst = instgen.generate(seed=400, n_nodes=400, n_hubs=10, n_commodities=1000)
    tracemalloc.start()
    try:
        save_instance(inst, str(tmp_path / "city.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


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


def test_non_numeric_matrix_rejected(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["dist"][1] = ["far", 0.0]
    with pytest.raises(InstanceFormatError, match="field 'dist' is not a numeric matrix"):
        load_instance(write_json(tmp_path, data))


@pytest.mark.parametrize(
    "entry, detail",
    [("4.31", "'time[1][0]' is '4.31'"), (True, "'time[1][0]' is True"), (None, "'time[1][0]' is None"),
     (10**400, "int too large to convert to float")],
)
def test_matrix_entry_that_is_no_number_rejected(tmp_path, entry, detail):
    # A numeric string or a bool would convert to a float, null to NaN, and
    # an integer beyond the float range would end the load with OverflowError.
    data = json.loads(json.dumps(MINIMAL))
    data["time"][1][0] = entry
    message = f"field 'time' is not a numeric matrix: {detail}"
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        load_instance(write_json(tmp_path, data))


NUMBER_FIELDS = [
    pytest.param(path, section, f.name, id=path + f.name) for cls, path, section in RECORDS
    for f in dataclasses.fields(cls) if f.type != "str"
] + [pytest.param("horizon.", lambda data: data["horizon"], key, id="horizon." + key) for key in ("t_min", "t_max")]


@pytest.mark.parametrize("path, section, name", NUMBER_FIELDS)
def test_integer_beyond_float_range_is_named(tmp_path, path, section, name):
    # json reads 10**400 as an int, which float() and math.isfinite() refuse with OverflowError.
    data = json.loads(json.dumps(MINIMAL))
    section(data)[name] = 10**400
    message = f"field '{path}{name}' is an integer beyond the float range"
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        load_instance(write_json(tmp_path, data))


FLOAT_FIELDS = [
    pytest.param(path, section, f.name, id=path + f.name) for cls, path, section in RECORDS
    for f in dataclasses.fields(cls) if f.type == "float"
] + [pytest.param("horizon.", lambda data: data["horizon"], key, id="horizon." + key) for key in ("t_min", "t_max")]


@pytest.mark.parametrize("path, section, name", FLOAT_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scalar_is_named(tmp_path, path, section, name, bad):
    # json.dumps writes NaN and Infinity, which json.load reads back as floats.
    data = json.loads(json.dumps(MINIMAL))
    section(data)[name] = bad
    message = f"field '{path}{name}' must be a finite number, got {bad!r}"
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        load_instance(write_json(tmp_path, data))


def test_largest_integer_a_float_holds_loads(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["commodities"][0]["depart"] = data["horizon"]["t_max"] = int(sys.float_info.max)
    inst = load_instance(write_json(tmp_path, data))
    assert inst.commodities[0].depart == inst.horizon[1] == sys.float_info.max


def test_integer_beyond_the_int_digit_limit_rejected(tmp_path):
    # json.load reads no integer of more than sys.get_int_max_str_digits() digits and raises ValueError.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(MINIMAL).replace('"depart": 0.0', '"depart": 1' + "0" * 5000))
    with pytest.raises(InstanceFormatError, match=re.escape(f"{path}: Exceeds the limit")):
        load_instance(str(path))


def test_json_infinity_loads_then_validate_flags(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["dist"][1][0] = -math.inf  # json.dumps writes -Infinity, json.load reads it back
    report = validate(load_instance(write_json(tmp_path, data)))
    assert [(v.code, v.subject) for v in report.violations] == [
        ("negative-entry", ("dist", "b", "a")), ("nonfinite-entry", ("dist", "b", "a")),
    ]


def test_lookups_are_floats_whatever_the_matrix_layout():
    ints = np.array([[0, 3, 7], [2, 0, 4], [5, 1, 0]], dtype=np.int64)
    strided = np.arange(9.0).reshape(3, 3).T  # float64, not C-contiguous
    inst = dataclasses.replace(mk_instance(["a", "b", "c"], ["a"], ints), travel_time=ints, travel_dist=strided)
    for (i, u), (j, v) in itertools.product(enumerate("abc"), repeat=2):
        t, d = inst.time(u, v), inst.dist(u, v)
        assert type(t) is float and t == ints[i, j]
        assert type(d) is float and d == strided[i, j]
    assert inst.travel_time is ints and inst.travel_dist is strided  # stored as given
    for twin in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert twin.time("b", "a") == 2.0 and twin.dist("a", "b") == 3.0 and twin.travel_dist.shape == (3, 3)


def test_top_level_value_must_be_an_object(tmp_path):
    path = write_json(tmp_path, [MINIMAL])
    with pytest.raises(InstanceFormatError, match="top-level JSON value must be an object"):
        load_instance(path)


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


def test_triangle_count_after_witnesses_matches_brute_force():
    # 130 nodes with up to 3 % noise: the 20 witnesses come from the first
    # relays, and every later relay is only counted, in row blocks that do
    # not divide the candidate rows evenly.
    base = instgen.generate(seed=401, n_nodes=130, n_hubs=4, n_commodities=0)
    time = base.travel_time * np.random.default_rng(11).uniform(1.0, 1.03, base.travel_time.shape)
    nodes = list(base.nodes)
    n = len(nodes)
    rows = _triangle_rows(time)
    assert 64 < len(rows) and len(rows) % 64
    # viol[i, k, j]: time[i, j] exceeds time[i, k] + time[k, j], in the checker's float order.
    viol = (time[:, None, :] - (time[:, :, None] + time[None, :, :])) > EPS
    idx = np.arange(n)
    viol[idx, idx, :] = viol[:, idx, idx] = viol[idx, :, idx] = False
    first = np.argwhere(viol.transpose(1, 0, 2))[:20]  # (k, i, j), k-major then row-major
    assert first[-1][0] < n // 4
    out = []
    _check_triangle("time", time, nodes, out)
    assert [v.subject for v in out] == [("time", nodes[i], nodes[k], nodes[j]) for k, i, j in first] + [
        ("time", int(viol.sum()))
    ]
    assert out[-1].code == "triangle-more"


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
        ["b", "b"],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        commodities=(
            mk_commodity("c", "a", "b", 0.0),
            mk_commodity("d", "b", "a", 0.0),
            mk_commodity("c", "b", "a", 1.0),
        ),
    )
    dups = [v.subject for v in validate(inst).violations if v.code == "duplicate-id"]
    assert dups == [("node", "a"), ("hub", "b"), ("commodity", "c")]


_CODE_BASE = dict(
    nodes=["a", "b", "c"],
    hubs=["a"],
    time=[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    commodities=(mk_commodity("c0", "a", "b", 10.0),),
)
# One edit of a valid instance per finding code; each yields that code alone.
FINDING_CASES = {
    "duplicate-id": dict(commodities=(mk_commodity("c0", "a", "b", 10.0), mk_commodity("c0", "b", "a", 11.0))),
    "no-hubs": dict(hubs=[]),
    "hub-membership": dict(hubs=["z"]),
    "hub-count": dict(first_hubs=2),
    "negative-entry": dict(dist=[[0.0, -1.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    "nonfinite-entry": dict(dist=[[0.0, math.inf, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    "nonzero-diagonal": dict(dist=[[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    "triangle": dict(dist=[[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    "horizon": dict(horizon=(10.0, 5.0), commodities=()),
    "alpha-range": dict(alpha=1.5),
    "cost-negative": dict(bus_wait=-1.0),
    "capacity": dict(capacity=0),
    "threshold": dict(delta=-0.5),
    "bucket-len": dict(bucket=0.0),
    "passengers": dict(commodities=(mk_commodity("c0", "a", "b", 10.0, passengers=0),)),
    "passengers-capacity": dict(commodities=(mk_commodity("c0", "a", "b", 10.0, passengers=5),)),
    "origin-destination": dict(commodities=(mk_commodity("c0", "a", "a", 10.0),)),
    "node-membership": dict(commodities=(mk_commodity("c0", "a", "z", 10.0),)),
    "horizon-membership": dict(commodities=(mk_commodity("c0", "a", "b", 241.0),)),
}


def test_finding_cases_edit_a_valid_instance():
    assert validate(mk_instance(**_CODE_BASE)).ok


@pytest.mark.parametrize("code", FINDING_CASES)
def test_each_finding_code(code):
    inst = mk_instance(**{**_CODE_BASE, **FINDING_CASES[code]})
    assert {v.code for v in validate(inst).violations} == {code}


def test_finding_cases_cover_the_readme_codes():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    listing = readme.split("The codes are:", 1)[1].strip().split("\n\n", 1)[0]
    # Each bullet is "- label: `code`, ..."; the label may name the matrices.
    codes = {
        code
        for bullet in re.split(r"^- ", listing, flags=re.M)[1:]
        for code in re.findall(r"`([a-z]+(?:-[a-z]+)*)`", bullet.split(": ", 1)[1])
    }
    assert codes == set(FINDING_CASES)


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
