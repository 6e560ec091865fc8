import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from odmts import design, fleet, instgen, milp, routegen
from odmts.cli import (
    EXIT_INVALID, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, PipelineConfig, _merge_config, build_parser, main,
    run_pipeline,
)
from odmts.instance import CostParams, instance_to_dict, load_instance, record_dict, save_instance, split_commodities
from odmts.milp import write_lp

from conftest import DESK_COST, euclid_instance, mk_commodity
from model_files import add_var, read_lp, read_names

ARTIFACTS = ("routes.jsonl", "design.json", "fleet.json", "report.json", "report.csv")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "pipeline_tiny")
LINES = os.path.join(os.path.dirname(__file__), "data", "pipeline_lines")


@pytest.fixture
def tiny_instance_file(tmp_path):
    path = str(tmp_path / "tiny.json")
    assert main([
        "gen", "--out", path, "--seed", "4", "--nodes", "9", "--hubs", "2",
        "--commodities", "6", "--t-max", "30",
    ]) == EXIT_OK
    return path


def test_gen_writes_loadable_instance(tiny_instance_file):
    inst = load_instance(tiny_instance_file)
    assert len(inst.nodes) == 9
    assert len(inst.commodities) == 6


def test_gen_output_is_a_fixed_point_of_load_and_save(tmp_path, tiny_instance_file):
    again = str(tmp_path / "again.json")
    save_instance(load_instance(tiny_instance_file), again)
    assert open(again, "rb").read() == open(tiny_instance_file, "rb").read()


def test_validate_ok(tiny_instance_file, capsys):
    assert main(["validate", "--instance", tiny_instance_file]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_bad_matrix(tmp_path, tiny_instance_file, capsys):
    data = json.load(open(tiny_instance_file))
    data["dist"][0][1] = -4.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(bad)]) == EXIT_INVALID
    assert "negative" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, value",
    [("nodes", 5), ("hubs", "h"), ("commodities", [5]), ("commodities", None), ("cost", 5),
     ("routing", None), ("horizon", [0, 30])],
)
def test_validate_rejects_section_of_wrong_type(tiny_instance_file, capsys, section, value):
    data = json.load(open(tiny_instance_file))
    data[section] = value
    with open(tiny_instance_file, "w") as fh:
        json.dump(data, fh)
    code = main(["validate", "--instance", tiny_instance_file])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err.startswith(f"[validate] {tiny_instance_file}: field '{section}") and err.count("\n") == 1, err


def test_validate_rejects_matrix_entry_that_is_no_number(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    save_instance(instgen.generate(seed=4, n_nodes=9, n_hubs=2, n_commodities=6), path)
    data = json.load(open(path))
    data["time"][0][1], data["dist"][1][2] = "4.31", True  # loaded as 4.31 and 1.0, they broke triangles
    with open(path, "w") as fh:
        json.dump(data, fh)
    code = main(["validate", "--instance", path])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err == f"[validate] {path}: field 'time' is not a numeric matrix: 'time[0][1]' is '4.31'\n"


@pytest.mark.parametrize("section, index, key", [("commodities", 0, "depart"), ("commodities", 5, "passengers"),
                                               ("horizon", None, "t_max")])
def test_validate_rejects_integer_beyond_float_range(tiny_instance_file, capsys, section, index, key):
    data = json.load(open(tiny_instance_file))
    (data[section] if index is None else data[section][index])[key] = 10**400
    with open(tiny_instance_file, "w") as fh:
        json.dump(data, fh)
    code = main(["validate", "--instance", tiny_instance_file])
    where = section if index is None else f"{section}[{index}]"
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"[validate] {tiny_instance_file}: field '{where}.{key}' is an integer beyond the float range\n"
    )


@pytest.mark.parametrize(
    "args",
    [["--nodes", "3", "--hubs", "5"], ["--nodes", "0", "--hubs", "0"], ["--t-min", "10", "--t-max", "5"]],
)
def test_gen_rejects_impossible_arguments(tmp_path, capsys, args):
    code = main(["gen", "--out", str(tmp_path / "x.json"), *args])
    _one_usage_line(code, capsys, "[gen] ")
    assert not (tmp_path / "x.json").exists()


def _assert_pipeline_golden(instance, out, golden):
    """`pipeline --check-oracle --export-model` on `instance` writes into
    `out` the bytes recorded in `golden`, and `instance` holds the recorded
    bytes of its file name too."""
    assert main([
        "pipeline", "--instance", str(instance), "--out", str(out), "--check-oracle",
        "--export-model", str(out / "design.lp"),
    ]) == EXIT_OK
    got = {os.path.basename(instance): open(instance, "rb").read()}
    got.update({name: (out / name).read_bytes() for name in (*ARTIFACTS, "design.lp")})
    for name, data in got.items():
        with open(os.path.join(golden, name), "rb") as fh:
            assert data == fh.read(), name


def test_pipeline_matches_golden_artifacts(tmp_path, tiny_instance_file):
    """The tiny instance and everything `pipeline --check-oracle
    --export-model` writes for it stay byte for byte as recorded in
    tests/data/pipeline_tiny."""
    _assert_pipeline_golden(tiny_instance_file, tmp_path / "run", GOLDEN)


def test_pipeline_with_bus_legs_matches_golden_artifacts(tmp_path):
    """A desk-cost instance whose design opens four lines and sends riders
    over one and two bus legs, some listed in line order against their path
    order: the instance and every artifact stay byte for byte as recorded in
    tests/data/pipeline_lines."""
    path = tmp_path / "lines.json"
    save_instance(
        instgen.generate(seed=4, n_nodes=12, n_hubs=4, n_commodities=10, side_km=16.0, cost=DESK_COST), str(path)
    )
    _assert_pipeline_golden(path, tmp_path / "run", LINES)
    design = json.load(open(os.path.join(LINES, "design.json")))
    assert len(design["opened_lines"]) == 4 and max(map(len, design["bus_legs"].values())) == 2


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == EXIT_INVALID


def test_stagewise_equals_pipeline(tmp_path, tiny_instance_file):
    routes = str(tmp_path / "routes.jsonl")
    designf = str(tmp_path / "design.json")
    fleetf = str(tmp_path / "fleet.json")
    reportf = str(tmp_path / "report.json")
    assert main(["enumerate-routes", "--instance", tiny_instance_file, "--out", routes]) == EXIT_OK
    assert main([
        "design", "--instance", tiny_instance_file, "--routes", routes, "--out", designf,
    ]) == EXIT_OK
    assert main([
        "fleet-size", "--instance", tiny_instance_file, "--design", designf,
        "--out", fleetf, "--check-oracle",
    ]) == EXIT_OK
    assert main([
        "report", "--instance", tiny_instance_file, "--design", designf,
        "--fleet", fleetf, "--out", reportf,
    ]) == EXIT_OK

    out = str(tmp_path / "pipe")
    assert main(["pipeline", "--instance", tiny_instance_file, "--out", out]) == EXIT_OK
    staged = json.load(open(reportf))
    piped = json.load(open(os.path.join(out, "report.json")))
    assert staged == piped


def test_pipeline_writes_artifacts_and_consistent_totals(tmp_path, tiny_instance_file):
    out = str(tmp_path / "run")
    cfg = PipelineConfig(instance=tiny_instance_file, out=out, check_oracle=True)
    assert run_pipeline(cfg) == EXIT_OK
    for name in ARTIFACTS:
        assert os.path.exists(os.path.join(out, name)), name
    report = json.load(open(os.path.join(out, "report.json")))
    design = json.load(open(os.path.join(out, "design.json")))
    assert report["total_cost"] == pytest.approx(design["objective"])


def test_pipeline_rejects_invalid_instance(tmp_path, tiny_instance_file):
    data = json.load(open(tiny_instance_file))
    data["time"][0][1] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = str(tmp_path / "runbad")
    cfg = PipelineConfig(instance=str(bad), out=out)
    assert run_pipeline(cfg) == EXIT_INVALID
    for name in ARTIFACTS:
        assert not os.path.exists(os.path.join(out, name)), name


def test_pipeline_rejects_duplicate_commodity_id(tmp_path, tiny_instance_file, capsys):
    data = json.load(open(tiny_instance_file))
    data["commodities"].append(dict(data["commodities"][0], depart=data["commodities"][0]["depart"] + 1.0))
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(data))
    out = str(tmp_path / "rundup")
    assert main(["pipeline", "--instance", str(bad), "--out", out]) == EXIT_INVALID
    assert "duplicate-id" in capsys.readouterr().err
    for name in ARTIFACTS:
        assert not os.path.exists(os.path.join(out, name)), name


def test_validate_checks_the_instance_the_stages_run(tmp_path, tiny_instance_file, capsys):
    # Every stage splits commodities to the capacity before it validates, and
    # so does `validate`: 5 riders at capacity 3 become a party of 3 and one of 2.
    data = json.load(open(tiny_instance_file))
    data["commodities"][0]["passengers"] = 5
    data["routing"]["shuttle_capacity"] = 3
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out
    assert main(["pipeline", "--instance", str(path), "--out", str(tmp_path / "run")]) == EXIT_OK


def test_capacity_below_one_is_a_finding(tmp_path, tiny_instance_file, capsys):
    assert main(["validate", "--instance", tiny_instance_file, "--capacity", "0"]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "[capacity]" in out and "passengers-capacity" not in out, out
    routes = str(tmp_path / "routes.jsonl")
    for argv in (
        ["pipeline", "--out", str(tmp_path / "run")],
        ["design", "--routes", routes, "--out", str(tmp_path / "design.json")],
    ):
        code = main([*argv, "--instance", tiny_instance_file, "--capacity", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID and "[capacity]" in err, err
        assert err.startswith("[validate] " if argv[0] == "pipeline" else "[design] "), err


def test_pipeline_capacity_override_changes_routing(tmp_path, tiny_instance_file):
    out1 = str(tmp_path / "k1")
    out3 = str(tmp_path / "k3")
    assert run_pipeline(PipelineConfig(instance=tiny_instance_file, out=out1, capacity=1)) == EXIT_OK
    assert run_pipeline(PipelineConfig(instance=tiny_instance_file, out=out3, capacity=3)) == EXIT_OK
    r1 = json.load(open(os.path.join(out1, "report.json")))
    r3 = json.load(open(os.path.join(out3, "report.json")))
    assert r1["capacity"] == 1 and r3["capacity"] == 3
    assert r3["total_cost"] <= r1["total_cost"] + 1e-6


def test_pipeline_export_model(tmp_path, tiny_instance_file):
    out = str(tmp_path / "runx")
    model_path = str(tmp_path / "design.lp")
    cfg = PipelineConfig(instance=tiny_instance_file, out=out, export_model=model_path)
    assert run_pipeline(cfg) == EXIT_OK
    assert "Minimize" in open(model_path).read()


def test_export_model_flag_on_design_command(tmp_path, tiny_instance_file):
    routes = str(tmp_path / "routes.jsonl")
    designf = str(tmp_path / "design.json")
    mps = str(tmp_path / "design.mps")
    main(["enumerate-routes", "--instance", tiny_instance_file, "--out", routes])
    assert main([
        "design", "--instance", tiny_instance_file, "--routes", routes,
        "--out", designf, "--export-model", mps,
    ]) == EXIT_OK
    assert open(mps).read().startswith("NAME")


def test_config_file_supplies_flags(tmp_path, tiny_instance_file, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"instance = {tiny_instance_file}\n# comment\n")
    assert main(["validate", "--config", str(cfgfile)]) == EXIT_OK


def test_config_line_without_equals_is_a_usage_error(tmp_path, tiny_instance_file, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"instance = {tiny_instance_file}\ncapacity 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "config line must be 'key = value': 'capacity 3'" in capsys.readouterr().err


def test_unreadable_config_is_a_usage_error(tmp_path, tiny_instance_file, capsys):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--instance", tiny_instance_file, "--config", str(missing)])
    assert exc.value.code == 2
    assert str(missing) in capsys.readouterr().err


def test_config_coerces_typed_values(tmp_path, tiny_instance_file):
    out = str(tmp_path / "cfgrun")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("capacity = 2\ndelta = 1.0\ncheck-oracle = true\n")
    assert main([
        "pipeline", "--instance", tiny_instance_file, "--out", out,
        "--config", str(cfgfile),
    ]) == EXIT_OK
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["capacity"] == 2


def test_missing_artifact_file_is_reported(tmp_path, tiny_instance_file, capsys):
    code = main([
        "fleet-size", "--instance", tiny_instance_file,
        "--design", str(tmp_path / "absent.json"), "--out", str(tmp_path / "f.json"),
    ])
    assert code != EXIT_OK
    assert "absent.json" in capsys.readouterr().err


@pytest.fixture
def tiny_pipeline(tmp_path, tiny_instance_file):
    out = tmp_path / "run"
    assert main(["pipeline", "--instance", tiny_instance_file, "--out", str(out)]) == EXIT_OK
    return out


def _one_usage_line(code, capsys, prefix):
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_report_rejects_fleet_without_size(tmp_path, tiny_instance_file, tiny_pipeline, capsys):
    fleet = tmp_path / "fleet.json"
    fleet.write_text('{"schedules": []}')
    code = main([
        "report", "--instance", tiny_instance_file, "--design", str(tiny_pipeline / "design.json"),
        "--fleet", str(fleet), "--out", str(tmp_path / "r.json"),
    ])
    _one_usage_line(code, capsys, f"[report] {fleet}: ")


def test_report_rejects_non_json_fleet(tmp_path, tiny_instance_file, tiny_pipeline, capsys):
    fleet = tmp_path / "fleet.json"
    fleet.write_text("not json")
    code = main([
        "report", "--instance", tiny_instance_file, "--design", str(tiny_pipeline / "design.json"),
        "--fleet", str(fleet), "--out", str(tmp_path / "r.json"),
    ])
    _one_usage_line(code, capsys, f"[report] {fleet}: ")


def test_fleet_size_rejects_empty_design(tmp_path, tiny_instance_file, capsys):
    design = tmp_path / "design.json"
    design.write_text("{}")
    code = main([
        "fleet-size", "--instance", tiny_instance_file, "--design", str(design), "--out", str(tmp_path / "f.json"),
    ])
    _one_usage_line(code, capsys, f"[fleet-size] {design}: ")


def test_design_rejects_malformed_routes(tmp_path, tiny_instance_file, capsys):
    routes = tmp_path / "routes.jsonl"
    routes.write_text('{"kind": "pickup"}\n')
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(routes), "--out", str(tmp_path / "d.json"),
    ])
    _one_usage_line(code, capsys, f"[design] {routes}: line 1 ")


def _edit_json(source, target, edit):
    """Write the JSON document at `source` to `target` with `edit` applied."""
    data = json.loads(source.read_text())
    edit(data)
    target.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d.update(fleet_size="lots"), id="size-text"),
        pytest.param(lambda d: d.update(fleet_size=99), id="size-not-the-schedule-count"),
        pytest.param(lambda d: d.update(fleet_size=3.0), id="size-float"),
        pytest.param(lambda d: d.update(fleet_size=True, schedules=d["schedules"][:1]), id="size-bool"),
        pytest.param(lambda d: d["schedules"].__setitem__(0, "ab"), id="schedule-text"),
        pytest.param(lambda d: d["schedules"].__setitem__(0, [1, 2]), id="schedule-of-numbers"),
        pytest.param(lambda d: d["schedules"].__setitem__(0, {"a": 1}), id="schedule-object"),
        pytest.param(lambda d: d.update(schedules="abc"), id="schedules-text"),
    ],
)
def test_report_rejects_mistyped_fleet(tmp_path, tiny_instance_file, tiny_pipeline, capsys, edit):
    fleet = tmp_path / "fleet.json"
    _edit_json(tiny_pipeline / "fleet.json", fleet, edit)
    code = main([
        "report", "--instance", tiny_instance_file, "--design", str(tiny_pipeline / "design.json"),
        "--fleet", str(fleet), "--out", str(tmp_path / "r.json"),
    ])
    _one_usage_line(code, capsys, f"[report] {fleet}: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d.update(objective="cheap"), id="objective-text"),
        pytest.param(lambda d: d["breakdown"].update(bus_fixed="0"), id="breakdown-text"),
        pytest.param(lambda d: d["breakdown"].pop("route_cost"), id="breakdown-field-missing"),
        pytest.param(lambda d: d.update(opened_lines=[["n0", "zz"]]), id="line-to-non-hub"),
        pytest.param(lambda d: d["bus_legs"].update(c0=[["n0", "zz"]]), id="bus-leg-to-non-hub"),
        pytest.param(lambda d: d["bus_legs"].update(zz=[]), id="bus-legs-of-unknown-commodity"),
        pytest.param(lambda d: d["direct"].append("zz"), id="direct-unknown-commodity"),
        pytest.param(lambda d: d.update(bus_legs=[]), id="bus-legs-not-an-object"),
        pytest.param(lambda d: d["direct"].remove("c0"), id="commodity-not-served"),
    ],
)
def test_report_rejects_mistyped_design(tmp_path, tiny_instance_file, tiny_pipeline, capsys, edit):
    design = tmp_path / "design.json"
    _edit_json(tiny_pipeline / "design.json", design, edit)
    code = main([
        "report", "--instance", tiny_instance_file, "--design", str(design),
        "--fleet", str(tiny_pipeline / "fleet.json"), "--out", str(tmp_path / "r.json"),
    ])
    _one_usage_line(code, capsys, f"[report] {design}: ")
    assert not (tmp_path / "r.json").exists()


def test_design_line_of_equal_hubs_rejected(tmp_path, tiny_instance_file, tiny_pipeline, capsys):
    hub = load_instance(tiny_instance_file).hubs[0]
    design = tmp_path / "design.json"
    _edit_json(tiny_pipeline / "design.json", design, lambda d: d.update(opened_lines=[[hub, hub]]))
    code = main([
        "fleet-size", "--instance", tiny_instance_file, "--design", str(design), "--out", str(tmp_path / "f.json"),
    ])
    assert "bus line endpoints must differ" in _one_usage_line(code, capsys, f"[fleet-size] {design}: ")


@pytest.mark.parametrize(
    "edit,field",
    [
        pytest.param(
            {"opened_lines": ["ab"], "bus_legs": {"c": ["ab"]}, "direct": "c"}, "opened_lines", id="all-strings"
        ),
        pytest.param({"opened_lines": [["a", "b", "a"]]}, "opened_lines", id="line-of-three"),
        pytest.param({"bus_legs": {"c": ["ab"]}}, "bus_legs.c", id="leg-string"),
        pytest.param({"bus_legs": {"c": "ab"}}, "bus_legs.c", id="legs-string"),
        pytest.param({"direct": "c"}, "direct", id="direct-string"),
        pytest.param({"direct": [["c"]]}, "direct", id="direct-entry-list"),
    ],
)
def test_design_of_mistyped_lines_or_ids_rejected(tmp_path, capsys, edit, field):
    """Strings where lists of ids belong: on an instance with hubs a and b
    and commodity c, the string "ab" must not read as the line (a, b)."""
    points = {"a": (0.0, 0.0), "b": (10.0, 0.0), "o": (5.0, 5.0)}
    inst = str(tmp_path / "abc.json")
    save_instance(euclid_instance(points, ["a", "b"], (mk_commodity("c", "o", "a", 0.0),)), inst)
    breakdown = dict.fromkeys(("bus_fixed", "bus_inconvenience", "direct_cost", "route_cost"), 0.0)
    data = {"opened_lines": [], "bus_legs": {"c": []}, "direct": ["c"], "selected_routes": [], "objective": 0.0,
            "breakdown": breakdown}
    design = tmp_path / "design.json"
    design.write_text(json.dumps({**data, **edit}))
    code = main(["fleet-size", "--instance", inst, "--design", str(design), "--out", str(tmp_path / "f.json")])
    assert f"'{field}'" in _one_usage_line(code, capsys, f"[fleet-size] {design}: ")


def test_fleet_size_rejects_legs_that_miss_the_dropoff_hub(tmp_path, capsys):
    """c0 rides n9 -> n10 -> n4 in the recorded design; without its last
    leg its itinerary does not reach the dropoff hub."""
    design = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", design, lambda d: d["bus_legs"]["c0"].pop())
    code = main([
        "fleet-size", "--instance", os.path.join(LINES, "lines.json"), "--design", str(design),
        "--out", str(tmp_path / "f.json"),
    ])
    assert "do not reach the dropoff hub n4" in _one_usage_line(code, capsys, f"[fleet-size] {design}: ")
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize(
    "field,value",
    [("cost", "abc"), ("dist", None), ("start_time", [1.0]), ("duration", True), ("xi", "abc"), ("xi", ["a"]),
     ("passengers", 1.5), ("passengers", "1"), ("passengers", math.inf)],
    ids=["cost-text", "dist-null", "start-list", "duration-bool", "xi-text", "xi-entry-text", "passengers-fraction",
         "passengers-text", "passengers-infinite"],
)
def test_design_rejects_route_of_mistyped_number(tmp_path, tiny_instance_file, tiny_pipeline, capsys, field, value):
    lines = (tiny_pipeline / "routes.jsonl").read_text().splitlines()
    route = json.loads(lines[1])
    route[field] = value
    routes = tmp_path / "routes.jsonl"
    routes.write_text("\n".join([lines[0], json.dumps(route), *lines[2:]]) + "\n")
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(routes), "--out", str(tmp_path / "d.json"),
    ])
    assert field in _one_usage_line(code, capsys, f"[design] {routes}: line 2 ")


@pytest.mark.parametrize(
    "arcs",
    [["xy"], [[1, 2]], [{"a": 1, "b": 2}], [["n0", "zz"]], [["n0", "n1", "n2"]], "ab"],
    ids=["arc-text", "arc-of-numbers", "arc-object", "arc-to-unknown-node", "arc-of-three-nodes", "arcs-text"],
)
def test_design_rejects_route_of_mistyped_arcs(tmp_path, tiny_instance_file, tiny_pipeline, capsys, arcs):
    lines = (tiny_pipeline / "routes.jsonl").read_text().splitlines()
    route = json.loads(lines[1])
    route["arcs"] = arcs
    routes = tmp_path / "routes.jsonl"
    routes.write_text("\n".join([lines[0], json.dumps(route), *lines[2:]]) + "\n")
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(routes), "--out", str(tmp_path / "d.json"),
    ])
    assert "arcs" in _one_usage_line(code, capsys, f"[design] {routes}: line 2 ")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("field", ["kind", "hub"])
def test_design_rejects_route_of_unknown_kind_or_hub(tmp_path, tiny_instance_file, tiny_pipeline, capsys, field):
    inst = load_instance(tiny_instance_file)
    lines = (tiny_pipeline / "routes.jsonl").read_text().splitlines()
    route = json.loads(lines[1])
    route[field] = "shuttle" if field == "kind" else next(n for n in inst.nodes if n not in inst.hubs)
    routes = tmp_path / "routes.jsonl"
    routes.write_text("\n".join([lines[0], json.dumps(route), *lines[2:]]) + "\n")
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(routes), "--out", str(tmp_path / "d.json"),
    ])
    _one_usage_line(code, capsys, f"[design] {routes}: line 2 ")


def _individual_route_twice(route):
    route["commodities"] *= 2


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (2, lambda r: r.update(cost=-50.0), "field 'cost' is -50.0, but route"),
        (2, lambda r: r.update(passengers=99), "field 'passengers' is 99, but route"),
        (6, lambda r: r.update(xi=r["xi"][:1]), "field 'xi' is ["),
        (2, _individual_route_twice, "it needs distinct members"),
        (6, lambda r: r.update(commodities=r["commodities"][:1] * 2), "it needs distinct members"),
    ],
    ids=["cost", "passengers", "xi-short", "commodity-twice", "shared-commodity-twice"],
)
def test_design_rejects_route_of_inconsistent_fields(
    tmp_path, tiny_instance_file, tiny_pipeline, capsys, line, edit, message
):
    """Line 6 of the tiny instance's routes is its shared route."""
    lines = (tiny_pipeline / "routes.jsonl").read_text().splitlines()
    route = json.loads(lines[line - 1])
    assert len(route["commodities"]) == (2 if line == 6 else 1)
    edit(route)
    lines[line - 1] = json.dumps(route)
    routes = tmp_path / "routes.jsonl"
    routes.write_text("\n".join(lines) + "\n")
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(routes), "--out", str(tmp_path / "d.json"),
    ])
    assert message in _one_usage_line(code, capsys, f"[design] {routes}: line {line} ")
    assert not (tmp_path / "d.json").exists()


def test_report_rejects_design_of_route_that_disagrees_with_itself(tmp_path, capsys):
    """`selected_routes` in design.json are read like routes.jsonl lines."""
    design = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", design, lambda d: d["selected_routes"][0].update(cost=0.0))
    code = main([
        "report", "--instance", os.path.join(LINES, "lines.json"), "--design", str(design),
        "--fleet", os.path.join(LINES, "fleet.json"), "--out", str(tmp_path / "r.json"),
    ])
    assert "field 'cost' is 0.0" in _one_usage_line(code, capsys, f"[report] {design}: ")


@pytest.mark.parametrize(
    "field", ["objective", "breakdown.bus_fixed", "breakdown.route_cost", "breakdown.direct_cost",
              "breakdown.bus_inconvenience"],
)
def test_report_rejects_design_whose_cost_does_not_add_up(tmp_path, capsys, field):
    """A written cost moved by 2e-6 relative no longer matches the cost the
    design's lines, routes, direct riders and legs add up to."""
    def move(data):
        record, key = (data, field) if field == "objective" else (data["breakdown"], field.split(".")[1])
        record[key] += 2e-6 * max(1.0, abs(record[key]))

    design = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", design, move)
    code = main([
        "report", "--instance", os.path.join(LINES, "lines.json"), "--design", str(design),
        "--fleet", os.path.join(LINES, "fleet.json"), "--out", str(tmp_path / "r.json"),
    ])
    assert f"field '{field}' is " in _one_usage_line(code, capsys, f"[report] {design}: ")
    assert not (tmp_path / "r.json").exists()


def test_unedited_design_loads_with_its_written_numbers():
    inst = load_instance(os.path.join(LINES, "lines.json"))
    inst = dataclasses.replace(inst, commodities=tuple(split_commodities(inst.commodities, inst.routing.shuttle_capacity)))
    written = json.load(open(os.path.join(LINES, "design.json")))
    ds = design.load_solution(os.path.join(LINES, "design.json"), inst)
    assert ds.objective == written["objective"]
    assert record_dict(ds.breakdown) == written["breakdown"]


def test_design_stage_rejects_rider_on_two_pickup_and_two_dropoff_routes(tmp_path, monkeypatch, capsys):
    """A solver vector in which the one rider rides its pickup and dropoff
    routes at both hubs is feasible for the model, but no design: the stage
    fails rather than write it."""
    points = {"a": (0.0, 0.0), "b": (24.0, 0.0), "h1": (2.0, 0.0), "h2": (22.0, 0.0)}
    inst = euclid_instance(points, ["h1", "h2"], (mk_commodity("r", "a", "b", 0.0),), capacity=1, first_hubs=2,
                           last_hubs=2)
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)

    def every_route(dm):
        v = np.zeros(len(dm.model.var_names))
        v[dm.x] = 1
        return milp.MilpSolution(milp.OPTIMAL, float(dm.model.objective_vector() @ v), v, None), 1

    monkeypatch.setattr(design, "solve_in_rounds", every_route)
    out = tmp_path / "run"
    assert main(["pipeline", "--instance", path, "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "[design] commodity r has 2 pickup and 2 dropoff routes selected\n", err
    assert not (out / "design.json").exists()


def _lines_report(tmp_path, design, fleet_path):
    return main([
        "report", "--instance", os.path.join(LINES, "lines.json"), "--design", str(design),
        "--fleet", str(fleet_path), "--out", str(tmp_path / "r.json"),
    ])


def _merged_reversed(data):
    data.update(fleet_size=1, schedules=[[tid for sched in data["schedules"] for tid in sched][::-1]])


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_merged_reversed, id="all-tasks-in-one-reversed-schedule"),
        pytest.param(lambda d: d.update(fleet_size=1, schedules=[d["schedules"][0] + ["p:n1:c3"]]),
                     id="task-the-design-lacks"),
        pytest.param(lambda d: d.update(fleet_size=3, schedules=[*d["schedules"], []]), id="empty-schedule"),
        pytest.param(lambda d: d.update(fleet_size=3, schedules=[*d["schedules"], d["schedules"][0][:1]]),
                     id="task-twice"),
    ],
)
def test_report_rejects_fleet_that_does_not_serve_the_design(tmp_path, capsys, edit):
    """The pipeline_lines design makes 13 tasks, which need 2 shuttles;
    "p:n1:c3" is one of its routes without arcs, which make no task."""
    fleet_path = tmp_path / "fleet.json"
    _edit_json(Path(LINES) / "fleet.json", fleet_path, edit)
    code = _lines_report(tmp_path, os.path.join(LINES, "design.json"), fleet_path)
    assert "are no fleet for the tasks" in _one_usage_line(code, capsys, f"[report] {fleet_path}: ")
    assert not (tmp_path / "r.json").exists()


def test_fleet_stage_rejects_schedules_one_shuttle_cannot_serve(tmp_path, monkeypatch, capsys):
    """A solver that chains every task into one schedule fails the stage,
    in `fleet-size` and in `pipeline` alike."""
    monkeypatch.setattr(fleet, "solve_fleet", lambda g: fleet.FleetResult(1, (tuple(t.id for t in g.tasks),)))
    inst = os.path.join(LINES, "lines.json")
    runs = {
        "fleet-size": ["--design", os.path.join(LINES, "design.json"), "--out", str(tmp_path / "fleet.json")],
        "fleet": ["--out", str(tmp_path / "run")],
    }
    for stage, args in runs.items():
        command = "pipeline" if stage == "fleet" else stage
        assert main([command, "--instance", inst, *args]) == EXIT_SOLVER, command
        err = capsys.readouterr().err
        assert err == f"[{stage}] schedules do not serve the 13 tasks once each, back to back\n", err
    assert not (tmp_path / "fleet.json").exists() and not (tmp_path / "run" / "fleet.json").exists()


def _doubled_lines(data, inst):
    extra = sum(design.line_open_cost(h, l, inst) for h, l in data["opened_lines"])
    data["opened_lines"] *= 2
    data["breakdown"]["bus_fixed"] += extra
    data["objective"] += extra


def _line_removed(data, inst):
    cost = design.line_open_cost(*data["opened_lines"].pop(0), inst)
    data["breakdown"]["bus_fixed"] -= cost
    data["objective"] -= cost


def _leg_off_the_lines(data, inst):
    assert data["bus_legs"]["c3"] == [["n1", "n9"]] and ["n9", "n1"] not in data["opened_lines"]
    data["bus_legs"]["c3"] = [["n9", "n1"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_doubled_lines, "line ('n1', 'n9') is opened 2 times"),
        (_line_removed, "degree balance violated at hub n1: 0 out vs 1 in"),
        (_leg_off_the_lines, "commodity c3 uses unopened line ('n9', 'n1')"),
    ],
    ids=["line-opened-twice", "line-removed", "leg-on-unopened-line"],
)
def test_report_rejects_design_of_unbalanced_or_repeated_lines(tmp_path, capsys, edit, message):
    inst = load_instance(os.path.join(LINES, "lines.json"))
    path = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", path, lambda d: edit(d, inst))
    code = _lines_report(tmp_path, path, os.path.join(LINES, "fleet.json"))
    assert message in _one_usage_line(code, capsys, f"[report] {path}: ")
    assert not (tmp_path / "r.json").exists()


def _moved(field, by):
    def edit(route):
        route[field] += by
    return edit


@pytest.mark.parametrize(
    "index, edit, message",
    [
        (15, _moved("start_time", 500.0), "field 'start_time' is "),
        (0, _moved("duration", 500.0), "field 'duration' is "),
        (0, lambda r: r.update(arcs=[["n1", "n5"]]), "field 'arcs' is "),
    ],
    ids=["pickup-start", "dropoff-duration", "dropoff-arcs"],
)
def test_fleet_size_rejects_route_that_differs_from_its_materialization(tmp_path, capsys, index, edit, message):
    """Selected route 15 of the pipeline_lines design is its pickup at n4,
    route 0 its dropoff at n1; none of these edits changes a route's cost."""
    path = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", path, lambda d: edit(d["selected_routes"][index]))
    code = main([
        "fleet-size", "--instance", os.path.join(LINES, "lines.json"), "--design", str(path),
        "--out", str(tmp_path / "f.json"),
    ])
    err = _one_usage_line(code, capsys, f"[fleet-size] {path}: ")
    assert message in err and "materializes to" in err, err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("field", ["cost", "dist", "duration", "passengers", "start_time", "xi", "t1"])
def test_report_rejects_design_of_any_route_number_moved(tmp_path, capsys, field):
    """Adding 1 to one number field (to every entry of a list) of any
    selected route of the pipeline_lines design makes it no design: each
    field is rebuilt from the route's kind, hub, members and `t1`."""
    routes = json.loads((Path(LINES) / "design.json").read_text())["selected_routes"]
    moved = [k for k, route in enumerate(routes) if route[field] != []]
    assert len(moved) == (sum(route["kind"] == "dropoff" for route in routes) if field == "t1" else len(routes))
    for k in moved:
        def edit(data):
            route = data["selected_routes"][k]
            route[field] = [v + 1 for v in route[field]] if type(route[field]) is list else route[field] + 1

        path = tmp_path / f"design{k}.json"
        _edit_json(Path(LINES) / "design.json", path, edit)
        code = _lines_report(tmp_path, path, os.path.join(LINES, "fleet.json"))
        assert "field '" in _one_usage_line(code, capsys, f"[report] {path}: not a design solution: ")
        assert not (tmp_path / "r.json").exists()


def test_direct_rider_on_a_route_or_bus_leg_is_no_design(tmp_path, capsys):
    """c0 rides a pickup route, two bus legs and a dropoff route in the
    pipeline_lines design; listing it as direct as well, with its direct
    ride's cost added to the written cost, makes it no design."""
    inst = load_instance(os.path.join(LINES, "lines.json"))
    extra = routegen.direct_cost(inst.commodity("c0"), inst)

    def also_direct(data):
        assert data["bus_legs"]["c0"] and "c0" not in data["direct"]
        data["direct"].append("c0")
        data["objective"] += extra
        data["breakdown"]["direct_cost"] += extra

    path = tmp_path / "design.json"
    _edit_json(Path(LINES) / "design.json", path, also_direct)
    message = "commodity c0 is direct but has a selected route or a bus leg"
    code = main([
        "fleet-size", "--instance", os.path.join(LINES, "lines.json"), "--design", str(path),
        "--out", str(tmp_path / "f.json"),
    ])
    assert message in _one_usage_line(code, capsys, f"[fleet-size] {path}: not a design solution: ")
    code = _lines_report(tmp_path, path, os.path.join(LINES, "fleet.json"))
    assert message in _one_usage_line(code, capsys, f"[report] {path}: not a design solution: ")
    assert not (tmp_path / "f.json").exists() and not (tmp_path / "r.json").exists()


def test_routes_and_design_must_fit_the_run_capacity(tmp_path, capsys):
    """Routes enumerated at capacity 3 hold 2-rider routes, which a run at
    capacity 1 must not read: neither the route dump nor a design made of it."""
    inst, routes = str(tmp_path / "inst.json"), str(tmp_path / "routes.jsonl")
    gen = ["gen", "--out", inst, "--seed", "400", "--nodes", "30", "--hubs", "4", "--commodities", "40"]
    assert main(gen) == EXIT_OK
    assert main(["enumerate-routes", "--instance", inst, "--out", routes]) == EXIT_OK
    d1, d3 = str(tmp_path / "d1.json"), str(tmp_path / "d3.json")
    code = main(["design", "--instance", inst, "--routes", routes, "--out", d1, "--capacity", "1"])
    err = _one_usage_line(code, capsys, f"[design] {routes}: line ")
    assert " is not a route: " in err and "riders, over the shuttle capacity 1" in err
    assert not os.path.exists(d1)
    assert main(["design", "--instance", inst, "--routes", routes, "--out", d3]) == EXIT_OK
    capsys.readouterr()
    code = main(["fleet-size", "--instance", inst, "--design", d3, "--out", str(tmp_path / "f.json"),
                 "--capacity", "1"])
    err = _one_usage_line(code, capsys, f"[fleet-size] {d3}: not a design solution: ")
    assert "riders, over the shuttle capacity 1" in err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize(
    "overrides",
    ["delta = 1.5\n", "bucket = 10\n", "first_hubs = 4\nlast_hubs = 4\n"],
    ids=["looser-delta", "other-bucket", "more-hubs"],
)
def test_stagewise_run_with_routing_overrides_in_its_config(tmp_path, capsys, overrides):
    """The routing keys of a shared config file reach enumerate-routes only:
    design, fleet-size and report read those routes under the file's own
    detour bound, window and hub counts, and must still take them."""
    inst, routes = str(tmp_path / "inst.json"), str(tmp_path / "routes.jsonl")
    gen = ["gen", "--out", inst, "--seed", "400", "--nodes", "30", "--hubs", "4", "--commodities", "40"]
    assert main(gen) == EXIT_OK
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"instance = {inst}\n{overrides}")
    d, f = str(tmp_path / "d.json"), str(tmp_path / "f.json")
    cfg = ["--config", str(cfgfile)]
    assert main(["enumerate-routes", *cfg, "--out", routes]) == EXIT_OK
    assert main(["design", *cfg, "--routes", routes, "--out", d]) == EXIT_OK
    assert main(["fleet-size", *cfg, "--design", d, "--out", f]) == EXIT_OK
    assert main(["report", *cfg, "--design", d, "--fleet", f, "--out", str(tmp_path / "report")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def _generated_instance_dict():
    return json.loads(json.dumps(instance_to_dict(instgen.generate(seed=3, n_nodes=10, n_hubs=3, n_commodities=6))))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["hubs"].append(d["hubs"][1]), "[duplicate-id] hub id '{hub}' appears more than once"),
        (lambda d: d["commodities"][0].update(depart=math.nan), "field 'commodities[0].depart' must be a finite"),
        (lambda d: d["routing"].update(bucket_len=math.nan), "field 'routing.bucket_len' must be a finite"),
        (lambda d: d["cost"].update(shuttle_cost_per_km=math.inf),
         "field 'cost.shuttle_cost_per_km' must be a finite"),
    ],
    ids=["repeated-hub", "nan-depart", "nan-bucket", "infinite-cost"],
)
def test_instance_that_validate_passed_but_the_pipeline_crashed_on_is_invalid(tmp_path, capsys, edit, message):
    data = _generated_instance_dict()
    edit(data)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    message = message.format(hub=data["hubs"][1])
    assert main(["validate", "--instance", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert main(["pipeline", "--instance", str(path), "--out", str(tmp_path / "run")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("[validate] ") and message in err, err
    assert not (tmp_path / "run" / "routes.jsonl").exists()


def test_design_stage_reports_a_failed_solve(tmp_path, tiny_instance_file, tiny_pipeline, monkeypatch, capsys):
    """A scipy status that maps to no solve status (4: no solution reported)
    is a numerical failure: `solve_milp` raises and the stage exits 3."""
    failed = OptimizeResult(status=4, message="no solution reported", x=None, fun=None, success=False)
    monkeypatch.setattr(milp, "_scipy_milp", lambda **_: failed)
    m = milp.MilpModel("m")
    add_var(m, "x", 0.0, 1.0, integer=True)
    with pytest.raises(milp.SolveNumericalError, match="MILP solve failed: no solution reported"):
        milp.solve_milp(m)
    out = tmp_path / "d.json"
    code = main([
        "design", "--instance", tiny_instance_file, "--routes", str(tiny_pipeline / "routes.jsonl"),
        "--out", str(out),
    ])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == "[design] MILP solve failed: no solution reported\n"
    assert not out.exists()


def test_routing_flags_only_on_the_stages_that_read_them(tmp_path, tiny_instance_file, tiny_pipeline, capsys):
    argv = [
        "design", "--instance", tiny_instance_file, "--routes", str(tiny_pipeline / "routes.jsonl"),
        "--out", str(tmp_path / "design.json"),
    ]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--delta", "1"])
    assert exc.value.code == 2 and "--delta" in capsys.readouterr().err
    # The same key in a config file is allowed: enumerate-routes and pipeline take it.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("delta = 1\n")
    assert main([*argv, "--config", str(cfgfile)]) == EXIT_OK
    assert (tmp_path / "design.json").read_bytes() == (tiny_pipeline / "design.json").read_bytes()


def test_flags_override_config(tmp_path, tiny_instance_file):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"instance = {tmp_path / 'missing.json'}\n")
    # The explicit flag must win over the config value.
    assert main([
        "validate", "--config", str(cfgfile), "--instance", tiny_instance_file,
    ]) == EXIT_OK


def test_config_sets_subcommand_options(tmp_path):
    # Subcommand options with a non-None default are filled from the config
    # too; an explicit flag still wins.
    fleet_cfg = tmp_path / "fleet.cfg"
    fleet_cfg.write_text("export_model = f.lp\ncheck_oracle = true\n")
    parser = build_parser()
    args = _merge_config(parser, [
        "fleet-size", "--design", "d.json", "--out", "f.json", "--config", str(fleet_cfg),
    ])
    assert (args.export_model, args.check_oracle) == ("f.lp", True)

    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("seed = 5\nnodes = 30\n")
    args = _merge_config(parser, ["gen", "--out", "i.json", "--config", str(gen_cfg)])
    assert (args.seed, args.nodes) == (5, 30)
    path = str(tmp_path / "gen.json")
    assert main([
        "gen", "--out", path, "--config", str(gen_cfg), "--nodes", "12", "--commodities", "3",
    ]) == EXIT_OK
    assert len(load_instance(path).nodes) == 12


def test_explicit_flag_equal_to_default_beats_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 5\nnodes = 30\n")
    plain, configured = str(tmp_path / "plain.json"), str(tmp_path / "configured.json")
    gen = ["gen", "--seed", "0", "--nodes", "8", "--commodities", "3"]
    assert main([*gen, "--out", plain]) == EXIT_OK
    assert main([*gen, "--out", configured, "--config", str(cfgfile)]) == EXIT_OK
    assert open(configured).read() == open(plain).read()

    args = _merge_config(build_parser(), ["gen", "--out", "i.json", "--nodes", "60", "--config", str(cfgfile)])
    assert (args.seed, args.nodes) == (5, 60)


def test_config_rejects_key_no_option_takes(tmp_path, capsys):
    parser = build_parser()
    fleet_size = ["fleet-size", "--design", "d.json", "--out", "f.json", "--config"]
    for text, key in (("capacty = 3\n", "capacty"), ("formulation = dense\n", "formulation")):
        cfgfile = tmp_path / f"{key}.cfg"
        cfgfile.write_text(f"check_oracle = true\n{text}")
        with pytest.raises(SystemExit):
            _merge_config(parser, [*fleet_size, str(cfgfile)])
        err = capsys.readouterr().err
        assert f"no option takes {key}" in err and str(cfgfile) in err
    # A key of another subcommand is allowed, so one file serves several.
    shared = tmp_path / "shared.cfg"
    shared.write_text("seed = 5\ncheck_oracle = true\ncapacity = 2\n")
    args = _merge_config(parser, [*fleet_size, str(shared)])
    assert (args.check_oracle, args.capacity) == (True, 2)
    assert _merge_config(parser, ["gen", "--out", "i.json", "--config", str(shared)]).seed == 5


def test_config_values_take_each_option_type(tmp_path, tiny_instance_file, monkeypatch, capsys):
    # A numeric path stays a path; it is not read as a file descriptor.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "123").write_text(open(tiny_instance_file).read())
    (tmp_path / "path.cfg").write_text("instance = 123\n")
    assert main(["validate", "--config", "path.cfg"]) == EXIT_OK
    assert "valid" in capsys.readouterr().out

    # A store_true option takes only true or false.
    (tmp_path / "flag.cfg").write_text("check_oracle = yes\n")
    with pytest.raises(SystemExit):
        main(["pipeline", "--instance", "123", "--out", "run", "--config", "flag.cfg"])
    assert "check_oracle" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_pipeline_output_path_taken_by_file(tmp_path, tiny_instance_file, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_pipeline(PipelineConfig(instance=tiny_instance_file, out=str(taken))) == EXIT_USAGE
    api_err = capsys.readouterr().err
    assert api_err.startswith("[pipeline] ")
    assert main(["pipeline", "--instance", tiny_instance_file, "--out", str(taken)]) == EXIT_USAGE
    assert capsys.readouterr().err == api_err


def test_stagewise_artifacts_equal_pipeline_bytes(tmp_path):
    # The criterion-9 instance: the design opens lines and the fleet is non-trivial.
    cost = CostParams(
        alpha=1e-3, shuttle_cost_per_km=1.0, bus_cost_per_km=0.4, bus_trips_per_line=1, bus_wait=7.5,
    )
    inst = instgen.generate(
        seed=12, n_nodes=30, n_hubs=4, n_commodities=40, horizon=(0.0, 60.0), side_km=16.0, cost=cost,
    )
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    staged.mkdir()
    out = {name: str(staged / name) for name in ARTIFACTS}
    on_inst = ["--instance", path]
    assert main(["enumerate-routes", *on_inst, "--out", out["routes.jsonl"]]) == EXIT_OK
    assert main(["design", *on_inst, "--routes", out["routes.jsonl"], "--out", out["design.json"]]) == EXIT_OK
    assert main([
        "fleet-size", *on_inst, "--design", out["design.json"], "--out", out["fleet.json"], "--check-oracle",
    ]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert main([
            "report", *on_inst, "--design", out["design.json"], "--fleet", out["fleet.json"], "--out", out[name],
        ]) == EXIT_OK

    assert main(["pipeline", *on_inst, "--out", str(piped), "--check-oracle"]) == EXIT_OK
    design = json.load(open(piped / "design.json"))
    assert design["opened_lines"] and json.load(open(piped / "fleet.json"))["fleet_size"] > 1
    for name in ARTIFACTS:
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name


def test_fleet_size_exports_model_without_variables(tmp_path):
    inst = str(tmp_path / "empty.json")
    run = str(tmp_path / "run")
    lp = str(tmp_path / "fleet.lp")
    assert main(["gen", "--out", inst, "--commodities", "0"]) == EXIT_OK
    assert main(["pipeline", "--instance", inst, "--out", run]) == EXIT_OK
    assert main([
        "fleet-size", "--instance", inst, "--design", os.path.join(run, "design.json"),
        "--out", str(tmp_path / "fleet.json"), "--export-model", lp,
    ]) == EXIT_OK
    back = read_lp(lp)
    assert back.var_names == [] and back.row_names == [] and back.objective[0].size == 0
    again = str(tmp_path / "again.lp")
    write_lp(back, again)
    # The first line names the model; the rest must round-trip unchanged.
    assert open(again).read().splitlines()[1:] == open(lp).read().splitlines()[1:]


def test_export_builds_each_model_once(tmp_path, tiny_instance_file, monkeypatch):
    builds = {"design": 0, "fleet": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            builds[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(design, "build_design_model", counted("design", design.build_design_model))
    monkeypatch.setattr(fleet, "fleet_model", counted("fleet", fleet.fleet_model))
    run = str(tmp_path / "run")
    on_inst = ["--instance", tiny_instance_file]
    runs = [  # (argv, expected design builds, expected fleet builds)
        (["pipeline", *on_inst, "--out", run, "--export-model", str(tmp_path / "p.lp")], 1, 0),
        ([
            "design", *on_inst, "--routes", os.path.join(run, "routes.jsonl"),
            "--out", str(tmp_path / "design.json"), "--export-model", str(tmp_path / "d.lp"),
        ], 1, 0),
        ([
            "fleet-size", *on_inst, "--design", os.path.join(run, "design.json"),
            "--out", str(tmp_path / "fleet.json"), "--export-model", str(tmp_path / "f.lp"),
        ], 0, 1),
    ]
    for argv, n_design, n_fleet in runs:
        builds.update(design=0, fleet=0)
        assert main(argv) == EXIT_OK
        assert (builds["design"], builds["fleet"]) == (n_design, n_fleet), argv[0]


def test_check_oracle_disagreement_fails_the_stage(tmp_path, tiny_instance_file, tiny_pipeline, monkeypatch, capsys):
    monkeypatch.setattr(fleet, "min_fleet_oracle", lambda tasks, inst: -1)
    runs = {
        "[fleet-size] ": [
            "fleet-size", "--instance", tiny_instance_file, "--design", str(tiny_pipeline / "design.json"),
            "--out", str(tmp_path / "fleet.json"), "--check-oracle",
        ],
        "[fleet] ": ["pipeline", "--instance", tiny_instance_file, "--out", str(tmp_path / "again"), "--check-oracle"],
    }
    for label, argv in runs.items():
        assert main(argv) == EXIT_SOLVER, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(label) and err.count("\n") == 1, err
        assert " sparse=" in err and " matching=-1" in err, err
    assert not (tmp_path / "fleet.json").exists()


def test_check_oracle_builds_no_dense_graph(tmp_path, tiny_instance_file, tiny_pipeline, monkeypatch):
    def refuse(tasks, inst):
        raise AssertionError("the dense fleet graph was built")

    monkeypatch.setattr(fleet, "build_dense_graph", refuse)
    assert main([
        "fleet-size", "--instance", tiny_instance_file, "--design", str(tiny_pipeline / "design.json"),
        "--out", str(tmp_path / "fleet.json"), "--check-oracle",
    ]) == EXIT_OK
    again = ["pipeline", "--instance", tiny_instance_file, "--out", str(tmp_path / "again"), "--check-oracle"]
    assert main(again) == EXIT_OK


def test_pipeline_runs_when_joined_route_names_collide(tmp_path):
    """Riders a and b share routes whose model names, such as
    x[pickup,h1,a|b], are those of the routes of the rider 'a|b': the model
    keeps the columns apart by position and the run completes."""
    points = {"o": (0, 0), "h1": (6, 0), "h2": (12, 0), "d": (18, 1), "e": (18, -1)}
    riders = [mk_commodity("a", "o", "d", 0.0), mk_commodity("b", "o", "e", 0.0), mk_commodity("a|b", "o", "d", 0.0)]
    path, out = str(tmp_path / "bar.json"), tmp_path / "run"
    save_instance(euclid_instance(points, ["h1", "h2"], riders, delta=1.0, first_hubs=2, last_hubs=2), path)
    assert main(["validate", "--instance", path]) == EXIT_OK
    assert main([
        "pipeline", "--instance", path, "--out", str(out), "--check-oracle", "--export-model", str(out / "design.lp"),
    ]) == EXIT_OK
    names = read_names(str(out / "design.lp"))[0]
    assert len(set(names)) == len(names) and {"x[pickup,h1,a|b]", "x[pickup,h1,a\\|b]"} <= set(names)


@pytest.mark.parametrize("fmt,first", [("lp", "Minimize"), ("mps", "ROWS")])
def test_export_keeps_ids_with_line_breaks_in_comments(tmp_path, tiny_instance_file, fmt, first):
    data = json.load(open(tiny_instance_file))
    data["commodities"][0]["id"], data["commodities"][1]["id"] = "c\nq", "c\rr"
    path, model = tmp_path / "breaks.json", tmp_path / f"design.{fmt}"
    path.write_text(json.dumps(data))
    assert main(["pipeline", "--instance", str(path), "--out", str(tmp_path / "run"), "--export-model", str(model)]) == EXIT_OK
    lines = open(model, newline="").read().split("\n")
    assert all(line.startswith("\\ " if fmt == "lp" else "* ") for line in lines[1:lines.index(first)])
    assert {"eta[c\nq]", "eta[c\rr]"} <= set(read_names(str(model))[0])


def _stopped_at_time_limit(*args, **kwargs):
    return milp.MilpSolution(milp.TIME_LIMIT, None, np.empty(0), None)


def _flow_error(*args, **kwargs):
    raise fleet.FlowError("flow is not integral")


@pytest.mark.parametrize(
    "module, name, fake, line",
    [
        (design, "solve_milp", _stopped_at_time_limit, "[design] design solve ended time_limit, not optimal\n"),
        (fleet, "solve_fleet", _flow_error, "[fleet] flow is not integral\n"),
    ],
    ids=["design", "fleet"],
)
def test_solver_failure_fails_the_stage(tmp_path, tiny_instance_file, monkeypatch, capsys, module, name, fake, line):
    monkeypatch.setattr(module, name, fake)
    out = tmp_path / "run"
    code = main(["pipeline", "--instance", tiny_instance_file, "--out", str(out)])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == line
    assert not (out / "report.json").exists()


def test_pipeline_deterministic(tmp_path, tiny_instance_file):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert run_pipeline(PipelineConfig(instance=tiny_instance_file, out=out)) == EXIT_OK
    for name in ("report.json", "design.json", "routes.jsonl", "fleet.json"):
        assert open(os.path.join(out_a, name)).read() == open(os.path.join(out_b, name)).read()


def test_perturbed_pipeline_runs(tmp_path, tiny_instance_file):
    out = str(tmp_path / "noise")
    cfg = PipelineConfig(
        instance=tiny_instance_file, out=out, perturb_scale=1.0, perturb_seed=5
    )
    assert run_pipeline(cfg) == EXIT_OK
    assert os.path.exists(os.path.join(out, "report.json"))


def test_split_id_that_clashes_names_the_split(tmp_path, capsys):
    data = _generated_instance_dict()
    data["commodities"][0].update(id="a", passengers=4)
    data["commodities"][1].update(id="a#1", passengers=1)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    line = "splitting commodity 'a' to the shuttle capacity 3 makes the id 'a#1', which another commodity has"
    assert main(["validate", "--instance", str(path), "--capacity", "3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"[validate] {line}\n" and "duplicate-id" not in captured.out, captured
    assert main(["pipeline", "--instance", str(path), "--capacity", "3", "--out", str(tmp_path / "run")]) == EXIT_INVALID
    assert capsys.readouterr().err == f"[validate] {line}\n"
    assert not (tmp_path / "run" / "routes.jsonl").exists()
    data["commodities"][1].update(id="a#2")  # 4 riders at capacity 3 make a#0 and a#1 only
    path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path), "--capacity", "3"]) == EXIT_OK
    data["commodities"][1].update(id="a#1", passengers=4)  # split too: a#1#0 and a#1#1
    path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path), "--capacity", "3"]) == EXIT_OK
