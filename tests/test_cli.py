import json
import os

import pytest

from odmts import design, fleet, instgen
from odmts.cli import (
    EXIT_INVALID, EXIT_OK, EXIT_USAGE, PipelineConfig, _merge_config, build_parser, main, run_pipeline,
)
from odmts.instance import CostParams, load_instance, save_instance
from odmts.milp import write_lp

from model_files import read_lp

ARTIFACTS = ("routes.jsonl", "design.json", "fleet.json", "report.json", "report.csv")


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
        "--out", fleetf, "--formulation", "dense", "--check-oracle",
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
    fleet_cfg.write_text("formulation = dense\ncheck_oracle = true\n")
    parser = build_parser()
    args = _merge_config(parser, [
        "fleet-size", "--design", "d.json", "--out", "f.json", "--config", str(fleet_cfg),
    ])
    assert (args.formulation, args.check_oracle) == ("dense", True)

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
    cfgfile.write_text("seed = 5\nformulation = dense\n")
    plain, configured = str(tmp_path / "plain.json"), str(tmp_path / "configured.json")
    gen = ["gen", "--seed", "0", "--nodes", "8", "--commodities", "3"]
    assert main([*gen, "--out", plain]) == EXIT_OK
    assert main([*gen, "--out", configured, "--config", str(cfgfile)]) == EXIT_OK
    assert open(configured).read() == open(plain).read()

    args = _merge_config(build_parser(), [
        "fleet-size", "--design", "d.json", "--out", "f.json",
        "--formulation", "sparse", "--config", str(cfgfile),
    ])
    assert args.formulation == "sparse"


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
    assert back.var_names == [] and back.row_names == [] and back.objective == {}
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
            "--out", str(tmp_path / "fleet.json"), "--formulation", "dense",
            "--export-model", str(tmp_path / "f.lp"),
        ], 0, 1),
    ]
    for argv, n_design, n_fleet in runs:
        builds.update(design=0, fleet=0)
        assert main(argv) == EXIT_OK
        assert (builds["design"], builds["fleet"]) == (n_design, n_fleet), argv[0]


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
