import json
import os

import pytest

from odmts.cli import EXIT_INVALID, EXIT_OK, PipelineConfig, main, run_pipeline
from odmts.instance import load_instance

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


def test_flags_override_config(tmp_path, tiny_instance_file):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"instance = {tmp_path / 'missing.json'}\n")
    # The explicit flag must win over the config value.
    assert main([
        "validate", "--config", str(cfgfile), "--instance", tiny_instance_file,
    ]) == EXIT_OK


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
