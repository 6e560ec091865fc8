"""The odmts attributes the benchmark in perfbench/ calls or wraps.

perfbench/spans.py traces a layer by replacing a module attribute with a
wrapper and skips an attribute the module no longer has, so a renamed or
removed hook would make its layer read 0 without any error. The list is
kept here, not imported from perfbench, so the tests do not depend on the
benchmark's code.
"""

import importlib

import pytest

HOOKS = (
    ("cli", "run_pipeline"),
    ("cli", "load_instance"),
    ("cli", "validate"),
    ("instance", "load_instance"),
    ("instance", "validate"),
    ("instance", "save_instance"),
    ("routegen", "compute_hub_sets"),
    ("routegen", "enumerate_pickup_routes"),
    ("routegen", "enumerate_dropoff_routes"),
    ("routegen", "dump_routes"),
    ("design", "build_design_model"),
    ("design", "solve_design"),
    ("design", "save_solution"),
    ("design", "solve_milp"),
    ("milp", "solve_milp"),
    ("milp", "_scipy_milp"),
    ("milp", "export_model"),
    ("fleet", "routes_to_tasks"),
    ("fleet", "build_sparse_graph"),
    ("fleet", "build_dense_graph"),
    ("fleet", "fleet_model"),
    ("fleet", "solve_fleet_sparse"),
    ("fleet", "recover_schedules"),
    ("fleet", "min_fleet_oracle"),
    ("fleet", "schedules_feasible"),
    ("fleet", "save_result"),
    ("metrics", "build_report"),
    ("metrics", "emit_report"),
)


@pytest.mark.parametrize("module, attribute", HOOKS)
def test_benchmark_hook_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"odmts.{module}"), attribute, None))

