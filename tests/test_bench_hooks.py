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
    ("milp", "_scipy_milp"),
    ("milp", "solve_milp"),
    ("milp", "export_model"),
    ("design", "solve_milp"),
    ("design", "build_design_model"),
    ("fleet", "solve_fleet_sparse"),
    ("fleet", "build_sparse_graph"),
    ("fleet", "min_fleet_oracle"),
    ("fleet", "schedules_feasible"),
    ("cli", "run_pipeline"),
    ("instance", "save_instance"),
)


@pytest.mark.parametrize("module, attribute", HOOKS)
def test_benchmark_hook_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"odmts.{module}"), attribute, None))

