import itertools
import math

import numpy as np
import pytest

from odmts import fleet
from odmts.milp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    MilpModel,
    ModelError,
    OPTIMAL,
    SolveNumericalError,
    UNBOUNDED,
    _check_solution,
    _constraint_rows,
    export_model,
    read_lp,
    read_mps,
    solve_lp,
    solve_milp,
    write_lp,
)

from conftest import mk_instance


def bound_model():
    m = MilpModel(name="bound")
    x = m.add_var("x")
    m.add_constraint({x: 1.0}, GREATER_EQUAL, 2.5)
    m.set_objective({x: 1.0})
    return m


def test_lp_simple_bound():
    sol = solve_lp(bound_model())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.5)
    assert sol.values["x"] == pytest.approx(2.5)


def test_lp_infeasible():
    m = MilpModel()
    x = m.add_var("x", 0, 0)
    m.add_constraint({x: 1.0}, GREATER_EQUAL, 1.0)
    m.set_objective({x: 1.0})
    assert solve_lp(m).status == INFEASIBLE


def test_lp_unbounded():
    m = MilpModel()
    x = m.add_var("x")
    m.set_objective({x: -1.0})
    assert solve_lp(m).status == UNBOUNDED


def test_milp_rounds_up():
    m = bound_model()
    m.variables[0] = m.variables[0].__class__("x", 0.0, 100.0, True)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)


def test_milp_knapsack_matches_enumeration():
    m = MilpModel()
    x = m.add_var("x", 0, 1, integer=True)
    y = m.add_var("y", 0, 1, integer=True)
    m.add_constraint({x: 1.0, y: 1.0}, LESS_EQUAL, 1.5)
    m.set_objective({x: -1.0, y: -1.0})
    # Enumerate the four 0/1 points to fix the expected optimum.
    best = min(
        -a - b for a, b in itertools.product((0, 1), repeat=2) if a + b <= 1.5
    )
    assert best == -1
    sol = solve_milp(m)
    assert sol.objective == pytest.approx(best)
    assert sol.best_bound == pytest.approx(best, abs=1e-6)


def test_milp_infeasible():
    m = MilpModel()
    x = m.add_var("x", 0, 1, integer=True)
    m.add_constraint({x: 1.0}, GREATER_EQUAL, 2.0)
    m.set_objective({x: 1.0})
    assert solve_milp(m).status == INFEASIBLE


def test_milp_effort_limit_raises():
    from odmts.milp import SolveEffortError

    rng = np.random.default_rng(0)
    m = MilpModel()
    n = 30
    for i in range(n):
        m.add_var(f"x{i}", 0, 1, integer=True)
    weights = rng.uniform(1.0, 10.0, size=n)
    m.add_constraint({i: float(weights[i]) for i in range(n)}, LESS_EQUAL, float(weights.sum() / 2))
    m.set_objective({i: -float(rng.uniform(1.0, 10.0)) for i in range(n)})
    with pytest.raises(SolveEffortError) as err:
        solve_milp(m, time_limit=1e-4)
    assert hasattr(err.value, "incumbent") and hasattr(err.value, "bound")


def test_milp_requires_bounded_integers():
    m = MilpModel()
    m.add_var("x", 0, math.inf, integer=True)
    m.set_objective({0: 1.0})
    with pytest.raises(ModelError):
        solve_milp(m)


def test_duplicate_names_rejected():
    m = MilpModel()
    m.add_var("x")
    with pytest.raises(ModelError):
        m.add_var("x")


def test_bad_bounds_rejected():
    m = MilpModel()
    with pytest.raises(ModelError):
        m.add_var("x", 2.0, 1.0)


def test_nonfinite_coefficient_rejected():
    m = MilpModel()
    x = m.add_var("x")
    with pytest.raises(ModelError):
        m.add_constraint({x: math.inf}, LESS_EQUAL, 1.0)


def _checked_model():
    m = MilpModel()
    x = m.add_var("x", 0, 10, integer=True)
    y = m.add_var("y", 0, 10)
    m.add_constraint({x: 1.0, y: 1.0}, LESS_EQUAL, 4.0, name="cap")
    m.add_constraint({x: 1.0, y: -1.0}, GREATER_EQUAL, 0.0, name="floor")
    m.add_constraint({y: 1.0}, EQUAL, 1.0, name="fix")
    return m


@pytest.mark.parametrize("x,integrality", [((2.0, 1.0 + 1e-8), True), ((2.5, 1.0), False)])
def test_check_solution_accepts_feasible_point(x, integrality):
    m = _checked_model()
    _check_solution(m, _constraint_rows(m), np.array(x), integrality)


@pytest.mark.parametrize(
    "x,integrality,message",
    [
        ((4.0, 1.0), False, "constraint cap"),
        ((0.0, 1.0), False, "constraint floor"),
        ((2.0, 1.5), False, "constraint fix"),
        ((2.0, 0.5), False, "constraint fix"),
        ((5.0, 0.0), False, "constraint cap"),  # cap and fix violated: first row named
        ((2.5, 1.0), True, "integer variable x"),
    ],
)
def test_check_solution_names_violation(x, integrality, message):
    m = _checked_model()
    with pytest.raises(SolveNumericalError, match=message):
        _check_solution(m, _constraint_rows(m), np.array(x), integrality)


@pytest.mark.parametrize(
    "senses,objective,expected",
    [
        ((LESS_EQUAL, LESS_EQUAL), -1.0, (1.6, 1.2)),
        ((GREATER_EQUAL, GREATER_EQUAL), 1.0, (1.6, 1.2)),
        ((EQUAL, EQUAL), 1.0, (1.6, 1.2)),
        ((), -1.0, (4.0, 4.0)),
    ],
)
@pytest.mark.parametrize("solve", [solve_lp, solve_milp])
def test_row_kinds_solve_alone(solve, senses, objective, expected):
    m = MilpModel()
    x = m.add_var("x", 0, 4)
    y = m.add_var("y", 0, 4)
    for sense, (row, rhs) in zip(senses, [({x: 1.0, y: 2.0}, 4.0), ({x: 3.0, y: 1.0}, 6.0)]):
        m.add_constraint(row, sense, rhs)
    m.set_objective({x: objective, y: objective})
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(objective * sum(expected))
    assert (sol.values["x"], sol.values["y"]) == pytest.approx(expected)


def _six_task_instance():
    tasks = [
        fleet.Task("A", "x", "x", 0.0, 5.0),
        fleet.Task("B", "x", "x", 1.0, 5.0),
        fleet.Task("C", "x", "x", 2.0, 5.0),
        fleet.Task("D", "x", "x", 10.0, 5.0),
        fleet.Task("E", "x", "x", 11.0, 5.0),
        fleet.Task("F", "x", "x", 12.0, 5.0),
    ]
    inst = mk_instance(["x", "y"], ["x"], [[0.0, 1.0], [1.0, 0.0]])
    return tasks, inst


def test_fleet_lp_is_integral_with_objective_three():
    tasks, inst = _six_task_instance()
    graph = fleet.build_sparse_graph(tasks, inst)
    model, _ = fleet.fleet_model(graph)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-6)
    assert all(abs(v - round(v)) <= 1e-6 for v in sol.values.values())


def _random_fleet_model(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    nodes = [f"n{i}" for i in range(4)]
    coords = rng.uniform(0, 10, size=(4, 2))
    time = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(axis=2))
    np.fill_diagonal(time, 0.0)
    inst = mk_instance(nodes, [nodes[0]], time)
    tasks = []
    for i in range(n):
        a, b = rng.integers(0, 4, size=2)
        start = float(rng.uniform(0, 60))
        dur = inst.time(nodes[a], nodes[b]) + float(rng.uniform(0, 10))
        tasks.append(fleet.Task(f"t{i}", nodes[a], nodes[b], start, dur))
    kind = rng.choice(["dense", "sparse"])
    build = fleet.build_dense_graph if kind == "dense" else fleet.build_sparse_graph
    model, _ = fleet.fleet_model(build(tasks, inst))
    return model


@pytest.mark.parametrize("seed", range(12))
def test_totally_unimodular_models_solve_integrally(seed):
    sol = solve_lp(_random_fleet_model(seed))
    assert sol.status == OPTIMAL
    assert all(abs(v - round(v)) <= 1e-6 for v in sol.values.values())


def _random_bounded_milp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = MilpModel(name=f"rand{seed}")
    for i in range(n):
        m.add_var(f"x{i}", 0.0, 5.0, integer=bool(rng.integers(0, 2)))
    for _ in range(int(rng.integers(1, 5))):
        row = {i: float(rng.normal()) for i in range(n) if rng.random() < 0.7}
        if not row:
            row = {0: 1.0}
        m.add_constraint(row, LESS_EQUAL, float(rng.uniform(0.5, 8.0)))
    m.set_objective({i: float(rng.normal()) for i in range(n)})
    return m


@pytest.mark.parametrize("seed", range(10))
def test_milp_never_beats_lp_relaxation(seed):
    m = _random_bounded_milp(seed)
    lp = solve_lp(m)
    mip = solve_milp(m)
    assert lp.status == OPTIMAL and mip.status == OPTIMAL
    assert mip.objective >= lp.objective - 1e-6


def test_solve_is_deterministic():
    m = _random_bounded_milp(3)
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.objective == b.objective
    assert a.values == b.values


# -- model files ---------------------------------------------------------------


def test_lp_text_contains_bound_row(tmp_path):
    m = MilpModel(name="one")
    x = m.add_var("x", 1.5, 4.0)
    m.set_objective({x: 1.0})
    path = str(tmp_path / "one.lp")
    write_lp(m, path)
    text = open(path).read()
    assert "1.5 <= x <= 4" in text
    assert "Minimize" in text


@pytest.mark.parametrize("fmt,reader", [("lp", read_lp), ("mps", read_mps)])
@pytest.mark.parametrize("seed", range(5))
def test_export_round_trips_same_optimum(tmp_path, fmt, reader, seed):
    m = _random_bounded_milp(seed)
    direct = solve_milp(m)
    path = str(tmp_path / f"m{seed}.{fmt}")
    export_model(m, path, fmt)
    back = reader(path)
    again = solve_milp(back)
    assert again.status == direct.status == OPTIMAL
    assert again.objective == pytest.approx(direct.objective, abs=1e-6)


def test_fleet_model_export_cross_check(tmp_path):
    tasks, inst = _six_task_instance()
    model, _ = fleet.fleet_model(fleet.build_dense_graph(tasks, inst))
    expected = solve_lp(model).objective
    for fmt, reader in (("lp", read_lp), ("mps", read_mps)):
        path = str(tmp_path / f"fleet.{fmt}")
        export_model(model, path, fmt)
        assert solve_lp(reader(path)).objective == pytest.approx(expected, abs=1e-6)


def test_name_sanitization_emits_mapping(tmp_path):
    m = MilpModel(name="messy")
    x = m.add_var("flow rate [a,b]", 0, 3)
    m.add_constraint({x: 2.0}, GREATER_EQUAL, 1.0)
    m.set_objective({x: 1.0})
    for fmt in ("lp", "mps"):
        path = str(tmp_path / f"messy.{fmt}")
        mapping = export_model(m, path, fmt)
        assert "flow rate [a,b]" in mapping
        written = mapping["flow rate [a,b]"]
        assert " " not in written
        assert written in open(path).read()
        marker = "\\" if fmt == "lp" else "*"
        assert any(
            line.startswith(marker) and "name-map" in line for line in open(path)
        )
    # Same sanitization applied twice stays identical.
    again = export_model(m, str(tmp_path / "b.lp"), "lp")
    assert again == export_model(m, str(tmp_path / "c.lp"), "lp")


def test_solve_log_env(tmp_path, monkeypatch):
    log = tmp_path / "solve.log"
    monkeypatch.setenv("ODMTS_SOLVE_LOG", str(log))
    solve_lp(bound_model())
    assert "status=optimal" in log.read_text()
