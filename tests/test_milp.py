import itertools
import math
import os
import re
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odmts import design, fleet, instgen, milp, routegen
from odmts.milp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    MilpModel,
    ModelError,
    OPTIMAL,
    SolveNumericalError,
    TIME_LIMIT,
    UNBOUNDED,
    _check_solution,
    _constraint_rows,
    _sanitize_names,
    export_model,
    solve_milp,
    write_lp,
)

from conftest import DESK_COST, mk_instance
from model_files import add_constraint, add_var, read_lp, read_mps, reference_lp


def solve_lp(model):
    """The model's LP relaxation: `solve_milp` with no integer column."""
    return solve_milp(model, integer=False)


def bound_model():
    m = MilpModel(name="bound")
    x = add_var(m, "x")
    add_constraint(m, {x: 1.0}, GREATER_EQUAL, 2.5)
    m.set_objective([x], 1.0)
    return m


def test_lp_simple_bound():
    sol = solve_lp(bound_model())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.5)
    assert sol.x.tolist() == pytest.approx([2.5])


def test_lp_infeasible():
    m = MilpModel()
    x = add_var(m, "x", 0, 0)
    add_constraint(m, {x: 1.0}, GREATER_EQUAL, 1.0)
    m.set_objective([x], 1.0)
    sol = solve_lp(m)
    assert sol.status == INFEASIBLE and sol.x.size == 0


def test_lp_unbounded():
    m = MilpModel()
    x = add_var(m, "x")
    m.set_objective([x], -1.0)
    assert solve_lp(m).status == UNBOUNDED


def test_milp_rounds_up():
    m = MilpModel(name="bound")
    x = add_var(m, "x", 0.0, 100.0, integer=True)
    add_constraint(m, {x: 1.0}, GREATER_EQUAL, 2.5)
    m.set_objective([x], 1.0)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)


def test_milp_knapsack_matches_enumeration():
    m = MilpModel()
    x = add_var(m, "x", 0, 1, integer=True)
    y = add_var(m, "y", 0, 1, integer=True)
    add_constraint(m, {x: 1.0, y: 1.0}, LESS_EQUAL, 1.5)
    m.set_objective([x, y], [-1.0, -1.0])
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
    x = add_var(m, "x", 0, 1, integer=True)
    add_constraint(m, {x: 1.0}, GREATER_EQUAL, 2.0)
    m.set_objective([x], 1.0)
    assert solve_milp(m).status == INFEASIBLE


@pytest.mark.parametrize("sense, rhs, status", [
    (GREATER_EQUAL, 1.0, INFEASIBLE), (EQUAL, -1.0, INFEASIBLE), (LESS_EQUAL, -1e-5, INFEASIBLE),
    (GREATER_EQUAL, -1.0, OPTIMAL), (EQUAL, 1e-7, OPTIMAL), (LESS_EQUAL, 0.0, OPTIMAL),
])
def test_model_without_variables_is_infeasible_when_a_row_excludes_zero(sense, rhs, status):
    # With no variable every row's activity is 0; a row is met within FEAS_TOL or not at all.
    m = MilpModel("m")
    m.add_rows([], [], [], sense, rhs, ["r"])
    sol = solve_milp(m)
    assert (sol.status, sol.x.size) == (status, 0)
    assert (sol.objective, sol.best_bound) == ((0.0, 0.0) if status == OPTIMAL else (None, None))


def test_model_without_variables_writes_its_solve_log_line(tmp_path, monkeypatch):
    log = tmp_path / "solve.log"
    monkeypatch.setenv("ODMTS_SOLVE_LOG", str(log))
    m = MilpModel("m")
    m.add_rows([], [], [], GREATER_EQUAL, 1.0, ["r"])
    assert solve_milp(m).status == INFEASIBLE
    assert log.read_text() == "[lp] model=m vars=0 rows=1 nnz=0 status=infeasible objective=None\n"


def test_solve_log_dash_writes_to_stderr(monkeypatch, capsys):
    monkeypatch.setenv("ODMTS_SOLVE_LOG", "-")
    m = _two_var_model()
    m.set_objective([0, 1], 1.0)
    assert solve_milp(m, integer=False).status == OPTIMAL
    err = capsys.readouterr().err
    assert err.startswith("[lp] model=model vars=2 rows=0 nnz=0 status=optimal") and err.count("\n") == 1


def test_milp_time_limit_returns_incumbent_and_bound(tmp_path, monkeypatch):
    log = tmp_path / "solve.log"
    monkeypatch.setenv("ODMTS_SOLVE_LOG", str(log))
    rng = np.random.default_rng(0)
    m = MilpModel()
    n = 30
    for i in range(n):
        add_var(m, f"x{i}", 0, 1, integer=True)
    weights = rng.uniform(1.0, 10.0, size=n)
    add_constraint(m, {i: float(weights[i]) for i in range(n)}, LESS_EQUAL, float(weights.sum() / 2))
    m.set_objective(np.arange(n), [-float(rng.uniform(1.0, 10.0)) for _ in range(n)])
    sol = solve_milp(m, time_limit=1e-4)
    assert sol.status == TIME_LIMIT
    # HiGHS may or may not have found an incumbent by the limit.
    if sol.x.size:
        _check_solution(m, _constraint_rows(m), sol.x, integrality=True)
        assert sol.best_bound <= sol.objective
    else:
        assert sol.objective is None
    (line,) = log.read_text().splitlines()
    assert line.startswith("[milp] ") and " status=time_limit " in line


def test_milp_requires_bounded_integers():
    m = MilpModel()
    add_var(m, "x", 0, math.inf, integer=True)
    m.set_objective([0], 1.0)
    with pytest.raises(ModelError):
        solve_milp(m)
    relaxed = solve_lp(m)  # the relaxation has no integer column to bound
    assert relaxed.status == OPTIMAL and relaxed.objective == pytest.approx(0.0)


def test_bad_bounds_rejected():
    m = MilpModel()
    with pytest.raises(ModelError):
        add_var(m, "x", 2.0, 1.0)


@pytest.mark.parametrize("lb, ub", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_bound_rejected(lb, ub):
    m = MilpModel()
    with pytest.raises(ModelError, match="variable 'x' has invalid bounds"):
        add_var(m, "x", lb, ub)
    assert m.var_names == []


def test_lower_bound_of_plus_infinity_rejected():
    m = MilpModel()
    for ub in (math.inf, 1.0):
        with pytest.raises(ModelError, match="variable 'x' has invalid bounds lb inf"):
            add_var(m, "x", math.inf, ub)
    assert m.var_names == []


def test_upper_bound_of_minus_infinity_rejected():
    m = MilpModel()
    for lb in (-math.inf, 0.0):
        with pytest.raises(ModelError, match="variable 'x' has invalid bounds .* ub -inf"):
            add_var(m, "x", lb, -math.inf)
    assert m.var_names == []


def test_nonfinite_coefficient_rejected():
    m = MilpModel()
    x = add_var(m, "x")
    with pytest.raises(ModelError):
        add_constraint(m, {x: math.inf}, LESS_EQUAL, 1.0)


def _objective(m):
    """The objective entries as {column: value}."""
    return dict(zip(*(a.tolist() for a in m.objective)))


def _two_var_model():
    m = MilpModel()
    m.add_vars(["x", "y"], [0.0, 1.0], 5.0, [True, False])
    return m


@pytest.mark.parametrize(
    "block,message",
    [
        (dict(cols=[0, 2]), "row 'b' references unknown variable index 2"),
        (dict(cols=[0, -1]), "row 'b' references unknown variable index -1"),
        (dict(vals=[1.0, math.nan]), "row 'b' has non-finite coefficient nan on variable 1"),
        (dict(rhs=[1.0, -math.inf]), "row 'b' has non-finite right-hand side -inf"),
        (dict(sense=[LESS_EQUAL, "<"]), "row 'b' has unknown sense '<'"),
        (dict(rows=[0, 1, 1]), "row block from row 1 has mismatched lengths"),
        (dict(rows=[0, 2]), "row block from row 1 has mismatched lengths"),
        (dict(vals=[1.0]), "row block from row 1 has mismatched lengths"),
        (dict(names=["a"]), "row block from row 1 has mismatched lengths"),
        (dict(rhs=[1.0, 2.0, 3.0]), r"rhs of the row block from row 1 has shape \(3,\)"),
        (dict(sense=[LESS_EQUAL] * 3), r"sense of the row block from row 1 has shape \(3,\)"),
    ],
)
def test_add_rows_rejects_bad_block(block, message):
    m = _two_var_model()
    add_constraint(m, {0: 1.0}, LESS_EQUAL, 1.0, name="first")
    args = dict(rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0], sense=EQUAL, rhs=1.0, names=["a", "b"])
    with pytest.raises(ModelError, match=message):
        m.add_rows(**{**args, **block})
    assert m.row_names == ["first"]  # a rejected block adds nothing
    assert _constraint_rows(m)[0].shape == (1, 2)


@pytest.mark.parametrize(
    "blocks,message",
    [
        ([dict(names=["a", "b", "a"], integer=[True, False])], r"integer of the variable block from index 0 has shape"),
        ([dict(names=["a"]), dict(names=["c", "a"], lb=[0.0, math.nan])], "variable 'a' has invalid bounds lb nan"),
        ([dict(names=["a", "b"], lb=[0.0, 2.0], ub=1.0)], "variable 'b' has lb 2.0 > ub 1.0"),
        ([dict(names=["a", "b"], ub=[1.0, 2.0, 3.0])], r"ub of the variable block from index 0 has shape"),
    ],
)
def test_add_vars_rejects_bad_block(blocks, message):
    m = MilpModel()
    *good, bad = blocks
    for block in good:
        m.add_vars(**block)
    with pytest.raises(ModelError, match=message):
        m.add_vars(**bad)
    assert m.var_names == [n for block in good for n in block["names"]]
    assert len(m.lb) == len(m.var_names)


def test_add_rows_sums_repeated_columns_and_sorts():
    m = _two_var_model()
    m.add_rows(
        [0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [2.0, 1.0, 1.5, -1.0, 0.5],
        [LESS_EQUAL, GREATER_EQUAL, EQUAL], [4.0, 1.0, 0.0], ["c0", "c1", "c2"],
    )
    add_constraint(m, {1: -1.0, 0: 3.0}, EQUAL, 2.0, name="last")
    a, lo, hi = _constraint_rows(m)
    assert a.indptr.tolist() == [0, 2, 3, 3, 5]
    assert a.indices.tolist() == [0, 1, 0, 0, 1]
    assert a.data.tolist() == [0.5, 3.5, 0.0, 3.0, -1.0]  # a cancelled pair stays as an explicit 0
    assert lo.tolist() == [-math.inf, 1.0, 0.0, 2.0]
    assert hi.tolist() == [4.0, math.inf, 0.0, 2.0]
    assert m.row_names == ["c0", "c1", "c2", "last"]
    assert m.lb.tolist() == [0.0, 1.0] and m.ub.tolist() == [5.0, 5.0]
    assert m.integer.tolist() == [True, False]


@pytest.mark.parametrize(
    "cols,vals,message",
    [
        ([0, 2], [1.0, 1.0], "objective references unknown variable index 2"),
        ([-1], 1.0, "objective references unknown variable index -1"),
        ([0, 1], [1.0, math.inf], "objective has non-finite coefficient inf on variable 1"),
        ([0, 1], math.nan, "objective has non-finite coefficient nan on variable 0"),
        ([0, 1], [1.0], "objective has mismatched lengths: cols 2, vals 1"),
        ([[0, 1]], [[1.0, 1.0]], "objective has mismatched lengths: cols 2, vals 2"),
    ],
)
def test_set_objective_rejects_bad_entries(cols, vals, message):
    m = _two_var_model()
    m.set_objective([1], 2.0)
    with pytest.raises(ModelError, match=message):
        m.set_objective(cols, vals)
    assert _objective(m) == {1: 2.0}  # a rejected objective leaves the old one


def test_set_objective_sums_repeated_columns_and_sorts():
    m = _two_var_model()
    m.set_objective([1, 0, 1, 0], [2.0, -0.0, 0.5, 0.0])
    cols, vals = m.objective
    assert cols.tolist() == [0, 1] and vals.tolist() == [0.0, 2.5]  # an explicit zero stays
    m.set_objective(np.array([1, 0]), 3.0)
    assert _objective(m) == {0: 3.0, 1: 3.0}
    assert m.objective_vector().tolist() == [3.0, 3.0]


def test_integer_mask_applies_to_one_solve():
    m = MilpModel()
    m.add_vars(["x", "y"], 0.0, 10.0, integer=True)
    add_constraint(m, {0: 2.0, 1: 2.0}, LESS_EQUAL, 3.0, name="cap")
    m.set_objective([0, 1], [-1.0, -1.0])
    assert solve_milp(m, integer=False).objective == pytest.approx(-1.5)
    assert solve_milp(m, integer=[True, False]).objective == pytest.approx(-1.5)
    assert m.integer.tolist() == [True, True]
    assert solve_milp(m).objective == pytest.approx(-1.0)
    with pytest.raises(ModelError, match=r"integer mask of 'model' has shape \(1,\)"):
        solve_milp(m, integer=[True])
    assert m.integer.tolist() == [True, True]


def _checked_model():
    m = MilpModel()
    x = add_var(m, "x", 0, 10, integer=True)
    y = add_var(m, "y", 0, 10)
    add_constraint(m, {x: 1.0, y: 1.0}, LESS_EQUAL, 4.0, name="cap")
    add_constraint(m, {x: 1.0, y: -1.0}, GREATER_EQUAL, 0.0, name="floor")
    add_constraint(m, {y: 1.0}, EQUAL, 1.0, name="fix")
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
    x = add_var(m, "x", 0, 4)
    y = add_var(m, "y", 0, 4)
    for sense, (row, rhs) in zip(senses, [({x: 1.0, y: 2.0}, 4.0), ({x: 3.0, y: 1.0}, 6.0)]):
        add_constraint(m, row, sense, rhs)
    m.set_objective([x, y], [objective, objective])
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(objective * sum(expected))
    assert sol.x.tolist() == pytest.approx(expected)


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
    model = fleet.fleet_model(graph)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-6)
    assert np.abs(sol.x - np.round(sol.x)).max() <= 1e-6


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
    model = fleet.fleet_model(build(tasks, inst))
    return model


@pytest.mark.parametrize("seed", range(12))
def test_totally_unimodular_models_solve_integrally(seed):
    sol = solve_lp(_random_fleet_model(seed))
    assert sol.status == OPTIMAL
    assert np.abs(sol.x - np.round(sol.x)).max() <= 1e-6


def _random_bounded_milp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = MilpModel(name=f"rand{seed}")
    for i in range(n):
        add_var(m, f"x{i}", 0.0, 5.0, integer=bool(rng.integers(0, 2)))
    for _ in range(int(rng.integers(1, 5))):
        row = {i: float(rng.normal()) for i in range(n) if rng.random() < 0.7}
        if not row:
            row = {0: 1.0}
        add_constraint(m, row, LESS_EQUAL, float(rng.uniform(0.5, 8.0)))
    m.set_objective(np.arange(n), [float(rng.normal()) for _ in range(n)])
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
    assert a.x.tolist() == b.x.tolist()


# -- model files ---------------------------------------------------------------


def test_lp_text_contains_bound_row(tmp_path):
    m = MilpModel(name="one")
    x = add_var(m, "x", 1.5, 4.0)
    m.set_objective([x], 1.0)
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
    model = fleet.fleet_model(fleet.build_dense_graph(tasks, inst))
    expected = solve_lp(model).objective
    for fmt, reader in (("lp", read_lp), ("mps", read_mps)):
        path = str(tmp_path / f"fleet.{fmt}")
        export_model(model, path, fmt)
        assert solve_lp(reader(path)).objective == pytest.approx(expected, abs=1e-6)


DATA = Path(__file__).resolve().parent / "data"


def _golden_models():
    inst = instgen.generate(seed=1, n_nodes=12, n_hubs=3, n_commodities=10)
    hs = routegen.compute_hub_sets(inst)
    om, op = routegen.enumerate_pickup_routes(inst, hs), routegen.enumerate_dropoff_routes(inst, hs)
    tasks, tinst = _six_task_instance()
    return {
        "design_seed1": design.build_design_model(inst, om, op).model,
        "fleet_dense": fleet.fleet_model(fleet.build_dense_graph(tasks, tinst)),
        "fleet_sparse": fleet.fleet_model(fleet.build_sparse_graph(tasks, tinst)),
    }


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_exports_match_golden_files(tmp_path, fmt):
    """The exported text of these models must not change; tests/data holds
    the reference files."""
    for name, model in _golden_models().items():
        path = tmp_path / f"{name}.{fmt}"
        export_model(model, str(path), fmt)
        assert path.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes(), name


def test_exports_keep_signed_zero_coefficients_apart(tmp_path):
    m = MilpModel(name="zeros")
    m.add_vars(["a", "b", "c"])
    add_constraint(m, {0: 0.0, 1: -0.0, 2: -2.0}, LESS_EQUAL, -0.0, name="r")
    m.set_objective([0, 1], [-0.0, 0.0])
    export_model(m, str(tmp_path / "z.mps"), "mps")
    export_model(m, str(tmp_path / "z.lp"), "lp")
    mps = (tmp_path / "z.mps").read_text().splitlines()
    assert [line.split()[-1] for line in mps if line.startswith("    ")] == ["-0", "0", "0", "-0", "-2"]
    assert " r: 0 a + 0 b - 2 c <= -0" in (tmp_path / "z.lp").read_text()


def _sanitize_by_regex(names, max_len, prefix):
    written, used = [], set()
    for i, name in enumerate(names):
        clean = re.sub(r"[^A-Za-z0-9_]", "_", name)
        if not clean or clean[0].isdigit():
            clean = "_" + clean
        if len(clean) > max_len or clean in used:
            clean = next(f"{prefix}{j}" for j in itertools.count(i) if f"{prefix}{j}" not in used)
        written.append(clean)
        used.add(clean)
    return written


def test_sanitized_names_match_per_name_regex():
    names = ["x", "", "9lives", "a b", "a_b", "x1", "flow[\u00e9,\u0394]", "line\nbreak", "\U0001f68c bus",
             "tab\there", "longer_than_eight", "X4", "c-1", "ok_name", "\u00e9", "a.b", "x17", "a;b"]
    for max_len, prefix in ((8, "X"), (200, "x")):
        assert _sanitize_names(names, max_len, prefix) == _sanitize_by_regex(names, max_len, prefix)


_NAMES = st.one_of(
    st.sampled_from(
        ["", "a[", "a]", "a_", "9lives", "\u00e9", "\U0001f68c", "line\nbreak", "\n", "longer_than_eight", "y" * 201]
    ),
    st.integers(0, 12).map("x{}".format),
    st.integers(0, 12).map("X{}".format),
    st.text(max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_NAMES, max_size=14))
@example(["a[", "a]", "b", "x1", "X1"])  # at chunk 3, 'x1' is clean but an earlier chunk's fallback took it
def test_sanitize_chunks_match_per_name_regex(names):
    for chunk in (1, 3, 4096):
        with mock.patch.object(milp, "WRITE_CHUNK", chunk):
            for max_len, prefix in ((8, "X"), (200, "x")):
                assert _sanitize_names(names, max_len, prefix) == _sanitize_by_regex(names, max_len, prefix), chunk


def test_name_sanitization_emits_mapping(tmp_path):
    m = MilpModel(name="messy")
    x = add_var(m, "flow rate [a,b]", 0, 3)
    add_constraint(m, {x: 2.0}, GREATER_EQUAL, 1.0)
    m.set_objective([x], 1.0)
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


def test_export_model_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown model format 'xml'"):
        export_model(_two_var_model(), str(tmp_path / "m.xml"), "xml")
    assert not (tmp_path / "m.xml").exists()


@pytest.mark.parametrize("fmt,reader,names", [
    ("lp", read_lp, ["x2", "a[", "a]"]),  # the fallback for "a]" at position 2 would be x2
    ("mps", read_mps, ["X2", "a[", "a]"]),
])
def test_fallback_names_never_collide(tmp_path, fmt, reader, names):
    m = MilpModel(name="clash")
    m.add_vars(names, 0.0, 1.0)
    m.set_objective([0, 1, 2], [1.0, 2.0, 3.0])
    add_constraint(m, {0: 1.0, 1: 1.0, 2: 1.0}, GREATER_EQUAL, 1.0, name="cover")
    path = str(tmp_path / f"clash.{fmt}")
    mapping = export_model(m, path, fmt)
    assert list(mapping) == names
    assert len(set(mapping.values())) == 3
    assert mapping[names[0]] == names[0]  # the clean name keeps its spelling
    back = reader(path)
    assert len(back.var_names) == 3
    assert sorted(back.objective[1].tolist()) == [1.0, 2.0, 3.0]
    assert solve_lp(back).objective == pytest.approx(1.0)
    if fmt == "lp":
        assert " obj: 1 x2 + 2 a_ + 3 x3" in (tmp_path / "clash.lp").read_text()


def test_same_named_variables_are_kept_apart_by_position(tmp_path):
    m = MilpModel(name="twins")
    a, b = m.add_vars(["v[a|b]", "v[a|b]"], 0, 5)
    add_constraint(m, {a: 1.0}, GREATER_EQUAL, 1.0)
    add_constraint(m, {b: 1.0}, GREATER_EQUAL, 2.0)
    m.set_objective([a, b], [1.0, 3.0])
    assert m.var_names == ["v[a|b]", "v[a|b]"]
    assert solve_lp(m).x.tolist() == pytest.approx([1.0, 2.0])
    for fmt, reader in (("lp", read_lp), ("mps", read_mps)):
        path = str(tmp_path / f"twins.{fmt}")
        export_model(m, path, fmt)
        back = reader(path)
        assert len(set(back.var_names)) == 2
        assert solve_lp(back).objective == pytest.approx(7.0)


def test_same_named_rows_get_distinct_written_names(tmp_path):
    m = MilpModel(name="twins")
    a, b = add_var(m, "a", 0, 5), add_var(m, "b", 0, 5)
    add_constraint(m, {a: 1.0}, GREATER_EQUAL, 1.0, name="r")
    add_constraint(m, {b: 1.0}, GREATER_EQUAL, 2.0, name="r")
    m.set_objective([a, b], [1.0, 1.0])
    for fmt, reader in (("lp", read_lp), ("mps", read_mps)):
        path = str(tmp_path / f"twins.{fmt}")
        export_model(m, path, fmt)
        back = reader(path)
        assert len(back.row_names) == 2
        assert len(set(back.row_names)) == 2
        assert solve_lp(back).objective == pytest.approx(3.0)


def _edge_models():
    """Models that exercise the writers' corner cases."""
    empty_row = MilpModel(name="empty_row")
    empty_row.add_vars(["a", "b"], [0.0, -math.inf], [2.0, math.inf], [True, False])
    empty_row.add_rows(
        [0, 0, 2], [0, 1, 1], [1.0, -1.0, 4.0], [LESS_EQUAL, EQUAL, GREATER_EQUAL], [3.0, 0.0, -1.0], ["c0", "c1", "c2"]
    )
    empty_row.set_objective([1], 1.0)
    no_rows = MilpModel(name="no_rows")
    no_rows.add_vars(["p", "q", "r", "s"], 0.0, [1.0, 1.0, math.inf, 7.0], [True, True, False, True])
    no_rows.set_objective([0, 3], [-1.0, 2.0])
    no_vars = MilpModel(name="no_vars")
    no_vars.add_rows([], [], [], LESS_EQUAL, [1.0, 0.0], ["c0", "c1"])
    return {"empty_row": empty_row, "no_rows": no_rows, "no_vars": no_vars}


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_exports_do_not_depend_on_chunk_size(tmp_path, monkeypatch, fmt, chunk):
    """Pieces of 1 and 3 entries cut rows, columns, the objective, the
    name map and the bounds mid-way; the bytes must not change."""
    edge = _edge_models()
    whole = {}
    for name, model in edge.items():
        path = tmp_path / f"{name}.{fmt}"
        export_model(model, str(path), fmt)
        whole[name] = path.read_bytes()
    if fmt == "lp":
        assert b" c1: 0 a = 0\n" in whole["empty_row"]
        assert whole["no_vars"].endswith(b" obj: 0\nSubject To\n c0: 0 <= 1\n c1: 0 <= 0\nBounds\nEnd\n")
    monkeypatch.setattr(milp, "WRITE_CHUNK", chunk)
    for name, model in _golden_models().items():
        path = tmp_path / f"{name}.{fmt}"
        export_model(model, str(path), fmt)
        assert path.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes(), name
    for name, model in edge.items():
        path = tmp_path / f"{name}.{fmt}"
        export_model(model, str(path), fmt)
        assert path.read_bytes() == whole[name], name


_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1 / 3, -1e-9, 123456.789, -4.5e12]


@st.composite
def small_models(draw):
    """Models of up to 6 variables and 5 rows: signed zeros, negative first
    terms, empty rows, rows and objectives longer than a piece of 3,
    infinite bounds, mixed integrality, and no variables or no rows."""
    n = draw(st.integers(0, 6))
    names = st.sampled_from(["x", "y[1]", "z_2", "a b", "7up", "w", "v[0,1]", "x1"])
    lower = st.sampled_from([0.0, -0.0, -math.inf, -2.5, 1.5])
    upper = st.sampled_from([math.inf, 0.0, 3.0, 1e-7, 123456789.125])
    bounds = [sorted(pair) for pair in draw(st.lists(st.tuples(lower, upper), min_size=n, max_size=n))]
    m = MilpModel(name="small")
    m.add_vars(
        draw(st.lists(names, min_size=n, max_size=n, unique=True)),
        [lo for lo, _ in bounds], [hi for _, hi in bounds],
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )
    entry = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from(_VALUES))
    rows = draw(st.lists(st.lists(entry, max_size=7 if n else 0), max_size=5))
    if rows:
        m.add_rows(
            [r for r, row in enumerate(rows) for _ in row],
            [j for row in rows for j, _ in row],
            [v for row in rows for _, v in row],
            draw(st.lists(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]), min_size=len(rows), max_size=len(rows))),
            draw(st.lists(st.sampled_from(_VALUES), min_size=len(rows), max_size=len(rows))),
            draw(st.none() | st.lists(st.sampled_from(["r", "bal[1]", "c0"]), min_size=len(rows), max_size=len(rows)))
            or [f"c{r}" for r in range(len(rows))],
        )
    objective = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(_VALUES), max_size=n)) if n else {}
    m.set_objective(list(objective), list(objective.values()))
    return m


@settings(max_examples=100, deadline=None)
@given(small_models())
def test_write_lp_matches_reference_writer(model):
    expected = reference_lp(
        model, _sanitize_names(model.var_names, 200, "x"), _sanitize_names(model.row_names, 200, "c")
    ).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.lp")
        for chunk in (1, 3, milp.WRITE_CHUNK):
            with mock.patch.object(milp, "WRITE_CHUNK", chunk):
                write_lp(model, path)
            assert Path(path).read_bytes() == expected, chunk


def _synthetic_model(n_vars=2000, n_rows=5000, per_row=40):
    """n_vars variables, per_row distinct columns in each of n_rows rows."""
    m = MilpModel(name="synthetic")
    m.add_vars([f"v{i}" for i in range(n_vars)], 0.0, np.arange(n_vars) % 7 + 1.0, np.arange(n_vars) % 2 == 0)
    step = n_vars // per_row
    cols = (np.arange(n_rows)[:, None] * 7 + np.arange(per_row) * step) % n_vars
    m.add_rows(
        np.repeat(np.arange(n_rows), per_row), cols.ravel(), (cols.ravel() % 13 - 6) / 4.0,
        LESS_EQUAL, np.arange(n_rows) % 50.0, [f"c{r}" for r in range(n_rows)],
    )
    m.set_objective(np.arange(n_vars), np.arange(n_vars) % 19 + 1.0)
    return m


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_export_memory_stays_below_file_size(tmp_path, fmt):
    m = _synthetic_model()
    assert m._merged_rows()[0][-1] >= 200_000
    m.lb  # merge the column blocks before tracing
    path = tmp_path / f"synthetic.{fmt}"
    tracemalloc.start()
    try:
        export_model(m, str(path), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size, (peak, path.stat().st_size)


def test_solve_log_env(tmp_path, monkeypatch):
    log = tmp_path / "solve.log"
    monkeypatch.setenv("ODMTS_SOLVE_LOG", str(log))
    solve_lp(bound_model())
    model = fleet.fleet_model(fleet.build_dense_graph(*_six_task_instance()))
    solve_lp(model)
    first, second = log.read_text().splitlines()
    assert "status=optimal" in first
    assert " vars=1 rows=1 nnz=1 " in first
    # 6 source arcs sit in 2 rows each, 9 task arcs in 3, 6 sink arcs in 1.
    assert " vars=21 rows=12 nnz=45 " in second
    assert first.startswith("[lp] ") and second.startswith("[lp] ")
    assert "integer=" not in first + second and "iters=" not in first + second

    solve_milp(_checked_model())
    assert re.search(r"^\[milp\] model=model .* integer=1 nodes=\d+$", log.read_text().splitlines()[2])

    # One line per design round, all for the design model itself, each
    # with its integer-column count: the bus lines alone in round 1, more
    # in every later round. This criterion-5 instance takes two rounds.
    inst = instgen.generate(
        seed=204, n_nodes=60, n_hubs=6, n_commodities=100, horizon=(0.0, 60.0), side_km=16.0, cost=DESK_COST
    )
    hs = routegen.compute_hub_sets(inst)
    dm = design.build_design_model(
        inst, routegen.enumerate_pickup_routes(inst, hs), routegen.enumerate_dropoff_routes(inst, hs)
    )
    log.write_text("")
    _, rounds = design.solve_in_rounds(dm)
    lines = log.read_text().splitlines()
    assert len(lines) == rounds >= 2
    assert all(re.match(r"\[milp\] model=design ", line) for line in lines)
    counts = [int(re.search(r" integer=(\d+) ", line)[1]) for line in lines]
    assert counts[0] == len(dm.z) and all(a < b for a, b in zip(counts, counts[1:]))
