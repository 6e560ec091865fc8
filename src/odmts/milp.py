"""Generic mixed-integer linear model container, exact solvers, and model-file
export.

Models are always minimization. Solving is delegated to the HiGHS engines
shipped with scipy: the continuous relaxation is solved with dual simplex so
that the result is an optimal *basic* solution (on totally unimodular systems
with integral right-hand sides this yields integral values), and integer
models are solved with branch-and-cut at a 1e-9 relative gap so reported
optima are proven.

Both solvers and the check of their solutions read the rows from one sparse
matrix with per-row bounds, lo <= A x <= hi, built once per solve.

Set the ODMTS_SOLVE_LOG environment variable to a file path ('-' for stderr)
to log one line per solve.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as _scipy_milp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-6
INT_TOL = 1e-6

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class ModelError(ValueError):
    """The model violates a structural invariant (bad bounds, dup names, ...)."""


class SolveNumericalError(RuntimeError):
    """The backend failed numerically or hit its pivot limit."""


class SolveEffortError(RuntimeError):
    """The effort limit was reached; carries the incumbent and best bound."""

    def __init__(self, message: str, incumbent: float | None, bound: float | None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


@dataclass(frozen=True)
class _Var:
    name: str
    lb: float
    ub: float
    integer: bool


@dataclass(frozen=True)
class _Constraint:
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    name: str


@dataclass
class MilpModel:
    """A minimization model built incrementally from variables and rows."""

    name: str = "model"
    variables: list[_Var] = field(default_factory=list)
    constraints: list[_Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> int:
        if name in self._index:
            raise ModelError(f"duplicate variable name {name!r}")
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        self._index[name] = len(self.variables)
        self.variables.append(_Var(name, float(lb), float(ub), integer))
        return len(self.variables) - 1

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float, name: str | None = None
    ) -> int:
        if sense not in _SENSES:
            raise ModelError(f"unknown sense {sense!r}")
        for idx, val in coeffs.items():
            if not 0 <= idx < len(self.variables):
                raise ModelError(f"constraint references unknown variable index {idx}")
            if not math.isfinite(val):
                raise ModelError(f"non-finite coefficient {val} on variable {idx}")
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite right-hand side {rhs}")
        row = tuple(sorted(coeffs.items()))
        cname = name if name is not None else f"c{len(self.constraints)}"
        self.constraints.append(_Constraint(row, sense, float(rhs), cname))
        return len(self.constraints) - 1

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        for idx, val in coeffs.items():
            if not 0 <= idx < len(self.variables):
                raise ModelError(f"objective references unknown variable index {idx}")
            if not math.isfinite(val):
                raise ModelError(f"non-finite objective coefficient {val}")
        self.objective = dict(coeffs)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for idx, val in self.objective.items():
            c[idx] = val
        return c

    def var_index(self, name: str) -> int:
        return self._index[name]


@dataclass
class MilpSolution:
    status: str
    objective: float | None
    values: dict[str, float]
    best_bound: float | None

    def value(self, name: str) -> float:
        return self.values[name]


def _log_solve(kind: str, model: MilpModel, status: str, objective, extra: str = "") -> None:
    target = os.environ.get("ODMTS_SOLVE_LOG")
    if not target:
        return
    line = (
        f"[{kind}] model={model.name} vars={len(model.variables)} "
        f"rows={len(model.constraints)} status={status} objective={objective} {extra}\n"
    )
    if target == "-":
        sys.stderr.write(line)
    else:
        with open(target, "a", encoding="utf-8") as fh:
            fh.write(line)


def _constraint_rows(model: MilpModel) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """All rows as one CSR matrix A with row bounds, lo <= A x <= hi:
    -inf/rhs for '<=', rhs/inf for '>=' and rhs/rhs for '='."""
    indptr = [0]
    cols: list[int] = []
    data: list[float] = []
    for con in model.constraints:
        for idx, val in con.coeffs:
            cols.append(idx)
            data.append(val)
        indptr.append(len(cols))
    a = sp.csr_matrix(
        (np.array(data, dtype=float), np.array(cols, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(model.constraints), len(model.variables)),
    )
    lo = np.array([-np.inf if con.sense == LESS_EQUAL else con.rhs for con in model.constraints])
    hi = np.array([np.inf if con.sense == GREATER_EQUAL else con.rhs for con in model.constraints])
    return a, lo, hi


def _check_solution(model: MilpModel, rows, x: np.ndarray, integrality: bool) -> None:
    """Raise on the first row of `rows` = (A, lo, hi) that x violates, and on
    a fractional integer variable when `integrality` is set."""
    a, lo, hi = rows
    lhs = a @ x
    bad = np.flatnonzero(~((lhs >= lo - FEAS_TOL) & (lhs <= hi + FEAS_TOL)))
    if bad.size:
        con = model.constraints[bad[0]]
        raise SolveNumericalError(
            f"solution violates constraint {con.name}: lhs={lhs[bad[0]]} rhs={con.rhs}"
        )
    if integrality:
        integer = np.array([v.integer for v in model.variables])
        frac = np.flatnonzero(integer & (np.abs(x - np.round(x)) > INT_TOL))
        if frac.size:
            raise SolveNumericalError(
                f"integer variable {model.variables[frac[0]].name} has fractional value {x[frac[0]]}"
            )


def _finish(kind: str, model: MilpModel, rows, res) -> MilpSolution:
    """Map a scipy result to a MilpSolution, checking an optimal one.
    `kind` is 'lp' or 'milp'; only a MILP reads an effort limit as such."""
    if res.status in (2, 3):
        status = INFEASIBLE if res.status == 2 else UNBOUNDED
        _log_solve(kind, model, status, None)
        return MilpSolution(status, None, {}, None)
    integer = kind == "milp"
    if integer and res.status == 1:
        incumbent = float(res.fun) if res.x is not None else None
        bound = float(res.mip_dual_bound) if res.mip_dual_bound is not None else None
        raise SolveEffortError(
            f"effort limit reached (incumbent={incumbent}, bound={bound})", incumbent, bound
        )
    if res.status != 0 or res.x is None:
        raise SolveNumericalError(f"{kind.upper()} solve failed: {res.message}")
    _check_solution(model, rows, res.x, integrality=integer)
    values = {v.name: float(res.x[i]) for i, v in enumerate(model.variables)}
    if integer:
        bound = float(res.fun) if res.mip_dual_bound is None else float(res.mip_dual_bound)
        extra = f"nodes={getattr(res, 'mip_node_count', '?')}"
    else:
        bound, extra = float(res.fun), f"iters={getattr(res, 'nit', '?')}"
    _log_solve(kind, model, OPTIMAL, res.fun, extra)
    return MilpSolution(OPTIMAL, float(res.fun), values, bound)


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation (integrality flags ignored) to an
    optimal basic solution."""
    if not model.variables:
        return MilpSolution(OPTIMAL, 0.0, {}, 0.0)
    rows = a, lo, hi = _constraint_rows(model)
    # linprog takes A_ub x <= b_ub and A_eq x = b_eq, so '>=' rows are
    # negated; each system keeps the model's row order.
    is_eq = lo == hi
    ge = np.isposinf(hi)
    ub, eq = np.flatnonzero(~is_eq), np.flatnonzero(is_eq)
    sign = np.where(ge[ub], -1.0, 1.0)
    res = linprog(
        model.objective_vector(),
        A_ub=sp.diags(sign) @ a[ub] if ub.size else None,
        b_ub=np.where(ge, -lo, hi)[ub] if ub.size else None,
        A_eq=a[eq] if eq.size else None,
        b_eq=hi[eq] if eq.size else None,
        bounds=[(v.lb, None if math.isinf(v.ub) else v.ub) for v in model.variables],
        method="highs-ds",
    )
    return _finish("lp", model, rows, res)


def solve_milp(
    model: MilpModel, time_limit: float | None = None, node_limit: int | None = None
) -> MilpSolution:
    """Solve to proven optimality (1e-9 relative gap). Raises SolveEffortError
    with the incumbent and bound when a limit is hit first."""
    if not model.variables:
        return MilpSolution(OPTIMAL, 0.0, {}, 0.0)
    for v in model.variables:
        if v.integer and (math.isinf(v.lb) or math.isinf(v.ub)):
            raise ModelError(f"integer variable {v.name} must have finite bounds")
    rows = a, lo, hi = _constraint_rows(model)
    options: dict = {"mip_rel_gap": 1e-9, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if node_limit is not None:
        options["node_limit"] = node_limit
    res = _scipy_milp(
        c=model.objective_vector(),
        integrality=np.array([1 if v.integer else 0 for v in model.variables]),
        bounds=Bounds(
            np.array([v.lb for v in model.variables]),
            np.array([v.ub for v in model.variables]),
        ),
        constraints=LinearConstraint(a, lo, hi) if a.shape[0] else None,
        options=options,
    )
    return _finish("milp", model, rows, res)


# -- model files -------------------------------------------------------------

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _sanitize_names(names: list[str], max_len: int, prefix: str) -> dict[str, str]:
    """Deterministically map arbitrary names to format-safe ones."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for i, name in enumerate(names):
        clean = _NAME_RE.sub("_", name)
        if not clean or clean[0].isdigit():
            clean = "_" + clean
        if len(clean) > max_len or clean in used:
            clean = f"{prefix}{i}"
        mapping[name] = clean
        used.add(clean)
    return mapping


def _fmt(value: float) -> str:
    for spec in ("%.11g", "%.9g", "%.6g"):
        s = spec % value
        if len(s) <= 12:
            return s
    return "%.5g" % value


def write_lp(model: MilpModel, path: str) -> dict[str, str]:
    """CPLEX-style LP text file. Returns the original -> written name map."""
    vmap = _sanitize_names([v.name for v in model.variables], 200, "x")
    cmap = _sanitize_names([c.name for c in model.constraints], 200, "c")

    def term_str(coeffs) -> str:
        parts = []
        for idx, val in coeffs:
            sign = "-" if val < 0 else "+"
            parts.append(f"{sign} {_fmt(abs(val))} {vmap[model.variables[idx].name]}")
        if not parts:
            return "0 " + vmap[model.variables[0].name]
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    lines = [f"\\ {model.name}"]
    for orig, new in sorted(vmap.items()):
        if orig != new:
            lines.append(f"\\ name-map: {new} <- {orig}")
    lines.append("Minimize")
    lines.append(" obj: " + term_str(sorted(model.objective.items())))
    lines.append("Subject To")
    for con in model.constraints:
        op = {LESS_EQUAL: "<=", GREATER_EQUAL: ">=", EQUAL: "="}[con.sense]
        lines.append(f" {cmap[con.name]}: {term_str(con.coeffs)} {op} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        name = vmap[v.name]
        if math.isinf(v.ub) and v.lb == 0:
            continue  # default bounds
        if v.lb == -math.inf and math.isinf(v.ub):
            lines.append(f" {name} free")
        elif math.isinf(v.ub):
            lines.append(f" {name} >= {_fmt(v.lb)}")
        else:
            lines.append(f" {_fmt(v.lb)} <= {name} <= {_fmt(v.ub)}")
    generals = [vmap[v.name] for v in model.variables if v.integer]
    if generals:
        lines.append("General")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return vmap


def write_mps(model: MilpModel, path: str) -> dict[str, str]:
    """Fixed-format MPS file. Returns the original -> written name map."""
    vmap = _sanitize_names([v.name for v in model.variables], 8, "X")
    cmap = _sanitize_names([c.name for c in model.constraints], 8, "R")

    def fields(f1: str, f2: str = "", f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
        # Field start columns of the fixed layout: 2, 5, 15, 25, 40, 50.
        line = " " + f1.ljust(2) + " " + f2.ljust(9) + " " + f3.ljust(9) + " " + f4.ljust(14)
        if f5:
            line += " " + f5.ljust(9) + " " + f6
        return line.rstrip()

    lines = [f"NAME          {_NAME_RE.sub('_', model.name)[:8].upper() or 'MODEL'}"]
    for orig, new in sorted(vmap.items()):
        if orig != new:
            lines.append(f"* name-map: {new} <- {orig}")
    lines.append("ROWS")
    lines.append(fields("N", "COST"))
    for con in model.constraints:
        tag = {LESS_EQUAL: "L", GREATER_EQUAL: "G", EQUAL: "E"}[con.sense]
        lines.append(fields(tag, cmap[con.name]))

    by_var: dict[int, list[tuple[str, float]]] = {i: [] for i in range(len(model.variables))}
    for idx, val in model.objective.items():
        by_var[idx].append(("COST", val))
    for con in model.constraints:
        for idx, val in con.coeffs:
            by_var[idx].append((cmap[con.name], val))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for i, v in enumerate(model.variables):
        if v.integer != in_int:
            tag = "'INTORG'" if v.integer else "'INTEND'"
            lines.append(fields("", f"M{marker}", "'MARKER'", "", "", "").rstrip() + (" " * 17) + tag)
            in_int = v.integer
            marker += 1
        for row, val in by_var[i]:
            lines.append(fields("", vmap[v.name], row, _fmt(val)))
    if in_int:
        lines.append(fields("", f"M{marker}", "'MARKER'", "", "", "").rstrip() + (" " * 17) + "'INTEND'")

    lines.append("RHS")
    for con in model.constraints:
        if con.rhs != 0.0:
            lines.append(fields("", "RHS", cmap[con.name], _fmt(con.rhs)))

    lines.append("BOUNDS")
    for v in model.variables:
        name = vmap[v.name]
        if v.lb == -math.inf and math.isinf(v.ub):
            lines.append(fields("FR", "BND", name))
            continue
        if v.lb == -math.inf:
            lines.append(fields("MI", "BND", name))
        else:
            lines.append(fields("LO", "BND", name, _fmt(v.lb)))
        if math.isinf(v.ub):
            lines.append(fields("PL", "BND", name))
        else:
            lines.append(fields("UP", "BND", name, _fmt(v.ub)))
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return vmap


def export_model(model: MilpModel, path: str, fmt: str) -> dict[str, str]:
    """Write the model as 'lp' or 'mps'; returns the name mapping used."""
    if fmt == "lp":
        return write_lp(model, path)
    if fmt == "mps":
        return write_mps(model, path)
    raise ValueError(f"unknown model format {fmt!r} (expected 'lp' or 'mps')")


# -- readers (used to verify that exported files round-trip) ------------------


def read_mps(path: str) -> MilpModel:
    """Parse the MPS subset produced by write_mps."""
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_coeffs: dict[str, dict[int, float]] = {}
    row_rhs: dict[str, float] = {}
    obj_row: str | None = None
    obj_coeffs: dict[int, float] = {}
    var_idx: dict[str, int] = {}
    int_vars: set[int] = set()
    integer_mode = False
    explicit_bounds: dict[int, list[float | None]] = {}

    def get_var(name: str) -> int:
        if name not in var_idx:
            var_idx[name] = len(var_idx)
        return var_idx[name]

    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0].upper()
                continue
            tokens = line.split()
            if section == "ROWS":
                sense, name = tokens[0].upper(), tokens[1]
                if sense == "N":
                    if obj_row is None:
                        obj_row = name
                else:
                    row_sense[name] = {"L": LESS_EQUAL, "G": GREATER_EQUAL, "E": EQUAL}[sense]
                    row_coeffs[name] = {}
                    row_order.append(name)
            elif section == "COLUMNS":
                if "'MARKER'" in tokens:
                    integer_mode = tokens[-1] == "'INTORG'"
                    continue
                idx = get_var(tokens[0])
                if integer_mode:
                    int_vars.add(idx)
                for row, val in zip(tokens[1::2], tokens[2::2]):
                    if row == obj_row:
                        obj_coeffs[idx] = obj_coeffs.get(idx, 0.0) + float(val)
                    else:
                        row_coeffs[row][idx] = row_coeffs[row].get(idx, 0.0) + float(val)
            elif section == "RHS":
                for row, val in zip(tokens[1::2], tokens[2::2]):
                    if row != obj_row:
                        row_rhs[row] = float(val)
            elif section == "BOUNDS":
                btype = tokens[0].upper()
                idx = get_var(tokens[2])
                bounds = explicit_bounds.setdefault(idx, [None, None])
                if btype == "LO":
                    bounds[0] = float(tokens[3])
                elif btype == "UP":
                    bounds[1] = float(tokens[3])
                elif btype == "FX":
                    bounds[0] = bounds[1] = float(tokens[3])
                elif btype == "FR":
                    bounds[0], bounds[1] = -math.inf, math.inf
                elif btype == "MI":
                    bounds[0] = -math.inf
                elif btype == "PL":
                    bounds[1] = math.inf
                elif btype == "BV":
                    bounds[0], bounds[1] = 0.0, 1.0
                    int_vars.add(idx)

    model = MilpModel(name="mps")
    for name, idx in sorted(var_idx.items(), key=lambda kv: kv[1]):
        lo, hi = explicit_bounds.get(idx, [None, None])
        model.add_var(
            name,
            0.0 if lo is None else lo,
            math.inf if hi is None else hi,
            integer=idx in int_vars,
        )
    model.set_objective(obj_coeffs)
    for row in row_order:
        model.add_constraint(row_coeffs[row], row_sense[row], row_rhs.get(row, 0.0), name=row)
    return model


def read_lp(path: str) -> MilpModel:
    """Parse the LP-text subset produced by write_lp."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.lstrip().startswith("\\")]

    section = None
    objective_text: list[str] = []
    constraint_texts: list[str] = []
    bound_lines: list[str] = []
    general_names: list[str] = []
    for ln in raw_lines:
        word = ln.strip().lower()
        if word in ("minimize", "min"):
            section = "obj"
            continue
        if word in ("subject to", "st", "s.t."):
            section = "cons"
            continue
        if word == "bounds":
            section = "bounds"
            continue
        if word in ("general", "generals", "integers"):
            section = "general"
            continue
        if word == "end":
            break
        if section == "obj":
            objective_text.append(ln.strip())
        elif section == "cons":
            constraint_texts.append(ln.strip())
        elif section == "bounds":
            bound_lines.append(ln.strip())
        elif section == "general":
            general_names.extend(ln.split())

    term_re = re.compile(r"([+-]?)\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][A-Za-z0-9_]*)")

    def parse_terms(text: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for sign, coef, name in term_re.findall(text):
            val = float(coef) if coef else 1.0
            if sign == "-":
                val = -val
            out[name] = out.get(name, 0.0) + val
        return out

    obj_text = " ".join(objective_text)
    if ":" in obj_text:
        obj_text = obj_text.split(":", 1)[1]
    obj_terms = parse_terms(obj_text)

    cons = []
    for text in constraint_texts:
        name = None
        if ":" in text:
            name, text = text.split(":", 1)
            name = name.strip()
        m = re.search(r"(<=|>=|=)", text)
        if m is None:
            raise ValueError(f"cannot parse constraint: {text!r}")
        lhs, rhs = text[: m.start()], text[m.end():]
        cons.append((name, parse_terms(lhs), m.group(1), float(rhs)))

    names: list[str] = []
    seen = set()
    for terms in [obj_terms] + [c[1] for c in cons]:
        for n in terms:
            if n not in seen:
                seen.add(n)
                names.append(n)

    bounds: dict[str, list[float]] = {}
    for ln in bound_lines:
        if ln.lower().endswith(" free"):
            name = ln.split()[0]
            bounds[name] = [-math.inf, math.inf]
        else:
            parts = [p.strip() for p in ln.split("<=")]
            if len(parts) == 3:
                name = parts[1]
                bounds[name] = [float(parts[0]), float(parts[2])]
            elif len(parts) == 2:
                name = parts[0]
                bounds[name] = [0.0, float(parts[1])]
            elif ">=" in ln:
                name, lo = (p.strip() for p in ln.split(">="))
                bounds[name] = [float(lo), math.inf]
            else:
                raise ValueError(f"cannot parse bound line: {ln!r}")
        if name not in seen:
            seen.add(name)
            names.append(name)

    for name in general_names:
        if name not in seen:
            seen.add(name)
            names.append(name)

    model = MilpModel(name="lp")
    general = set(general_names)
    for name in names:
        lb, ub = bounds.get(name, [0.0, math.inf])
        model.add_var(name, lb, ub, integer=name in general)
    model.set_objective({model.var_index(n): v for n, v in obj_terms.items()})
    for name, terms, op, rhs in cons:
        model.add_constraint(
            {model.var_index(n): v for n, v in terms.items()}, op, rhs, name=name
        )
    return model
