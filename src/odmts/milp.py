"""Generic mixed-integer linear model container, exact solvers, and model-file
export.

A model is stored as arrays. Each variable is one entry of the parallel
name, lb, ub and integer columns; the objective keeps its explicit
(index, value) entries; the rows are CSR blocks (indptr, indices, data) with
one sense and right-hand side per row. `add_vars` and `add_rows` append a
whole block and validate it with array operations; `add_var` and
`add_constraint` are one-row wrappers over them. Within a row, repeated
columns are summed and the columns are sorted.

Models are always minimization. Solving is delegated to the HiGHS engines
shipped with scipy: the continuous relaxation is solved with dual simplex so
that the result is an optimal *basic* solution (on totally unimodular systems
with integral right-hand sides this yields integral values), and integer
models are solved with branch-and-cut at a 1e-9 relative gap so reported
optima are proven.

Both solvers and the check of their solutions read the rows from one sparse
matrix with per-row bounds, lo <= A x <= hi, stacked from the blocks. The LP
and MPS writers walk the same matrix (by columns for MPS) and format each
distinct number once.

Set the ODMTS_SOLVE_LOG environment variable to a file path ('-' for stderr)
to log one line per solve.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)  # a row's sense is stored as its position here


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


def _block_column(values, k: int, dtype, what: str) -> np.ndarray:
    """`values` as a fresh length-k array; a scalar is repeated."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim == 0:
        return np.full(k, arr)
    if arr.shape != (k,):
        raise ModelError(f"{what} has shape {arr.shape}, expected ({k},)")
    return arr


class MilpModel:
    """A minimization model: variable columns, an objective and row blocks."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.var_names: list[str] = []
        self.row_names: list[str] = []
        self.objective: dict[int, float] = {}
        self._index: dict[str, int] = {}
        self._cols: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lb, ub, integer)
        self._rows: list[tuple[np.ndarray, ...]] = []  # (indptr, indices, data, sense, rhs)

    def add_vars(
        self, names: Sequence[str], lb=0.0, ub=math.inf, integer=False
    ) -> np.ndarray:
        """Append one variable per name; `lb`, `ub` and `integer` are one
        value for the block or one per variable. Returns the new indices."""
        names = list(names)
        k, start = len(names), len(self.var_names)
        block = f"the variable block from index {start}"
        lb = _block_column(lb, k, float, f"lb of {block}")
        ub = _block_column(ub, k, float, f"ub of {block}")
        integer = _block_column(integer, k, bool, f"integer of {block}")
        bad = lb > ub
        if bad.any():
            i = bad.argmax()
            raise ModelError(f"variable {names[i]!r} has lb {lb[i]} > ub {ub[i]}")
        new = dict(zip(names, range(start, start + k)))
        if len(new) < k or not self._index.keys().isdisjoint(new):
            seen = set(self._index)
            for name in names:
                if name in seen:
                    raise ModelError(f"duplicate variable name {name!r}")
                seen.add(name)
        self._index.update(new)
        self.var_names.extend(names)
        self._cols.append((lb, ub, integer))
        return np.arange(start, start + k)

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> int:
        return int(self.add_vars([name], lb, ub, integer)[0])

    def add_rows(
        self,
        indptr,
        indices,
        data,
        sense,
        rhs,
        names: Sequence[str] | None = None,
    ) -> None:
        """Append a block of rows in CSR form: row r has coefficients
        data[indptr[r]:indptr[r + 1]] on the variables
        indices[indptr[r]:indptr[r + 1]]. `sense` and `rhs` are one value
        for the block or one per row; `names` defaults to c<row number>.
        Repeated columns in a row are summed and the columns sorted."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        start = len(self.row_names)
        k = indptr.size - 1
        names = [f"c{i}" for i in range(start, start + k)] if names is None else list(names)
        if (
            indptr.ndim != 1
            or k < 0
            or indptr[0] != 0
            or np.any(indptr[1:] < indptr[:-1])
            or indices.shape != (indptr[-1],)
            or data.shape != indices.shape
            or len(names) != k
        ):
            raise ModelError(
                f"row block from row {start} has mismatched lengths: indptr {indptr.size}, "
                f"indices {indices.size}, data {data.size}, names {len(names)}"
            )
        given = np.asarray(sense, dtype=object)
        code = np.full(given.shape, -1, dtype=np.int8)
        for c, s in enumerate(_SENSES):
            code[given == s] = c
        block = f"the row block from row {start}"
        code = _block_column(code, k, np.int8, f"sense of {block}")
        rhs = _block_column(rhs, k, float, f"rhs of {block}")
        row = np.repeat(np.arange(k), np.diff(indptr))  # row of each entry
        bad = code < 0
        if bad.any():
            r = bad.argmax()
            raise ModelError(f"row {names[r]!r} has unknown sense {np.broadcast_to(given, (k,))[r]!r}")
        bad = (indices < 0) | (indices >= len(self.var_names))
        if bad.any():
            p = bad.argmax()
            raise ModelError(f"row {names[row[p]]!r} references unknown variable index {indices[p]}")
        bad = ~np.isfinite(data)
        if bad.any():
            p = bad.argmax()
            raise ModelError(
                f"row {names[row[p]]!r} has non-finite coefficient {data[p]} on variable {indices[p]}"
            )
        bad = ~np.isfinite(rhs)
        if bad.any():
            r = bad.argmax()
            raise ModelError(f"row {names[r]!r} has non-finite right-hand side {rhs[r]}")
        # Sort each row's columns (stably) and sum repeated ones.
        order = np.lexsort((indices, row))
        row, indices, data = row[order], indices[order], data[order]
        first = np.ones(indices.size, dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (indices[1:] != indices[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            row, indices, data = row[starts], indices[starts], np.add.reduceat(data, starts)
        indptr = np.searchsorted(row, np.arange(k + 1))
        self._rows.append((indptr, indices, data, code, rhs))
        self.row_names.extend(names)

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float, name: str | None = None
    ) -> int:
        self.add_rows(
            [0, len(coeffs)], list(coeffs), list(coeffs.values()), sense, rhs,
            None if name is None else [name],
        )
        return len(self.row_names) - 1

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        idx = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
        val = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        bad = (idx < 0) | (idx >= len(self.var_names))
        if bad.any():
            raise ModelError(f"objective references unknown variable index {idx[bad.argmax()]}")
        bad = ~np.isfinite(val)
        if bad.any():
            i = bad.argmax()
            raise ModelError(
                f"non-finite objective coefficient {val[i]} on variable {self.var_names[idx[i]]!r}"
            )
        self.objective = dict(coeffs)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.var_names))
        c[np.fromiter(self.objective, dtype=np.int64, count=len(self.objective))] = list(
            self.objective.values()
        )
        return c

    def var_index(self, name: str) -> int:
        return self._index[name]

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lb, ub, integer) over all variables; the blocks are merged once."""
        if len(self._cols) != 1:
            parts = self._cols or [(np.empty(0), np.empty(0), np.empty(0, dtype=bool))]
            self._cols = [tuple(np.concatenate(col) for col in zip(*parts))]
        return self._cols[0]

    @property
    def lb(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def ub(self) -> np.ndarray:
        return self._columns()[1]

    @property
    def integer(self) -> np.ndarray:
        return self._columns()[2]

    def _merged_rows(self) -> tuple[np.ndarray, ...]:
        """(indptr, indices, data, sense, rhs) over all rows; the blocks are
        merged once."""
        if len(self._rows) != 1:
            empty = np.empty(0, dtype=np.int64)
            parts = self._rows or [(np.zeros(1, np.int64), empty, np.empty(0), empty.astype(np.int8), np.empty(0))]
            ends = np.cumsum([0] + [p[0][-1] for p in parts[:-1]])
            indptr = np.concatenate([[0]] + [p[0][1:] + end for p, end in zip(parts, ends)])
            self._rows = [(indptr, *(np.concatenate(col) for col in list(zip(*parts))[1:]))]
        return self._rows[0]

    def copy(self, name: str) -> MilpModel:
        """An independent copy of the model under another name."""
        out = MilpModel(name)
        out.var_names, out.row_names = list(self.var_names), list(self.row_names)
        out.objective, out._index = dict(self.objective), dict(self._index)
        out._cols = [tuple(a.copy() for a in self._columns())]
        out._rows = [tuple(a.copy() for a in self._merged_rows())]
        return out


@dataclass
class MilpSolution:
    status: str
    objective: float | None
    values: dict[str, float]
    best_bound: float | None


def _log_solve(kind: str, model: MilpModel, rows, status: str, objective, extra: str = "") -> None:
    target = os.environ.get("ODMTS_SOLVE_LOG")
    if not target:
        return
    line = (
        f"[{kind}] model={model.name} vars={len(model.var_names)} rows={len(model.row_names)} "
        f"nnz={rows[0].nnz} status={status} objective={objective} {extra}\n"
    )
    if target == "-":
        sys.stderr.write(line)
    else:
        with open(target, "a", encoding="utf-8") as fh:
            fh.write(line)


def _constraint_rows(model: MilpModel) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """All rows as one CSR matrix A with row bounds, lo <= A x <= hi:
    -inf/rhs for '<=', rhs/inf for '>=' and rhs/rhs for '='."""
    indptr, indices, data, sense, rhs = model._merged_rows()
    a = sp.csr_matrix((data, indices, indptr), shape=(sense.size, len(model.var_names)))
    lo = np.where(sense == _SENSES.index(LESS_EQUAL), -np.inf, rhs)
    hi = np.where(sense == _SENSES.index(GREATER_EQUAL), np.inf, rhs)
    return a, lo, hi


def _check_solution(model: MilpModel, rows, x: np.ndarray, integrality: bool) -> None:
    """Raise on the first row of `rows` = (A, lo, hi) that x violates, and on
    a fractional integer variable when `integrality` is set."""
    a, lo, hi = rows
    lhs = a @ x
    bad = np.flatnonzero(~((lhs >= lo - FEAS_TOL) & (lhs <= hi + FEAS_TOL)))
    if bad.size:
        r = bad[0]
        rhs = hi[r] if np.isfinite(hi[r]) else lo[r]
        raise SolveNumericalError(
            f"solution violates constraint {model.row_names[r]}: lhs={lhs[r]} rhs={rhs}"
        )
    if integrality:
        frac = np.flatnonzero(model.integer & (np.abs(x - np.round(x)) > INT_TOL))
        if frac.size:
            raise SolveNumericalError(
                f"integer variable {model.var_names[frac[0]]} has fractional value {x[frac[0]]}"
            )


def _finish(kind: str, model: MilpModel, rows, res) -> MilpSolution:
    """Map a scipy result to a MilpSolution, checking an optimal one.
    `kind` is 'lp' or 'milp'; only a MILP reads an effort limit as such."""
    if res.status in (2, 3):
        status = INFEASIBLE if res.status == 2 else UNBOUNDED
        _log_solve(kind, model, rows, status, None)
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
    values = dict(zip(model.var_names, res.x.tolist()))
    if integer:
        bound = float(res.fun) if res.mip_dual_bound is None else float(res.mip_dual_bound)
        extra = f"nodes={getattr(res, 'mip_node_count', '?')}"
    else:
        bound, extra = float(res.fun), f"iters={getattr(res, 'nit', '?')}"
    _log_solve(kind, model, rows, OPTIMAL, res.fun, extra)
    return MilpSolution(OPTIMAL, float(res.fun), values, bound)


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation (integrality flags ignored) to an
    optimal basic solution. No pipeline stage calls this; it is the LP
    solver for exported or hand-built models and for cross-checks."""
    if not model.var_names:
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
        bounds=np.column_stack([model.lb, model.ub]),
        method="highs-ds",
    )
    return _finish("lp", model, rows, res)


def solve_milp(
    model: MilpModel, time_limit: float | None = None, node_limit: int | None = None
) -> MilpSolution:
    """Solve to proven optimality (1e-9 relative gap). Raises SolveEffortError
    with the incumbent and bound when a limit is hit first."""
    if not model.var_names:
        return MilpSolution(OPTIMAL, 0.0, {}, 0.0)
    bad = np.flatnonzero(model.integer & (np.isinf(model.lb) | np.isinf(model.ub)))
    if bad.size:
        raise ModelError(f"integer variable {model.var_names[bad[0]]} must have finite bounds")
    rows = a, lo, hi = _constraint_rows(model)
    options: dict = {"mip_rel_gap": 1e-9, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if node_limit is not None:
        options["node_limit"] = node_limit
    res = _scipy_milp(
        c=model.objective_vector(),
        integrality=model.integer,
        bounds=Bounds(model.lb, model.ub),
        constraints=LinearConstraint(a, lo, hi) if a.shape[0] else None,
        options=options,
    )
    return _finish("milp", model, rows, res)


# -- model files -------------------------------------------------------------

# Every character outside [A-Za-z0-9_] becomes '_', one for one: ASCII by a
# translation table, the rest by a regex that finds nothing in ASCII text.
_UNSAFE_ASCII = {c: "_" for c in range(128) if not (chr(c).isalnum() or chr(c) == "_")}
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _clean(text: str) -> str:
    return _NON_ASCII.sub("_", text.translate(_UNSAFE_ASCII))


def _sanitize_names(names: list[str], max_len: int, prefix: str) -> dict[str, str]:
    """Deterministically map arbitrary names to format-safe ones."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    cleaned = _clean("".join(names))  # cut apart again below: cleaning keeps lengths
    end = 0
    for i, name in enumerate(names):
        start, end = end, end + len(name)
        clean = cleaned[start:end]
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


def _per_value(fn: Callable[[float], str], values) -> list[str]:
    """[fn(v) for v in values], calling fn once per distinct value (bit for
    bit, so -0.0 and 0.0 stay apart)."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = [fn(v) for v in bits.view(float).tolist()]
    return [text[k] for k in inverse.tolist()]


def _lp_term(value: float) -> str:
    return ("- " if value < 0 else "+ ") + _fmt(abs(value)) + " "


def write_lp(model: MilpModel, path: str) -> dict[str, str]:
    """CPLEX-style LP text file. Returns the original -> written name map."""
    vmap = _sanitize_names(model.var_names, 200, "x")
    cmap = _sanitize_names(model.row_names, 200, "c")
    names = [vmap[n] for n in model.var_names]

    empty = "0 " + names[0] if names else "0"  # a model without variables has only constants

    def row_texts(indptr, indices, data) -> list[str]:
        terms = [t + names[j] for t, j in zip(_per_value(_lp_term, data), indices.tolist())]
        texts = []
        for start, end in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            text = " ".join(terms[start:end]) if end > start else empty
            texts.append(text[2:] if text.startswith("+ ") else text)
        return texts

    lines = [f"\\ {model.name}"]
    for orig, new in sorted(vmap.items()):
        if orig != new:
            lines.append(f"\\ name-map: {new} <- {orig}")
    lines.append("Minimize")
    obj = sorted(model.objective.items())
    obj_idx = np.array([i for i, _ in obj], dtype=np.int64)
    obj_val = np.array([v for _, v in obj], dtype=float)
    lines.append(" obj: " + row_texts(np.array([0, len(obj)]), obj_idx, obj_val)[0])
    lines.append("Subject To")
    indptr, indices, data, sense, rhs = model._merged_rows()
    lines.extend(
        f" {cmap[name]}: {text} {_SENSES[s]} {r}"
        for name, text, s, r in zip(
            model.row_names, row_texts(indptr, indices, data), sense.tolist(), _per_value(_fmt, rhs)
        )
    )
    lines.append("Bounds")
    for name, lb, ub, lb_text, ub_text in zip(
        names, model.lb.tolist(), model.ub.tolist(), _per_value(_fmt, model.lb), _per_value(_fmt, model.ub)
    ):
        if math.isinf(ub) and lb == 0:
            continue  # default bounds
        if lb == -math.inf and math.isinf(ub):
            lines.append(f" {name} free")
        elif math.isinf(ub):
            lines.append(f" {name} >= {lb_text}")
        else:
            lines.append(f" {lb_text} <= {name} <= {ub_text}")
    generals = [names[i] for i in np.flatnonzero(model.integer).tolist()]
    if generals:
        lines.append("General")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return vmap


def write_mps(model: MilpModel, path: str) -> dict[str, str]:
    """Fixed-format MPS file. Returns the original -> written name map."""
    vmap = _sanitize_names(model.var_names, 8, "X")
    cmap = _sanitize_names(model.row_names, 8, "R")
    names = [vmap[n] for n in model.var_names]
    rows = [cmap[n] for n in model.row_names]

    def fields(f1: str, f2: str = "", f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
        # Field start columns of the fixed layout: 2, 5, 15, 25, 40, 50.
        line = " " + f1.ljust(2) + " " + f2.ljust(9) + " " + f3.ljust(9) + " " + f4.ljust(14)
        if f5:
            line += " " + f5.ljust(9) + " " + f6
        return line.rstrip()

    def marker(k: int, tag: str) -> str:
        return fields("", f"M{k}", "'MARKER'") + (" " * 17) + tag

    lines = [f"NAME          {_clean(model.name)[:8].upper() or 'MODEL'}"]
    for orig, new in sorted(vmap.items()):
        if orig != new:
            lines.append(f"* name-map: {new} <- {orig}")
    lines.append("ROWS")
    lines.append(fields("N", "COST"))
    _, _, _, sense, rhs = model._merged_rows()
    lines.extend(fields("LEG"[s], row) for s, row in zip(sense.tolist(), rows))

    # Column entries, as fields("", variable, row, value) writes them: the
    # objective entry first, then the rows in order.
    cols = _constraint_rows(model)[0].tocsc()
    heads = ["    " + name.ljust(9) + " " for name in names]
    pads = [row.ljust(9) + " " for row in rows]
    col_of = np.repeat(np.arange(len(names)), np.diff(cols.indptr)).tolist()
    entries = [
        heads[j] + pads[r] + v
        for j, r, v in zip(col_of, cols.indices.tolist(), _per_value(_fmt, cols.data))
    ]
    cost = {
        j: "COST".ljust(9) + " " + text
        for j, text in zip(model.objective, _per_value(_fmt, list(model.objective.values())))
    }
    lines.append("COLUMNS")
    in_int = False
    n_markers = 0
    ptr = cols.indptr.tolist()
    for j, is_int in enumerate(model.integer.tolist()):
        if is_int != in_int:
            lines.append(marker(n_markers, "'INTORG'" if is_int else "'INTEND'"))
            in_int = is_int
            n_markers += 1
        if j in cost:
            lines.append(heads[j] + cost[j])
        lines.extend(entries[ptr[j]:ptr[j + 1]])
    if in_int:
        lines.append(marker(n_markers, "'INTEND'"))

    lines.append("RHS")
    nonzero = np.flatnonzero(rhs != 0.0)
    lines.extend(
        fields("", "RHS", rows[r], text) for r, text in zip(nonzero.tolist(), _per_value(_fmt, rhs[nonzero]))
    )

    lines.append("BOUNDS")
    for name, lb, ub, lb_text, ub_text in zip(
        names, model.lb.tolist(), model.ub.tolist(), _per_value(_fmt, model.lb), _per_value(_fmt, model.ub)
    ):
        if lb == -math.inf and math.isinf(ub):
            lines.append(fields("FR", "BND", name))
            continue
        lines.append(fields("MI", "BND", name) if lb == -math.inf else fields("LO", "BND", name, lb_text))
        lines.append(fields("PL", "BND", name) if math.isinf(ub) else fields("UP", "BND", name, ub_text))
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
