"""Generic mixed-integer linear model container, exact solver, and model-file
export.

A model is stored as arrays. Each variable is one entry of the parallel
lb, ub and integer columns; the objective is its sorted (cols, vals)
entries; the rows are kept in CSR blocks (indptr, indices, data) with one
sense and right-hand side per row. `add_vars` appends a block of variables
and `add_rows` a block of rows given as COO triplets (block-local row,
column, value); `set_objective` takes the objective as one more such row.
All validate their input with array operations. Every coefficient goes
through one check and, within a row or the objective, repeated columns are
summed and the columns sorted. Names need not be unique: a variable or a
row is known by its position.

A block's names are a `Names` block: a template over arrays of keys into
id tuples, such as `Names("y[{},{}]", (riders, r), (lines, l))`; a list of
names is kept as the block '{}' over it. The model keeps the block as it
is and makes a name only on request
(`var_name`, `row_name`, `var_names`, `row_names`) or at export; its sizes
(`n_vars`, `n_rows`) come from the arrays, so no solve or check makes one.

Models are always minimization. Every solve, LP or MIP, is one call of
`solve_milp`, i.e. of `scipy.optimize.milp` (HiGHS) at a 1e-9 relative
gap, so reported optima are proven; a solve stopped by its time limit
returns its incumbent, if any, and bound. An LP is a model without integer
columns, or a solve with `integer=False`. The tests check that LP solutions
on totally unimodular systems with integral right-hand sides come back
integral, i.e. that HiGHS returns vertex solutions there.

The solver and the check of its solutions read the rows from one sparse
matrix with per-row bounds, lo <= A x <= hi, stacked from the blocks. The LP
and MPS writers walk the same matrix (by columns for MPS) and stream the
file: each write holds at most WRITE_CHUNK coefficient entries, rows or
variables, never the whole text. A piece is one object array of texts that
already exist (names, and one text per distinct coefficient, row tail or
bound pair), filled by fancy indexing and joined once, so no string is made
per entry; the bytes are those of the earlier per-term writers. A variable
or row is written under a name made from its position (x<j> and c<r> in
LP, X<j> and R<r> in MPS), safe and distinct whatever the model's names,
so the writers make no original name. The file's header comments record
each `Names` block once (`_write_name_blocks`): a variable block's
position range, template, ids and keys, from which a reader rebuilds
every original name, and a row block's range and template. The writers
return nothing.

Set the ODMTS_SOLVE_LOG environment variable to a file path ('-' for stderr)
to log one line per solve, whatever its status; a MIP's line counts its
integer columns and branch-and-bound nodes.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as _scipy_milp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"
_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}  # by scipy milp status code

FEAS_TOL = 1e-6
INT_TOL = 1e-6

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)  # a row's sense is stored as its position here


class ModelError(ValueError):
    """The model violates a structural invariant (bad bounds, unknown columns, ...)."""


class SolveNumericalError(RuntimeError):
    """The solver failed, or returned a point that violates a row or an
    integrality flag of the solve."""


def _block_column(values, k: int, dtype, what: str) -> np.ndarray:
    """`values` as a fresh length-k array; a scalar is repeated."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim == 0:
        return np.full(k, arr)
    if arr.shape != (k,):
        raise ModelError(f"{what} has shape {arr.shape}, expected ({k},)")
    return arr


def _key_type(size: int):
    """The smallest signed integer type that holds -1 ... size."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= size)


def _joined_rows(columns: list, m: int) -> list[str]:
    """Row i of the columns joined, for i < m; a column is an object array
    of m texts or one text for all. One join, cut at '\n' unless a text
    holds one."""
    slots = np.empty((m, len(columns) + 1), dtype=object)
    for k, column in enumerate(columns):
        slots[:, k] = column
    slots[:, -1] = "\n"
    text = "".join(slots.ravel().tolist())
    if text.count("\n") == m:
        return text.split("\n")[:-1]
    return list(map("".join, slots[:, :-1].tolist()))


class Names:
    """A block of names made from a template over key arrays.

    `Names("y[{},{}]", (riders, r), (lines, l))` is the block of the names
    f"y[{riders[r[i]]},{lines[l[i]]}]". Each '{}' of the template takes one
    field (ids, keys): with 1-D keys, name i takes ids[keys[i]]; with 2-D
    keys, it takes ids[keys[i, 0]], ids[keys[i, 1]], ... up to the first
    -1, joined by '|'. The keys are kept in the smallest integer type that
    holds them, and a name is made only on request (`names`, `block[i]`)."""

    __slots__ = ("parts", "fields", "size")

    def __init__(self, template: str, *fields) -> None:
        self.parts = template.split("{}")
        if not fields or len(self.parts) != len(fields) + 1:
            raise ModelError(f"name template {template!r} has {len(self.parts) - 1} fields, given {len(fields)}")
        checked = []
        for ids, keys in fields:
            ids, keys = tuple(ids), np.asarray(keys)
            if keys.size == 0:
                keys = keys.astype(np.int64)
            if not np.issubdtype(keys.dtype, np.integer) or keys.ndim not in (1, 2):
                raise ModelError(
                    f"keys of {template!r} must be a 1-D or 2-D integer array, not {keys.dtype} {keys.shape}"
                )
            low = -1 if keys.ndim == 2 else 0
            if keys.size and not low <= keys.min() <= keys.max() < len(ids):
                raise ModelError(f"keys of {template!r} must lie in {low}..{len(ids) - 1}")
            if keys.ndim == 2 and keys.shape[1] > 1 and np.any((keys[:, :-1] < 0) & (keys[:, 1:] >= 0)):
                raise ModelError(f"joined keys of {template!r} may hold -1 only after their last key")
            checked.append((ids, keys.astype(_key_type(len(ids)), copy=False)))
        self.fields = tuple(checked)
        self.size = len(self.fields[0][1])
        if any(len(keys) != self.size for _, keys in self.fields):
            raise ModelError(f"keys of {template!r} differ in length: {[len(keys) for _, keys in self.fields]}")

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> str:
        return self.names(np.array([i]))[0]

    def names(self, at=None) -> list[str]:
        """The names, or those at positions `at`; joined per piece of
        WRITE_CHUNK names."""
        texts = [np.array([*ids, ""], dtype=object) for ids, _ in self.fields]  # key -1 reads the ''
        seps = np.array(["", "|"], dtype=object)
        out: list[str] = []
        m = self.size if at is None else len(at)
        for r0 in range(0, m, WRITE_CHUNK):
            piece = slice(r0, r0 + WRITE_CHUNK) if at is None else at[r0:r0 + WRITE_CHUNK]
            columns = [self.parts[0]]
            for (_, keys), text, part in zip(self.fields, texts, self.parts[1:]):
                keys = keys[piece]
                if keys.ndim == 1:
                    columns.append(text[keys])
                for j in range(keys.shape[1] if keys.ndim == 2 else 0):
                    if j:
                        columns.append(seps[(keys[:, j] >= 0).view(np.int8)])
                    columns.append(text[keys[:, j]])
                columns.append(part)
            out += _joined_rows(columns, min(m - r0, WRITE_CHUNK))
        return out


def _name_block(names: Sequence[str] | Names) -> Names:
    """`names` as a `Names` block: a list is the block '{}' over itself."""
    if isinstance(names, Names):
        return names
    names = tuple(names)
    return Names("{}", (names, np.arange(len(names))))


class _NameColumn:
    """The names of a model's variables or rows: `Names` blocks in position
    order."""

    def __init__(self) -> None:
        self.blocks: list[Names] = []
        self.starts = [0]

    def __len__(self) -> int:
        return self.starts[-1]

    def add(self, block: Names) -> None:
        self.blocks.append(block)
        self.starts.append(self.starts[-1] + len(block))

    def __getitem__(self, i: int) -> str:
        b = bisect_right(self.starts, i) - 1
        return self.blocks[b][i - self.starts[b]]

    def names(self) -> list[str]:
        return [name for block in self.blocks for name in block.names()]


class MilpModel:
    """A minimization model: variable columns, an objective and row blocks."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._var_names = _NameColumn()
        self._row_names = _NameColumn()
        self.objective: tuple[np.ndarray, np.ndarray] = (np.empty(0, np.int64), np.empty(0))  # (cols, vals)
        self._cols: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lb, ub, integer)
        self._rows: list[tuple[np.ndarray, ...]] = []  # (indptr, indices, data, sense, rhs)

    @property
    def n_vars(self) -> int:
        return len(self._var_names)

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    def var_name(self, j: int) -> str:
        return self._var_names[j]

    def row_name(self, r: int) -> str:
        return self._row_names[r]

    @property
    def var_names(self) -> list[str]:
        """Every variable's name, made on request."""
        return self._var_names.names()

    @property
    def row_names(self) -> list[str]:
        """Every row's name, made on request."""
        return self._row_names.names()

    def add_vars(
        self, names: Sequence[str] | Names, lb=0.0, ub=math.inf, integer=False
    ) -> np.ndarray:
        """Append one variable per name of `names`, a list or a `Names`
        block; `lb`, `ub` and `integer` are one value for the block or one
        per variable. Returns the new indices."""
        names = _name_block(names)
        k, start = len(names), self.n_vars
        block = f"the variable block from index {start}"
        lb = _block_column(lb, k, float, f"lb of {block}")
        ub = _block_column(ub, k, float, f"ub of {block}")
        integer = _block_column(integer, k, bool, f"integer of {block}")
        bad = np.isnan(lb) | np.isnan(ub) | (lb == math.inf) | (ub == -math.inf)
        if bad.any():
            i = bad.argmax()
            raise ModelError(f"variable {names[i]!r} has invalid bounds lb {lb[i]}, ub {ub[i]}")
        bad = lb > ub
        if bad.any():
            i = bad.argmax()
            raise ModelError(f"variable {names[i]!r} has lb {lb[i]} > ub {ub[i]}")
        self._var_names.add(names)
        self._cols.append((lb, ub, integer))
        return np.arange(start, start + k)

    def _entries(self, rows, cols, vals, owner: Callable[[int], str]):
        """The checked COO entries of a row block, or of the objective, with each
        row's columns sorted (stably) and repeated ones summed; `owner(r)` names row r."""
        bad = (cols < 0) | (cols >= self.n_vars)
        if bad.any():
            p = bad.argmax()
            raise ModelError(f"{owner(rows[p])} references unknown variable index {cols[p]}")
        bad = ~np.isfinite(vals)
        if bad.any():
            p = bad.argmax()
            raise ModelError(f"{owner(rows[p])} has non-finite coefficient {vals[p]} on variable {cols[p]}")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(cols.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            rows, cols, vals = rows[starts], cols[starts], np.add.reduceat(vals, starts)
        return rows, cols, vals

    def add_rows(self, rows, cols, vals, sense, rhs, names: Sequence[str] | Names) -> None:
        """Append a block of rows, one per name of `names` (a list or a
        `Names` block), given as COO triplets:
        entry p puts vals[p] on the variable cols[p] in row rows[p] of the
        block, counted from 0. `sense` and `rhs` are one value for the
        block or one per row. Repeated columns in a row are summed and the
        columns sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        names = _name_block(names)
        start, k = self.n_rows, len(names)
        if (
            rows.ndim != 1
            or cols.shape != rows.shape
            or vals.shape != rows.shape
            or (rows.size and not 0 <= rows.min() <= rows.max() < k)
        ):
            raise ModelError(
                f"row block from row {start} has mismatched lengths: rows {rows.size}, cols {cols.size}, "
                f"vals {vals.size}, names {k} (row indices {rows.min(initial=0)}..{rows.max(initial=-1)})"
            )
        given = np.asarray(sense, dtype=object)
        code = np.full(given.shape, -1, dtype=np.int8)
        for c, s in enumerate(_SENSES):
            code[given == s] = c
        block = f"the row block from row {start}"
        code = _block_column(code, k, np.int8, f"sense of {block}")
        rhs = _block_column(rhs, k, float, f"rhs of {block}")
        bad = code < 0
        if bad.any():
            r = bad.argmax()
            raise ModelError(f"row {names[r]!r} has unknown sense {np.broadcast_to(given, (k,))[r]!r}")
        rows, cols, vals = self._entries(rows, cols, vals, lambda r: f"row {names[r]!r}")
        bad = ~np.isfinite(rhs)
        if bad.any():
            r = bad.argmax()
            raise ModelError(f"row {names[r]!r} has non-finite right-hand side {rhs[r]}")
        indptr = np.searchsorted(rows, np.arange(k + 1))
        self._rows.append((indptr, cols, vals, code, rhs))
        self._row_names.add(names)

    def set_objective(self, cols, vals) -> None:
        """Replace the objective by vals[p] on the variable cols[p] (`vals` may be
        one value for all), checked, sorted and summed as one row of `add_rows`."""
        cols, vals = np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float)
        if cols.ndim != 1 or vals.shape not in ((), cols.shape):
            raise ModelError(f"objective has mismatched lengths: cols {cols.size}, vals {vals.size}")
        rows, vals = np.zeros(cols.size, np.int64), np.broadcast_to(vals, cols.shape)
        self.objective = self._entries(rows, cols, vals, lambda r: "objective")[1:]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[self.objective[0]] = self.objective[1]
        return c

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


@dataclass
class MilpSolution:
    status: str
    objective: float | None  # the value of x; None when x is empty
    x: np.ndarray  # in model column order: the optimum, or the TIME_LIMIT incumbent; empty if none
    best_bound: float | None


def _log_solve(kind: str, model: MilpModel, rows, status: str, objective, extra: str = "") -> None:
    target = os.environ.get("ODMTS_SOLVE_LOG")
    if not target:
        return
    line = (
        f"[{kind}] model={model.name} vars={model.n_vars} rows={model.n_rows} "
        f"nnz={rows[0].nnz} status={status} objective={objective}{extra}\n"
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
    a = sp.csr_matrix((data, indices, indptr), shape=(sense.size, model.n_vars))
    lo = np.where(sense == _SENSES.index(LESS_EQUAL), -np.inf, rhs)
    hi = np.where(sense == _SENSES.index(GREATER_EQUAL), np.inf, rhs)
    return a, lo, hi


def _check_solution(model: MilpModel, rows, x: np.ndarray, integrality: bool | np.ndarray) -> None:
    """Raise on the first row of `rows` = (A, lo, hi) that x violates, and on
    a fractional value in an integer column: `integrality` is True for the
    model's integer columns, False for none, or a mask of columns."""
    a, lo, hi = rows
    lhs = a @ x
    bad = np.flatnonzero(~((lhs >= lo - FEAS_TOL) & (lhs <= hi + FEAS_TOL)))
    if bad.size:
        r = bad[0]
        rhs = hi[r] if np.isfinite(hi[r]) else lo[r]
        raise SolveNumericalError(
            f"solution violates constraint {model.row_name(r)}: lhs={lhs[r]} rhs={rhs}"
        )
    mask = model.integer if integrality is True else np.asarray(integrality, dtype=bool)
    frac = np.flatnonzero(mask & (np.abs(x - np.round(x)) > INT_TOL))
    if frac.size:
        raise SolveNumericalError(
            f"integer variable {model.var_name(frac[0])} has fractional value {x[frac[0]]}"
        )


def _finish(model: MilpModel, rows, integer: np.ndarray, res) -> MilpSolution:
    """Map a scipy result to a MilpSolution, checking its point, if any,
    against the rows and the integer columns `integer` of the solve."""
    kind = "milp" if integer.any() else "lp"
    status = _STATUS.get(res.status)
    if status is None or (status == OPTIMAL and res.x is None):
        raise SolveNumericalError(f"{kind.upper()} solve failed: {res.message}")
    x, objective = (np.empty(0), None) if res.x is None else (res.x, float(res.fun))
    if x.size:
        _check_solution(model, rows, x, integrality=integer)
    bound = objective if status == OPTIMAL else None
    if res.mip_dual_bound is not None:
        bound = float(res.mip_dual_bound)
    extra = f" integer={np.count_nonzero(integer)} nodes={res.mip_node_count}" if kind == "milp" else ""
    _log_solve(kind, model, rows, status, objective, extra)
    return MilpSolution(status, objective, x, bound)


def solve_milp(model: MilpModel, time_limit: float | None = None, integer=None) -> MilpSolution:
    """Solve to proven optimality (1e-9 relative gap). `integer`, when
    given, is this solve's integrality, one flag per variable or one for
    all; it defaults to `model.integer`, which it leaves unchanged. When the
    time limit is hit first, the status is TIME_LIMIT, with the incumbent,
    if any, and the solver's bound."""
    if not model.n_vars:  # every row's activity is 0
        rows = _, lo, hi = _constraint_rows(model)
        if np.any((lo > FEAS_TOL) | (hi < -FEAS_TOL)):
            sol = MilpSolution(INFEASIBLE, None, np.empty(0), None)
        else:
            sol = MilpSolution(OPTIMAL, 0.0, np.empty(0), 0.0)
        _log_solve("lp", model, rows, sol.status, sol.objective)
        return sol
    given = model.integer if integer is None else integer
    integer = _block_column(given, model.n_vars, bool, f"integer mask of {model.name!r}")
    bad = np.flatnonzero(integer & (np.isinf(model.lb) | np.isinf(model.ub)))
    if bad.size:
        raise ModelError(f"integer variable {model.var_name(bad[0])} must have finite bounds")
    rows = a, lo, hi = _constraint_rows(model)
    options: dict = {"mip_rel_gap": 1e-9, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = _scipy_milp(
        c=model.objective_vector(),
        integrality=integer,
        bounds=Bounds(model.lb, model.ub),
        constraints=LinearConstraint(a, lo, hi) if a.shape[0] else None,
        options=options,
    )
    return _finish(model, rows, integer, res)


# -- model files -------------------------------------------------------------

WRITE_CHUNK = 4096  # coefficient entries, rows or variables written per piece by `write_lp` and `write_mps`


def _positions(prefix: str, start: int, stop: int) -> np.ndarray:
    """The written names prefix + str(i) of positions start..stop-1."""
    return np.array([f"{prefix}{i}" for i in range(start, stop)], dtype=object)


def _write_name_blocks(fh, marker: str, model: MilpModel) -> None:
    """The record of the model's `Names` blocks, as comment lines. A
    variable block of positions first..end-1 writes

        <marker> vars <first> <end> <template>

    and then, per field, '<marker> field <width> <ids>' and one line
    '<marker> keys <k> <k> ...' of its keys in position order, `width` per
    name (1 for a 1-D field, -1 pads a joined one). A row block writes only
    '<marker> rows <first> <end> <template>'. The template and the ids are
    JSON (ASCII), so no text breaks a line; the keys are joined per piece
    of WRITE_CHUNK names from one text per id. Empty blocks name nothing and
    write nothing."""
    for kind, column in (("vars", model._var_names), ("rows", model._row_names)):
        for block, start, end in zip(column.blocks, column.starts, column.starts[1:]):
            if start == end:
                continue
            fh.write(f"{marker} {kind} {start} {end} {json.dumps('{}'.join(block.parts))}\n")
            for ids, keys in block.fields if kind == "vars" else ():
                fh.write(f"{marker} field {keys.shape[1] if keys.ndim == 2 else 1} {json.dumps(ids)}\n{marker} keys")
                table = np.array([f" {k}" for k in range(len(ids))] + [" -1"], dtype=object)  # key -1 reads the last
                for k in range(0, len(keys), WRITE_CHUNK):
                    fh.write("".join(table[keys[k:k + WRITE_CHUNK].ravel()].tolist()))
                fh.write("\n")


def _fmt(value: float) -> str:
    for spec in ("%.11g", "%.9g", "%.6g"):
        s = spec % value
        if len(s) <= 12:
            return s
    return "%.5g" % value


def _distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the rows of the columns: row i equals row
    first[inverse[i]], one first per distinct row. Floats compare bit for
    bit, so -0.0 and 0.0 stay apart."""
    codes = [c.view(np.int64) if c.dtype == float else c for c in columns]
    key = codes[0]
    for code in codes[1:]:  # number the distinct values of each side, then the pairs
        left, right = (np.unique(c, return_inverse=True)[1] for c in (key, code))
        key = left * (right.max(initial=0) + 1) + right
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _per_value(fn: Callable[..., str], *columns: np.ndarray) -> np.ndarray:
    """fn(*row) for each row of the columns, as an object array of shared
    texts: fn is called once per distinct row (see `_distinct`)."""
    first, inverse = _distinct(*columns)
    texts = np.empty(first.size, dtype=object)
    texts[:] = [fn(*row) for row in zip(*(c[first].tolist() for c in columns))]
    return texts[inverse]


def _lp_term(value: float) -> str:
    return ("- " if value < 0 else "+ ") + _fmt(abs(value)) + " "


def _pieces(indptr: np.ndarray):
    """Cut the rows of a CSR (or the columns of a CSC) index pointer into
    consecutive pieces (r0, r1, p0, p1): rows r0..r1-1 with entries
    p0..p1-1, at most WRITE_CHUNK of each. A row with more entries than
    that comes alone, in pieces of its entries."""
    n = len(indptr) - 1
    r0 = 0
    while r0 < n:
        p0 = int(indptr[r0])
        r1 = min(int(np.searchsorted(indptr, p0 + WRITE_CHUNK, "right")) - 1, r0 + WRITE_CHUNK)
        if r1 > r0:
            yield r0, r1, p0, int(indptr[r1])
        else:
            end, r1 = int(indptr[r0 + 1]), r0 + 1
            for p in range(p0, end, WRITE_CHUNK):
                yield r0, r1, p, min(p + WRITE_CHUNK, end)
        r0 = r1


def _layout(lead: np.ndarray, count: np.ndarray, width: int, tail: np.ndarray):
    """Slots for groups (rows or columns) of lead[g] texts, then `width`
    texts per entry (count[g] entries), then tail[g] texts: the empty slot
    array and the first slot of each group, the first slot of each entry
    and the end of each group."""
    size = lead + width * count + tail
    stop = np.cumsum(size)
    start = stop - size
    group = np.repeat(np.arange(count.size), count)
    shift = start + lead - width * (np.cumsum(count) - count)
    entry = width * np.arange(group.size) + shift[group]
    return np.empty(int(stop[-1]) if stop.size else 0, dtype=object), start, entry, stop


def _write_joined(fh, *columns) -> None:
    """Write the i-th text of every column in turn, for each i, joined
    once; a column is an array or list of texts, or one text for all."""
    n = next((len(c) for c in columns if not isinstance(c, str)), 0)
    slots = np.empty((n, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        slots[:, k] = column
    fh.write("".join(slots.ravel().tolist()))


def _write_bounds(fh, names: Callable[[int, int], np.ndarray], lb: np.ndarray, ub: np.ndarray, lines) -> None:
    """Per piece of WRITE_CHUNK variables, write each variable's bound
    lines: `lines(lo, hi)` gives, once per distinct (lb, ub), up to two
    (before, padded, after) texts, and a line is before + the name (padded
    by ljust(9) if `padded`) + after; `names(k0, k1)` gives the written
    names of variables k0..k1-1."""
    for k in range(0, lb.size, WRITE_CHUNK):
        part = slice(k, k + WRITE_CHUNK)
        first, inverse = _distinct(lb[part], ub[part])
        table = np.full((first.size, 2, 3), "", dtype=object)
        real = np.zeros((first.size, 2), dtype=bool)
        for code, (lo, hi) in enumerate(zip(lb[part][first].tolist(), ub[part][first].tolist())):
            for n, line in enumerate(lines(lo, hi)):
                table[code, n], real[code, n] = line, True
        slots, keep = table[inverse], real[inverse]
        middle = slots[:, :, 1]  # a view: the padded flags, then the names
        padded = middle.astype(bool)
        middle[:] = names(k, min(k + WRITE_CHUNK, lb.size))[:, None]
        if padded.any():
            middle[padded] = [name.ljust(9) for name in middle[padded].tolist()]
        fh.write("".join(slots[keep].ravel().tolist()))


def _write_lp_rows(fh, names: np.ndarray, indptr, indices, data, heads, tails) -> None:
    """Write each row r of a CSR block as ' <head>: ', its terms and its
    tail; `heads(r0, r1)` and `tails(r0, r1)` give the heads and the tails
    of rows r0..r1-1 as object arrays. A row without entries reads
    '0 <first variable>'. Each distinct coefficient has two shared texts: a
    row's first term without '+ ' and a later term after ' '."""
    empty = "0 " + names[0] if names.size else "0"  # a model without variables has only constants
    for r0, r1, p0, p1 in _pieces(indptr):
        starts, ends = indptr[r0:r1], indptr[r0 + 1:r1 + 1]
        head, tail = starts >= p0, ends <= p1  # the row begins or ends in this piece
        count = np.minimum(ends, p1) - np.maximum(starts, p0)
        blank = count == 0
        slots, start, entry, stop = _layout(3 * head + blank, count, 2, tail)
        first, inverse = _distinct(data[p0:p1])
        terms = [_lp_term(v) for v in data[p0:p1][first].tolist()]
        table = np.array([t[2:] if t.startswith("+ ") else t for t in terms] + [" " + t for t in terms], dtype=object)
        code = inverse + len(terms)
        code[starts[head & ~blank] - p0] -= len(terms)  # each row's first term
        slots[entry] = table[code]
        slots[entry + 1] = names[indices[p0:p1]]
        slots[start[head]] = " "
        slots[start[head] + 1] = heads(r0, r1)[head]
        slots[start[head] + 2] = ": "
        slots[start[blank] + 3] = empty  # after the head
        slots[stop[tail] - 1] = tails(r0, r1)[tail]
        fh.write("".join(slots.tolist()))


def _lp_bound_lines(lo: float, hi: float) -> list[tuple[str, bool, str]]:
    if math.isinf(hi) and lo == 0:
        return []  # default bounds
    if lo == -math.inf and math.isinf(hi):
        return [(" ", False, " free\n")]
    if math.isinf(hi):
        return [(" ", False, f" >= {_fmt(lo)}\n")]
    return [(f" {_fmt(lo)} <= ", False, f" <= {_fmt(hi)}\n")]


def write_lp(model: MilpModel, path: str) -> None:
    """CPLEX-style LP text file, written in pieces of at most WRITE_CHUNK
    coefficient entries, rows or variables. A piece is one object array of
    texts that already exist (names, and one text per distinct coefficient,
    row tail or bound pair), joined once; the file's bytes are those of the
    per-term formatting it replaced. Variable j is written x<j> and row r
    c<r>, so the written names are safe and distinct whatever the model's
    names. After a first comment line with the model's name (escaped as in
    a JSON string), the comments of `_write_name_blocks` record how to make
    the model's names."""
    indptr, indices, data, sense, rhs = model._merged_rows()
    names = _positions("x", 0, model.n_vars)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"\\ {json.dumps(model.name)[1:-1]}\n")
        _write_name_blocks(fh, "\\", model)
        fh.write("Minimize\n")
        _write_lp_rows(
            fh, names, np.array([0, model.objective[0].size]), *model.objective,
            lambda r0, r1: np.array(["obj"], dtype=object), lambda r0, r1: np.full(r1 - r0, "\n", dtype=object),
        )
        fh.write("Subject To\n")
        _write_lp_rows(
            fh, names, indptr, indices, data, lambda r0, r1: _positions("c", r0, r1),
            lambda r0, r1: _per_value(lambda s, r: f" {_SENSES[s]} {_fmt(r)}\n", sense[r0:r1], rhs[r0:r1]),
        )
        fh.write("Bounds\n")
        _write_bounds(fh, lambda k0, k1: names[k0:k1], model.lb, model.ub, _lp_bound_lines)
        generals = np.flatnonzero(model.integer)
        if generals.size:
            fh.write("General\n")
            for k in range(0, generals.size, WRITE_CHUNK):
                _write_joined(fh, " ", names[generals[k:k + WRITE_CHUNK]], "\n")
        fh.write("End\n")


def _mps_bound_lines(lo: float, hi: float) -> list[tuple[str, bool, str]]:
    if lo == -math.inf and math.isinf(hi):
        return [(" FR BND       ", False, "\n")]
    return [
        (" MI BND       ", False, "\n") if lo == -math.inf else (" LO BND       ", True, f" {_fmt(lo)}\n"),
        (" PL BND       ", False, "\n") if math.isinf(hi) else (" UP BND       ", True, f" {_fmt(hi)}\n"),
    ]


def _fmt_line(value: float) -> str:
    return _fmt(value) + "\n"


def _write_mps_columns(fh, pads: np.ndarray, cols, obj_idx, obj_val, integer) -> None:
    """The COLUMNS section from the CSC matrix `cols`: per column j an
    integrality marker where integrality changes, its objective entry, then
    its rows in order, every line but a marker starting with the head of
    its name X<j>.
    `pads[r]` is row r's name padded for its field."""
    marker = "    M{:<8} 'MARKER'" + " " * 17 + "{}\n"
    changes = np.flatnonzero(np.diff(integer, prepend=False))  # marker n sits before column changes[n]
    for j0, j1, p0, p1 in _pieces(cols.indptr):
        starts, ends = cols.indptr[j0:j1], cols.indptr[j0 + 1:j1 + 1]
        begins = starts >= p0  # the column begins in this piece
        count = np.minimum(ends, p1) - np.maximum(starts, p0)
        m0, m1 = np.searchsorted(changes, [j0, j1])
        o0, o1 = np.searchsorted(obj_idx, [j0, j1])
        marked = np.flatnonzero(begins[changes[m0:m1] - j0]) + m0  # markers written in this piece
        costed = np.flatnonzero(begins[obj_idx[o0:o1] - j0]) + o0
        lead = np.zeros(j1 - j0, dtype=np.int64)
        lead[changes[marked] - j0] += 1
        lead[obj_idx[costed] - j0] += 3
        slots, start, entry, _ = _layout(lead, count, 3, 0)
        heads = np.array([f"    X{j:<8} " for j in range(j0, j1)], dtype=object)
        slots[start[changes[marked] - j0]] = [
            marker.format(n, "'INTORG'" if integer[j] else "'INTEND'")
            for n, j in zip(marked.tolist(), changes[marked].tolist())
        ]
        at = obj_idx[costed] - j0
        cost = start[at] + lead[at] - 3  # after the column's marker, if any
        slots[cost] = heads[at]
        slots[cost + 1] = "COST      "
        slots[cost + 2] = _per_value(_fmt_line, obj_val[costed])
        slots[entry] = heads[np.repeat(np.arange(j1 - j0), count)]
        slots[entry + 1] = pads[cols.indices[p0:p1]]
        slots[entry + 2] = _per_value(_fmt_line, cols.data[p0:p1])
        fh.write("".join(slots.tolist()))
    if integer.size and integer[-1]:
        fh.write(marker.format(changes.size, "'INTEND'"))


def write_mps(model: MilpModel, path: str) -> None:
    """Fixed-format MPS file, written in pieces of at most WRITE_CHUNK
    coefficient entries, rows or variables, each joined once from shared
    texts as in `write_lp`; the file's bytes are those of the per-line
    formatting it replaced. Variable j is written X<j> and row r R<r>,
    names of at most 8 characters below 10^7 positions; after the NAME
    line, '*' comments record the name blocks as in `write_lp`."""
    _, _, _, sense, rhs = model._merged_rows()
    cols = _constraint_rows(model)[0].tocsc()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NAME          {re.sub('[^A-Za-z0-9_]', '_', model.name)[:8].upper() or 'MODEL'}\n")
        _write_name_blocks(fh, "*", model)
        pads = np.array([f"R{r:<8} " for r in range(sense.size)], dtype=object)
        fh.write("ROWS\n N  COST\n")
        kinds = np.array([" L  ", " E  ", " G  "], dtype=object)
        for r0 in range(0, sense.size, WRITE_CHUNK):
            r1 = min(r0 + WRITE_CHUNK, sense.size)
            _write_joined(fh, kinds[sense[r0:r1]], _positions("R", r0, r1), "\n")

        fh.write("COLUMNS\n")
        _write_mps_columns(fh, pads, cols, *model.objective, model.integer)

        fh.write("RHS\n")
        nonzero = np.flatnonzero(rhs != 0.0)
        for k in range(0, nonzero.size, WRITE_CHUNK):
            part = nonzero[k:k + WRITE_CHUNK]
            _write_joined(fh, "    RHS       ", pads[part], _per_value(_fmt_line, rhs[part]))

        fh.write("BOUNDS\n")
        _write_bounds(fh, lambda k0, k1: _positions("X", k0, k1), model.lb, model.ub, _mps_bound_lines)
        fh.write("ENDATA\n")


def export_model(model: MilpModel, path: str, fmt: str) -> None:
    """Write the model as 'lp' (`write_lp`) or 'mps' (`write_mps`)."""
    if fmt == "lp":
        write_lp(model, path)
    elif fmt == "mps":
        write_mps(model, path)
    else:
        raise ValueError(f"unknown model format {fmt!r} (expected 'lp' or 'mps')")
