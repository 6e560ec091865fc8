"""Readers for the LP and MPS subsets that `odmts.milp` writes, used by the
tests to check that exported models round-trip. They build models one
variable and one row at a time through `add_var` and `add_constraint`,
which the tests also use: one-row forms of `MilpModel.add_vars` and
`MilpModel.add_rows`.

`reference_lp` is a plain LP writer, one f-string per term and per line,
that the tests hold `write_lp`'s bytes against."""

from __future__ import annotations

import math
import re

from odmts.milp import EQUAL, GREATER_EQUAL, LESS_EQUAL, MilpModel


def add_var(model: MilpModel, name: str, lb=0.0, ub=math.inf, integer=False) -> int:
    """Append one variable to `model`; returns its index."""
    return int(model.add_vars([name], lb, ub, integer)[0])


def add_constraint(model: MilpModel, coeffs: dict[int, float], sense: str, rhs: float, name=None) -> int:
    """Append the row sum(coeffs[j] * x[j]) `sense` `rhs`, named `name` or
    c<row index>; returns that index."""
    row = len(model.row_names)
    names = [f"c{row}" if name is None else name]
    model.add_rows([0] * len(coeffs), list(coeffs), list(coeffs.values()), sense, rhs, names)
    return row


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
        add_var(
            model,
            name,
            0.0 if lo is None else lo,
            math.inf if hi is None else hi,
            integer=idx in int_vars,
        )
    model.set_objective(list(obj_coeffs), list(obj_coeffs.values()))
    for row in row_order:
        add_constraint(model, row_coeffs[row], row_sense[row], row_rhs.get(row, 0.0), name=row)
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
        add_var(model, name, lb, ub, integer=name in general)
    index = {name: k for k, name in enumerate(names)}
    model.set_objective([index[n] for n in obj_terms], list(obj_terms.values()))
    for name, terms, op, rhs in cons:
        add_constraint(model, {index[n]: v for n, v in terms.items()}, op, rhs, name=name)
    return model


def _number(value: float) -> str:
    """A number as the model files write it: the first of %.11g, %.9g and
    %.6g that fits in 12 characters, else %.5g."""
    for spec in ("%.11g", "%.9g", "%.6g"):
        if len(spec % value) <= 12:
            return spec % value
    return "%.5g" % value


def reference_lp(model: MilpModel, names: list[str], rows: list[str]) -> str:
    """The LP text of `model` with written variable names `names` and row
    names `rows`, in the layout of `odmts.milp.write_lp`."""

    def terms(entries) -> str:
        text = " ".join(f"{'-' if v < 0 else '+'} {_number(abs(v))} {names[j]}" for j, v in entries)
        if not text:
            return f"0 {names[0]}" if names else "0"
        return text[2:] if text.startswith("+ ") else text

    renamed = sorted((old, new) for old, new in zip(model.var_names, names) if old != new)
    lines = [f"\\ {model.name}", *(f"\\ name-map: {new} <- {old}" for old, new in renamed)]
    lines += ["Minimize", f" obj: {terms(zip(*(a.tolist() for a in model.objective)))}", "Subject To"]
    indptr, indices, data, sense, rhs = model._merged_rows()
    for r, row in enumerate(rows):
        entries = zip(indices[indptr[r]:indptr[r + 1]].tolist(), data[indptr[r]:indptr[r + 1]].tolist())
        op = (LESS_EQUAL, EQUAL, GREATER_EQUAL)[sense[r]]
        lines.append(f" {row}: {terms(entries)} {op} {_number(rhs[r])}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, model.lb.tolist(), model.ub.tolist()):
        if math.isinf(hi) and lo == 0:
            continue  # default bounds
        if lo == -math.inf and math.isinf(hi):
            lines.append(f" {name} free")
        elif math.isinf(hi):
            lines.append(f" {name} >= {_number(lo)}")
        else:
            lines.append(f" {_number(lo)} <= {name} <= {_number(hi)}")
    generals = [name for name, integer in zip(names, model.integer.tolist()) if integer]
    if generals:
        lines += ["General", *(f" {name}" for name in generals)]
    lines.append("End")
    return "\n".join(lines) + "\n"
