"""Command-line interface: generate, validate, enumerate routes, design,
size the fleet, and report, individually or as one pipeline.

Options can also be given in a config file of `key = value` lines ('#'
starts a comment); command-line flags override config values.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

from . import design as design_mod
from . import fleet as fleet_mod
from . import instgen, metrics, milp, routegen
from .instance import (
    Instance,
    InstanceFormatError,
    load_instance,
    save_instance,
    split_commodities,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str, code: int = EXIT_SOLVER):
        super().__init__(f"[{stage}] {message}")
        self.code = code


@dataclasses.dataclass
class PipelineConfig:
    instance: str
    out: str
    capacity: int | None = None
    delta: float | None = None
    bucket: float | None = None
    first_hubs: int | None = None
    last_hubs: int | None = None
    formulation: str = "sparse"
    check_oracle: bool = False
    export_model: str | None = None
    perturb_scale: float | None = None
    perturb_seed: int = 0


def _apply_overrides(inst: Instance, cfg: PipelineConfig) -> Instance:
    updates = {
        "shuttle_capacity": cfg.capacity,
        "duration_threshold": cfg.delta,
        "bucket_len": cfg.bucket,
        "first_hub_count": cfg.first_hubs,
        "last_hub_count": cfg.last_hubs,
    }
    updates = {field: val for field, val in updates.items() if val is not None}
    if not updates:
        return inst
    return dataclasses.replace(inst, routing=dataclasses.replace(inst.routing, **updates))


def _load(cfg: PipelineConfig, stage: str) -> Instance:
    try:
        inst = load_instance(cfg.instance)
    except (OSError, InstanceFormatError) as exc:
        raise StageError(stage, str(exc), EXIT_INVALID)
    return _apply_overrides(inst, cfg)


def _load_checked(cfg: PipelineConfig, stage: str) -> Instance:
    """Load and override the instance, split its commodities, and validate it."""
    inst = _load(cfg, stage)
    parts = split_commodities(inst.commodities, inst.routing.shuttle_capacity)
    inst = dataclasses.replace(inst, commodities=tuple(parts))
    report = validate(inst)
    if not report.ok:
        raise StageError(stage, report.summary(), EXIT_INVALID)
    return inst


def _stage_routes(inst: Instance, cfg: PipelineConfig, path: str):
    """Enumerate pickup and dropoff routes and dump them to `path`."""
    hs = routegen.compute_hub_sets(inst)
    offsets = None
    if cfg.perturb_scale is not None:
        offsets = instgen.perturb_arrival_estimates(inst, cfg.perturb_scale, cfg.perturb_seed)
    omega_minus = routegen.enumerate_pickup_routes(inst, hs)
    omega_plus = routegen.enumerate_dropoff_routes(inst, hs, t1_offsets=offsets)
    routegen.dump_routes(omega_minus, omega_plus, path)
    return omega_minus, omega_plus


def _export(model: milp.MilpModel, path: str) -> None:
    milp.export_model(model, path, "mps" if path.endswith(".mps") else "lp")


def _stage_design(inst: Instance, routes, cfg: PipelineConfig, path: str) -> design_mod.DesignSolution:
    """Build the design model, write it to `cfg.export_model` if set, solve
    it and save the solution to `path`."""
    try:
        dm = design_mod.build_design_model(inst, *routes)
        if cfg.export_model:
            _export(dm.model, cfg.export_model)
        ds = design_mod.solve_design_model(dm, inst)
    except (milp.SolveEffortError, milp.SolveNumericalError, design_mod.DesignError) as exc:
        raise StageError("design", str(exc))
    design_mod.save_solution(ds, path)
    return ds


def _formulation(name: str):
    """The fleet graph builder for `name`. Resolved per call, not at import,
    so patched or wrapped builders run."""
    return fleet_mod.build_dense_graph if name == "dense" else fleet_mod.build_sparse_graph


def _stage_fleet(
    inst: Instance, ds, cfg: PipelineConfig, path: str, stage: str = "fleet"
) -> fleet_mod.FleetResult:
    """Build the chosen fleet graph, write its model to `cfg.export_model` if
    set, solve it and save the result to `path`. With `check_oracle`, also
    solve the other graph and the matching oracle and require all three
    sizes to agree."""
    tasks = fleet_mod.routes_to_tasks(ds, inst)
    try:
        graph = _formulation(cfg.formulation)(tasks, inst)
        if cfg.export_model:
            _export(fleet_mod.fleet_model(graph)[0], cfg.export_model)
        result = fleet_mod.solve_fleet(graph)
        if cfg.check_oracle:
            other = "sparse" if cfg.formulation == "dense" else "dense"
            other_result = fleet_mod.solve_fleet(_formulation(other)(tasks, inst))
            sizes = {cfg.formulation: result.fleet_size, other: other_result.fleet_size}
            oracle = fleet_mod.min_fleet_oracle(tasks, inst)
            if not sizes["dense"] == sizes["sparse"] == oracle:
                disagree = "formulations disagree: dense={dense} sparse={sparse}".format(**sizes)
                raise StageError(stage, f"{disagree} matching={oracle}")
    except fleet_mod.FlowError as exc:
        raise StageError(stage, str(exc))
    fleet_mod.save_result(result, tasks, path)
    return result


def _stage_report(inst: Instance, ds, result, *paths: str) -> metrics.Report:
    """Build the report and write it to each path, as CSV if it ends in .csv."""
    report = metrics.build_report(ds, result, inst)
    for path in paths:
        metrics.emit_report(report, path, "csv" if path.endswith(".csv") else "json")
    return report


def _exit_code(stage: str, run, arg) -> int:
    """Run `run(arg)`; map a failure to its exit code and one stderr line."""
    try:
        return run(arg)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (OSError, InstanceFormatError) as exc:
        print(f"[{stage}] {exc}", file=sys.stderr)
        return EXIT_USAGE


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run validate -> enumerate -> design -> fleet -> report, writing
    routes.jsonl, design.json, fleet.json, report.json and report.csv into
    the output directory. Returns a process exit code."""
    return _exit_code("pipeline", _pipeline, cfg)


def _pipeline(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    inst = _load_checked(cfg, "validate")
    out = functools.partial(os.path.join, cfg.out)

    t0 = time.perf_counter()
    routes = _stage_routes(inst, cfg, out("routes.jsonl"))
    ds = _stage_design(inst, routes, cfg, out("design.json"))
    # --export-model names the design model here, not the fleet model.
    result = _stage_fleet(inst, ds, dataclasses.replace(cfg, export_model=None), out("fleet.json"))
    report = _stage_report(inst, ds, result, out("report.json"), out("report.csv"))
    elapsed = time.perf_counter() - t0
    print(
        f"pipeline done in {elapsed:.1f}s: cost={report.total_cost:.2f} "
        f"lines={report.opened_lines} fleet={report.fleet_size} "
        f"direct={report.direct_routes}"
    )
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be 'key = value': {raw.rstrip()!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _merge_config(parser: argparse.ArgumentParser, argv: list[str] | None = None) -> argparse.Namespace:
    """Parse `argv`. With --config, install the file's values as the chosen
    subcommand's defaults and parse again: argparse then applies each
    option's own type, and explicit flags always win over config values."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        raw = _read_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # Defaults live on the subcommand's own parser, not the top-level one.
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    for action in command._actions:
        val = raw.get(action.dest)
        if val is None:
            continue
        flag = action.nargs == 0  # a store_true option takes true or false
        val, choices = (val.lower(), ("true", "false")) if flag else (val, action.choices)
        if choices and val not in choices:
            parser.error(f"config {action.dest} = {val!r}: expected one of {', '.join(choices)}")
        command.set_defaults(**{action.dest: val == "true" if flag else val})
    return parser.parse_args(argv)


def _add_common(p: argparse.ArgumentParser, *, instance: bool = True) -> None:
    if instance:
        p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--capacity", type=int, default=None, help="shuttle capacity override")
    p.add_argument("--delta", type=float, default=None, help="route duration threshold override")
    p.add_argument("--bucket", type=float, default=None, help="consolidation window length override")
    p.add_argument("--first-hubs", type=int, default=None, dest="first_hubs")
    p.add_argument("--last-hubs", type=int, default=None, dest="last_hubs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odmts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--hubs", type=int, default=6)
    p.add_argument("--commodities", type=int, default=100)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=240.0)
    _add_common(p, instance=False)

    p = sub.add_parser("validate", help="check instance invariants")
    _add_common(p)

    p = sub.add_parser("enumerate-routes", help="write all feasible shared routes")
    p.add_argument("--out", required=True, help="routes.jsonl path")
    _add_common(p)

    p = sub.add_parser("design", help="solve the network design model")
    p.add_argument("--routes", required=True, help="routes.jsonl from enumerate-routes")
    p.add_argument("--out", required=True, help="design.json path")
    p.add_argument("--export-model", dest="export_model", default=None)
    _add_common(p)

    p = sub.add_parser("fleet-size", help="size the shuttle fleet for a design")
    p.add_argument("--design", required=True, help="design.json path")
    p.add_argument("--out", required=True, help="fleet.json path")
    p.add_argument("--formulation", choices=["dense", "sparse"], default="sparse")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    p.add_argument("--export-model", dest="export_model", default=None)
    _add_common(p)

    p = sub.add_parser("report", help="compute metrics for design + fleet results")
    p.add_argument("--design", required=True)
    p.add_argument("--fleet", required=True)
    p.add_argument("--out", required=True, help="report path (.json or .csv)")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run all stages into an output directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--formulation", choices=["dense", "sparse"], default="sparse")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    p.add_argument("--export-model", dest="export_model", default=None)
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _merge_config(build_parser(), argv)
    return _exit_code(args.command, _dispatch, args)


def _config(args: argparse.Namespace) -> PipelineConfig:
    """The parsed options as a PipelineConfig, matched by field name."""
    given = {"instance": None, "out": None, **vars(args)}  # gen has no --instance, validate no --out
    fields = (f.name for f in dataclasses.fields(PipelineConfig))
    return PipelineConfig(**{name: given[name] for name in fields if name in given})


def _dispatch(args: argparse.Namespace) -> int:
    cmd, cfg = args.command, _config(args)
    if cmd == "gen":
        inst = instgen.generate(
            seed=args.seed,
            n_nodes=args.nodes,
            n_hubs=args.hubs,
            n_commodities=args.commodities,
            horizon=(args.t_min, args.t_max),
        )
        save_instance(_apply_overrides(inst, cfg), cfg.out)
        print(f"wrote {cfg.out}")
        return EXIT_OK
    if cmd == "validate":
        report = validate(_load(cfg, cmd))
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_INVALID
    if cmd == "pipeline":
        return run_pipeline(cfg)

    inst = _load_checked(cfg, cmd)
    if cmd == "enumerate-routes":
        routes = _stage_routes(inst, cfg, cfg.out)
        n = sum(len(v) for omega in routes for v in omega.values())
        print(f"wrote {cfg.out} ({n} route memberships)")
    elif cmd == "design":
        ds = _stage_design(inst, routegen.load_routes(args.routes, inst), cfg, cfg.out)
        print(f"wrote {cfg.out} (objective {ds.objective:.6f})")
    elif cmd == "fleet-size":
        result = _stage_fleet(inst, design_mod.load_solution(args.design, inst), cfg, cfg.out, cmd)
        print(f"wrote {cfg.out} (fleet size {result.fleet_size})")
    else:  # report
        ds = design_mod.load_solution(args.design, inst)
        with open(args.fleet, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
                schedules = tuple(tuple(s) for s in data["schedules"])
                result = fleet_mod.FleetResult(fleet_size=data["fleet_size"], schedules=schedules, flows={})
            except (KeyError, TypeError, ValueError) as exc:
                raise InstanceFormatError(f"{args.fleet}: not a fleet result: {exc!r}") from exc
        _stage_report(inst, ds, result, cfg.out)
        print(f"wrote {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
