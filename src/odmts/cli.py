"""Command-line interface: generate, validate, enumerate routes, design,
size the fleet, and report, individually or as one pipeline.

Options can also be given in a config file of `key = value` lines ('#'
starts a comment); command-line flags override config values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

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
        self.stage = stage
        self.code = code


@dataclass
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


def _apply_overrides(inst: Instance, cfg) -> Instance:
    routing = inst.routing
    updates = {}
    if getattr(cfg, "capacity", None) is not None:
        updates["shuttle_capacity"] = cfg.capacity
    if getattr(cfg, "delta", None) is not None:
        updates["duration_threshold"] = cfg.delta
    if getattr(cfg, "bucket", None) is not None:
        updates["bucket_len"] = cfg.bucket
    if getattr(cfg, "first_hubs", None) is not None:
        updates["first_hub_count"] = cfg.first_hubs
    if getattr(cfg, "last_hubs", None) is not None:
        updates["last_hub_count"] = cfg.last_hubs
    if updates:
        routing = dataclasses.replace(routing, **updates)
        inst = dataclasses.replace(inst, routing=routing)
    return inst


def _load_checked(path: str, cfg, stage: str) -> Instance:
    try:
        inst = load_instance(path)
    except (OSError, InstanceFormatError) as exc:
        raise StageError(stage, str(exc), EXIT_INVALID)
    inst = _apply_overrides(inst, cfg)
    inst = dataclasses.replace(
        inst,
        commodities=tuple(
            split_commodities(inst.commodities, inst.routing.shuttle_capacity)
        ),
    )
    report = validate(inst)
    if not report.ok:
        raise StageError(stage, report.summary(), EXIT_INVALID)
    return inst


def _enumerate(inst: Instance, perturb_scale=None, perturb_seed=0):
    hs = routegen.compute_hub_sets(inst)
    offsets = None
    if perturb_scale is not None:
        offsets = instgen.perturb_arrival_estimates(inst, perturb_scale, perturb_seed)
    omega_minus = routegen.enumerate_pickup_routes(inst, hs)
    omega_plus = routegen.enumerate_dropoff_routes(inst, hs, t1_offsets=offsets)
    return omega_minus, omega_plus


def _export(model: milp.MilpModel, path: str) -> None:
    milp.export_model(model, path, "mps" if path.endswith(".mps") else "lp")


def _design(inst: Instance, omega_minus, omega_plus, export_path: str | None):
    """Solve the design model, first writing it to `export_path` if given."""
    try:
        if export_path:
            _export(design_mod.build_design_model(inst, omega_minus, omega_plus).model, export_path)
        return design_mod.solve_design(inst, omega_minus, omega_plus)
    except (milp.SolveEffortError, milp.SolveNumericalError, design_mod.DesignError) as exc:
        raise StageError("design", str(exc))


def _formulation(name: str):
    # Resolved per call, not at import, so patched or wrapped fleet functions run.
    if name == "dense":
        return fleet_mod.build_dense_graph, fleet_mod.solve_fleet_dense
    return fleet_mod.build_sparse_graph, fleet_mod.solve_fleet_sparse


def _size_fleet(
    tasks, inst: Instance, formulation: str, check_oracle: bool, export_path: str | None, stage: str
) -> fleet_mod.FleetResult:
    """Solve the chosen fleet formulation, first writing its model to
    `export_path` if given. With `check_oracle`, also solve the other
    formulation and the matching oracle and require all three sizes to agree."""
    try:
        build, solve = _formulation(formulation)
        graph = build(tasks, inst)
        if export_path:
            _export(fleet_mod.fleet_model(graph)[0], export_path)
        result = solve(graph)
        if check_oracle:
            other = "sparse" if formulation == "dense" else "dense"
            build, solve = _formulation(other)
            sizes = {formulation: result.fleet_size, other: solve(build(tasks, inst)).fleet_size}
            oracle = fleet_mod.min_fleet_oracle(tasks, inst)
            if not (sizes["dense"] == sizes["sparse"] == oracle):
                raise StageError(
                    stage,
                    f"formulations disagree: dense={sizes['dense']} "
                    f"sparse={sizes['sparse']} matching={oracle}",
                )
    except (milp.SolveNumericalError, fleet_mod.FlowError) as exc:
        raise StageError(stage, str(exc))
    return result


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run validate -> enumerate -> design -> fleet -> report, writing
    routes.jsonl, design.json, fleet.json, report.json and report.csv into
    the output directory. Returns a process exit code."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        inst = _load_checked(cfg.instance, cfg, "validate")

        t0 = time.perf_counter()
        omega_minus, omega_plus = _enumerate(inst, cfg.perturb_scale, cfg.perturb_seed)
        routegen.dump_routes(omega_minus, omega_plus, os.path.join(cfg.out, "routes.jsonl"))

        ds = _design(inst, omega_minus, omega_plus, cfg.export_model)
        design_mod.save_solution(ds, os.path.join(cfg.out, "design.json"))

        tasks = fleet_mod.routes_to_tasks(ds, inst)
        result = _size_fleet(tasks, inst, cfg.formulation, cfg.check_oracle, None, "fleet")
        fleet_mod.save_result(result, tasks, os.path.join(cfg.out, "fleet.json"))

        report = metrics.build_report(ds, result, inst)
        metrics.emit_report(report, os.path.join(cfg.out, "report.json"), "json")
        metrics.emit_report(report, os.path.join(cfg.out, "report.csv"), "csv")
        elapsed = time.perf_counter() - t0
        print(
            f"pipeline done in {elapsed:.1f}s: cost={report.total_cost:.2f} "
            f"lines={report.opened_lines} fleet={report.fleet_size} "
            f"direct={report.direct_routes}"
        )
        return EXIT_OK
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


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


def _coerce(val: str):
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    return val


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill in options the command line left at their defaults; explicit
    flags always win over config values."""
    if not getattr(args, "config", None):
        return args
    try:
        raw = _read_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # Defaults live on the subcommand's own parser, not the top-level one.
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    for key, val in raw.items():
        if not hasattr(args, key):
            continue
        current = getattr(args, key)
        if current is None or current == command.get_default(key):
            setattr(args, key, _coerce(val))
    return args


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
    parser = build_parser()
    args = _merge_config(parser.parse_args(argv), parser)
    try:
        return _dispatch(args)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (OSError, InstanceFormatError) as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "gen":
        inst = instgen.generate(
            seed=args.seed,
            n_nodes=args.nodes,
            n_hubs=args.hubs,
            n_commodities=args.commodities,
            horizon=(args.t_min, args.t_max),
        )
        inst = _apply_overrides(inst, args)
        save_instance(inst, args.out)
        print(f"wrote {args.out}")
        return EXIT_OK

    if cmd == "validate":
        try:
            inst = load_instance(args.instance)
        except (OSError, InstanceFormatError) as exc:
            print(f"[validate] {exc}", file=sys.stderr)
            return EXIT_INVALID
        inst = _apply_overrides(inst, args)
        report = validate(inst)
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_INVALID

    if cmd == "enumerate-routes":
        inst = _load_checked(args.instance, args, "enumerate-routes")
        omega_minus, omega_plus = _enumerate(inst)
        routegen.dump_routes(omega_minus, omega_plus, args.out)
        n = sum(len(v) for v in omega_minus.values()) + sum(len(v) for v in omega_plus.values())
        print(f"wrote {args.out} ({n} route memberships)")
        return EXIT_OK

    if cmd == "design":
        inst = _load_checked(args.instance, args, "design")
        omega_minus, omega_plus = routegen.load_routes(args.routes, inst)
        ds = _design(inst, omega_minus, omega_plus, args.export_model)
        design_mod.save_solution(ds, args.out)
        print(f"wrote {args.out} (objective {ds.objective:.6f})")
        return EXIT_OK

    if cmd == "fleet-size":
        inst = _load_checked(args.instance, args, "fleet-size")
        ds = design_mod.load_solution(args.design, inst)
        tasks = fleet_mod.routes_to_tasks(ds, inst)
        result = _size_fleet(
            tasks, inst, args.formulation, args.check_oracle, args.export_model, "fleet-size"
        )
        fleet_mod.save_result(result, tasks, args.out)
        print(f"wrote {args.out} (fleet size {result.fleet_size})")
        return EXIT_OK

    if cmd == "report":
        inst = _load_checked(args.instance, args, "report")
        ds = design_mod.load_solution(args.design, inst)
        with open(args.fleet, "r", encoding="utf-8") as fh:
            fleet_data = json.load(fh)
        result = fleet_mod.FleetResult(
            fleet_size=fleet_data["fleet_size"],
            schedules=tuple(tuple(s) for s in fleet_data["schedules"]),
            flows={},
        )
        report = metrics.build_report(ds, result, inst)
        fmt = "csv" if args.out.endswith(".csv") else "json"
        metrics.emit_report(report, args.out, fmt)
        print(f"wrote {args.out}")
        return EXIT_OK

    if cmd == "pipeline":
        cfg = PipelineConfig(
            instance=args.instance,
            out=args.out,
            capacity=args.capacity,
            delta=args.delta,
            bucket=args.bucket,
            first_hubs=args.first_hubs,
            last_hubs=args.last_hubs,
            formulation=args.formulation,
            check_oracle=args.check_oracle,
            export_model=args.export_model,
        )
        return run_pipeline(cfg)

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
