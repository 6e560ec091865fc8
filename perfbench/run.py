"""Seeded benchmark of the odmts pipeline.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; odmts is imported from its `src/`. One
process runs one workload as a closed loop: a single caller runs one unit
at a time through the public API and waits for its result, in whole passes
over the workload's inputs that fit in `--seconds`. Route enumeration runs
serially (the default), so no process pool starts. See perfbench/README.md
for the workloads and metrics.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
times at reference speed (see speed.py); with `--trace 1` it carries the
per-layer metrics, measured on pairs of plain and traced units on the same
input. The line before it is a detail record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("desk", "fleet_1k", "city_prep")
DEFAULT_INSTANCE_SEED = 400
SETUP_REPEATS = 3
TAIL_BEYOND = 10
THREAD_ENV = re.compile(r"THREAD|^OMP_|^MKL_|^OPENBLAS_|^BLIS_|^VECLIB_|^NUMEXPR_|^GOTO")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0, help="run seed: what varies between runs")
    p.add_argument(
        "--instance-seed",
        type=int,
        default=DEFAULT_INSTANCE_SEED,
        help="base instance seed; references must be recorded for it",
    )
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference",
        action="store_true",
        help="run the base instance once and store its outputs as the reference",
    )
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_ENV.search(k)},
    }


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it. With
    fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    smallest sample is reported, with the count actually beyond it."""
    xs = sorted(samples)
    rank = max(0, len(xs) - TAIL_BEYOND - 1)
    return {
        "value": xs[rank],
        "percentile": 100.0 * rank / len(xs),
        "samples": len(xs),
        "beyond": len(xs) - 1 - rank,
    }


def run_unit(wl, inputs, k, ref, errors_out, sampler):
    """Time one unit and check its outputs; returns (wall seconds, seconds at
    reference speed, ok). A full garbage collection first makes every unit
    start from the same heap, whatever the previous unit and its check left
    behind."""
    gc.collect()
    first = sampler.count()
    t0 = time.perf_counter()
    try:
        out = wl.unit(inputs, k)
    except Exception:
        dt = time.perf_counter() - t0
        errors_out.append(f"unit {k} raised:\n{traceback.format_exc()}")
        return dt, sampler.at_reference_speed(dt, first, sampler.count()), False
    dt = time.perf_counter() - t0
    ref_dt = sampler.at_reference_speed(dt, first, sampler.count())
    try:
        errors = wl.check(inputs, out, ref)
    except Exception:
        errors = [f"check raised:\n{traceback.format_exc()}"]
    errors_out.extend(f"unit {k}: {e}" for e in errors)
    return dt, ref_dt, not errors


def passes(pool: int, seconds: float):
    """Yield the unit indices of whole passes over a pool of `pool` inputs;
    unit k runs input k mod pool. A further pass starts only if, at the mean
    pass time so far, it would end within `seconds`; at least one pass runs.
    So every input is measured equally often, however fast the code is."""
    start = time.perf_counter()
    done = 0
    while True:
        yield from range(done * pool, (done + 1) * pool)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return


def per_input_median(samples: list[float], pool: int) -> float:
    """Median over the pool's inputs of each input's median seconds."""
    return statistics.median(statistics.median(samples[m::pool]) for m in range(pool))


def measure(wl, inputs, ref, seconds, sampler):
    """Units back to back, in whole passes over the workload's inputs.
    Returns wall and reference-speed seconds per unit, the failed count and
    the errors."""
    samples, ref_samples, errors, failed = [], [], [], 0
    for k in passes(wl.pool, seconds):
        dt, ref_dt, ok = run_unit(wl, inputs, k, ref, errors, sampler)
        samples.append(dt)
        ref_samples.append(ref_dt)
        failed += not ok
    return samples, ref_samples, failed, errors


def measure_traced(wl, inputs, ref, seconds, tmp: Path, sampler):
    """Pairs of units on the same input, one plain and one traced, in whole
    passes over the workload's inputs; which of the two goes first alternates
    between pairs. Returns the tracer, the plain and traced seconds keyed by
    pair, the failed count and the errors."""
    import spans

    tracer = spans.Tracer(tmp)
    log = tmp / "solve.log"
    plain, traced, errors, failed = {}, {}, [], 0
    for k in passes(wl.pool, seconds):
        for is_traced in ((True, False) if k % 2 else (False, True)):
            if is_traced:
                log.write_text("")
                os.environ["ODMTS_SOLVE_LOG"] = str(log)
                tracer.install()
                try:
                    dt, _, ok = run_unit(wl, inputs, k, ref, errors, sampler)
                finally:
                    tracer.uninstall()
                    del os.environ["ODMTS_SOLVE_LOG"]
                tracer.finish_unit(dt, log.read_text())
                traced[k] = dt
            else:
                dt, _, ok = run_unit(wl, inputs, k, ref, errors, sampler)
                plain[k] = dt
            failed += not ok
    return tracer, plain, traced, failed, errors


def per_layer(tracer, plain: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced unit; the tracing overhead is
    the median over pairs of traced minus plain seconds on the same inputs,
    which cancels drift in machine speed between pairs."""
    import spans

    units = tracer.units
    n = len(units)

    def mean(values):
        return sum(values) / n

    values = {}
    for metric in spans.SELF_TIMES:
        values[metric] = (mean([u["self_s"][metric] for u in units]), "s")
    for name in spans.COUNTS:
        values[name] = (mean([u["counts"][name] for u in units]), "count")
    for name in spans.SOLVE_LOG_COUNTS:
        values[name] = (mean([u["solve_log"][name] for u in units]), "count")
    values["trace.uncovered_s"] = (mean([u["uncovered_s"] for u in units]), "s")
    pairs = sorted(plain.keys() & traced.keys())
    values["trace.overhead_s"] = (statistics.median(traced[k] - plain[k] for k in pairs), "s")
    lp_models = {}
    for u in units:
        for model, count in u["solve_log"]["lp_models"].items():
            lp_models[model] = lp_models.get(model, 0) + count
    detail = {
        "traced_units": n,
        "pairs": len(pairs),
        "plain_e2e_s": statistics.median(plain.values()),
        "traced_e2e_s": statistics.median(traced.values()),
        "lp_solves_by_model_per_unit": {m: c / n for m, c in sorted(lp_models.items())},
        "count_errors": sorted({e for u in units for e in u["count_errors"]}),
    }
    return values, detail


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--instance-seed", str(args.instance_seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nworkload    attempted failed  metrics")
    for name, res in rows:
        metrics = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<11} {res['attempted']:>9} {res['failed']:>6}  {metrics}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "odmts" / "__init__.py").is_file():
        print(f"perfbench: no odmts sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import speed  # imports numpy, which scipy would import

    numpy_s = time.perf_counter() - t0
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401
    import odmts  # noqa: F401

    import workloads

    import_s = numpy_s + time.perf_counter() - t0
    ref_import_s = sampler.at_reference_speed(import_s, 0, sampler.count())

    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    key = str(args.instance_seed)
    ref = refs.get(wl.name, {}).get(key)
    if wl.has_reference and ref is None and not args.record_reference:
        print(f"perfbench: no {wl.name} reference for instance seed {key} in {workloads.REFERENCES}; "
              "record one with --record-reference", file=sys.stderr)
        sampler.stop()
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if args.record_reference:
            return record_reference(wl, refs, args.instance_seed, tmp)
        setup_times, ref_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            first = sampler.count()
            t = time.perf_counter()
            inputs = wl.setup(args.seed, args.instance_seed, tmp)
            setup_times.append(time.perf_counter() - t)
            ref_setup_times.append(sampler.at_reference_speed(setup_times[-1], first, sampler.count()))
        wl.warmup(tmp)
        if args.trace:
            sampler.stop()  # its handler would count in the spans' self times
            tracer, plain, traced, failed, errors = measure_traced(wl, inputs, ref, args.seconds, tmp, sampler)
            samples = [*plain.values(), *traced.values()]
        else:
            samples, ref_samples, failed, errors = measure(wl, inputs, ref, args.seconds, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    for e in errors:
        print(e, file=sys.stderr)
    attempted = len(samples)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "instance_seed": args.instance_seed,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "environment": environment(),
    }
    if args.trace:
        values, trace_detail = per_layer(tracer, plain, traced)
        detail.update(trace_detail)
        spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "units": tracer.units}, fh)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "e2e_s": (per_input_median(ref_samples, wl.pool), "s"),
            "setup_s": (ref_import_s + statistics.median(ref_setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail.update(
            wall_e2e_s=per_input_median(samples, wl.pool),
            wall_setup_s=import_s + statistics.median(setup_times),
            slowdown=sampler.slowdown(),
            speed_samples=sampler.count(),
            e2e_samples_s=samples,
            e2e_ref_samples_s=ref_samples,
            e2e_s_tail=tail(ref_samples),
        )

    for name, (value, unit) in values.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    if not args.trace:
        t = detail["e2e_s_tail"]
        print(f"{wl.name} e2e_s_tail = {t['value']:.6g} s (p{t['percentile']:.0f} of {t['samples']} units, "
              f"{t['beyond']} beyond)")
    print(f"{wl.name} failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


def record_reference(wl, refs: dict, instance_seed: int, tmp: Path) -> int:
    """Store the outputs of one unit on the base (not relabelled) instance."""
    if not wl.has_reference:
        print(f"perfbench: {wl.name} checks against the oracle and needs no reference", file=sys.stderr)
        return 2
    inputs = wl.setup(0, instance_seed, tmp, base=True)
    out = wl.outputs(inputs, wl.unit(inputs, 0))
    refs.setdefault(wl.name, {})[str(instance_seed)] = out
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({wl.name: {str(instance_seed): out}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
