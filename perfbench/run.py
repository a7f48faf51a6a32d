"""Benchmark for the conceptgraph engine: seeded workloads, end-to-end metrics
and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload random_stream --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

The program under test is imported from `src/` beside this directory and
nowhere else.  A run measures a fixed number of seeded units per workload
(see workloads.py), the same units on every commit; the counts are sized
so that the seed commit measures about `run_seconds` of BENCHMARK.json, and
`--seconds` does not change them.  `--trace 0` sets up once in this
process and SETUP_REPEATS - 1 more times in forked child processes and
reports the median set-up time, then runs the units in two passes and
reports the median over units of each unit's better pass.  `--trace 1`
runs unit 0 untraced, then installs the span wrappers of tracing.py and
runs every unit once to report the per-layer metrics.  Every unit's
outputs are checked.  Reported times are in reference-speed seconds: a
fixed calibration job is timed right before and after every set-up and
every unit, and each time is scaled by CALIB_REF_S over the mean of the
two.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

CLOCK = time.perf_counter
SETUP_REPEATS = 9
# A shared host switches between speed states about 1.7x apart, often within
# seconds.  The calibration job slows with the program, so each time is
# reported at the speed where the job takes CALIB_REF_S (the fast state of
# the 2-core VM of baseline.json, CPython 3.11); the raw seconds are kept in
# the result file.
CALIB_ITERATIONS = 40_000
CALIB_REF_S = 0.0045
_CALIB_TABLE = {i: i * 7 % 13 for i in range(256)}
_CALIB_ROWS = tuple(tuple(range(i, i + 8)) for i in range(64))
MODULES = ("cli", "core", "corpus", "fnsynth", "inducer", "mdl", "storage")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PERCENTILES = (50, 90, 99)


class SetupError(Exception):
    pass


def import_program() -> dict:
    """Fresh import of the package from SRC: each set-up pays for it again."""
    for key in [k for k in sys.modules if k == "conceptgraph" or k.startswith("conceptgraph.")]:
        del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        package = importlib.import_module("conceptgraph")
    except ImportError as exc:
        raise SetupError(f"cannot import conceptgraph from {SRC}: {exc}") from exc
    if os.path.dirname(os.path.dirname(os.path.realpath(package.__file__))) != os.path.realpath(SRC):
        raise SetupError(f"conceptgraph imported from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"conceptgraph.{name}") for name in MODULES}


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound job that calls nothing in the
    program and keeps no allocation: tuple indexing, dict lookups and
    integer arithmetic."""
    table, rows = _CALIB_TABLE, _CALIB_ROWS
    acc = 0
    t0 = CLOCK()
    for i in range(CALIB_ITERATIONS):
        acc += table.get(rows[i & 63][i & 7] & 255, 0) ^ (i % 5)
    return CLOCK() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * CALIB_REF_S / ((before + after) / 2)


def setup(name: str, seed: int, size: dict, workdir: str):
    """Import, generate every unit's inputs and write their temp files.
    Returns ((seconds, reference-speed seconds), mods, workload, units)."""
    before = calibrate()
    t0 = CLOCK()
    mods = import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[name](mods, seed, size, workdir)
    units = [workload.make_unit(k) for k in range(size["units"][name])]
    seconds = CLOCK() - t0
    return (seconds, at_reference_speed(seconds, before, calibrate())), mods, workload, units


def setup_in_child(name: str, seed: int, size: dict, workdir: str) -> tuple[float, float]:
    """Time one more set-up in a forked child process, so that its modules
    and inputs never reach this process's memory; waits for the child."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(setup(name, seed, size, workdir)[0]))
    sys.stdout.flush()  # or the child would print this process's buffered output too
    child.start()
    send.close()
    try:
        return receive.recv()
    except EOFError:
        raise SetupError("a set-up in a child process failed") from None
    finally:
        child.join()
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(workload, units, pause=contextlib.nullcontext):
    """Run every unit in order.

    Each unit is checked and its quality taken inside `pause()`, then its
    state is dropped, so that no unit runs with the graphs of earlier units
    still on the heap.  Returns [(UnitResult, failed ops, quality)].
    """
    done = []
    for unit in units:
        before = calibrate()
        result = workload.run_unit(unit)
        result.ref_s = at_reference_speed(result.wall_s, before, calibrate())
        with pause():
            failed = workload.check(unit, result)
            quality = workload.quality(unit, result)
        result.state = None
        done.append((result, failed, quality))
    return done


def percentiles(op_ms: list[float]) -> dict[str, float]:
    """p50/p90/p99 of op latency, each only when ten samples lie beyond it."""
    out = {}
    cuts = statistics.quantiles(op_ms, n=100) if len(op_ms) >= 2 else []
    for p in PERCENTILES:
        if len(op_ms) * (100 - p) / 100 >= 10:
            out[f"op_ms_p{p}"] = cuts[p - 1]
    return out


def run_one(args) -> int:
    size = workloads.SIZES[args.size]
    os.makedirs(OUT, exist_ok=True)
    # relative to the root, so that CLI reports name the same paths every run
    workdir = os.path.join(os.path.relpath(OUT, ROOT), f"work-{args.workload}-s{args.seed}")
    try:
        times, mods, workload, units = setup(args.workload, args.seed, size, workdir)
        setups = [times]
        if args.trace:
            report = traced_run(args, mods, workload, units)
        else:
            # set-up time is reported by --trace 0 only
            setups += [setup_in_child(args.workload, args.seed, size, f"{workdir}-child")
                       for _ in range(SETUP_REPEATS - 1)]
            report = untraced_run(workload, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["info"].update(raw_setup_s=[raw for raw, _ in setups],
                          setup_ref_s=[ref for _, ref in setups])
    report["metrics"]["setup_s"] = statistics.median(ref for _, ref in setups)
    return emit(args, report)


def untraced_run(workload, units) -> dict:
    """Two passes over the same units.

    Interference on a shared host slows runs of consecutive units; a unit's
    better pass is rarely slowed twice, and wall_s is the median over units
    of that best time.  The second pass must reproduce each unit's quality.
    """
    first = run_pass(workload, units)
    second = run_pass(workload, units)
    repeat_ok = all(a[2] == b[2] for a, b in zip(first, second))
    if not repeat_ok:
        print("FAILED a unit's second pass changed its outputs", file=sys.stderr)
    both = first + second
    op_ms = [t * 1e3 for r, _, _ in both for t in r.op_s]
    per_unit = [(a, b) for (a, _, _), (b, _, _) in zip(first, second)]
    info = {"units": len(units), "ops": len(op_ms),
            "measured_s": sum(r.wall_s for r, _, _ in both),
            "raw_unit_wall_s": [[r.wall_s for r in p] for p in per_unit],
            "unit_ref_s": [[r.ref_s for r in p] for p in per_unit],
            "raw_wall_s": statistics.median(min(r.wall_s for r in p) for p in per_unit),
            **percentiles(op_ms), "quality_unit0": first[0][2]}
    return {"correct": repeat_ok,
            "attempted": sum(r.attempted for r, _, _ in both),
            "failed": sum(f for _, f, _ in both),
            "metrics": {"wall_s": statistics.median(min(r.ref_s for r in p)
                                                    for p in per_unit),
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
            "info": info}


def traced_run(args, mods, workload, units) -> dict:
    [(baseline, base_failed, base_quality)] = run_pass(workload, units[:1])
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        done = run_pass(workload, units, tracer.paused)
    finally:
        tracer.uninstall()
    traced_quality = done[0][2]
    traced_wall = sum(r.wall_s for r, _, _ in done)
    metrics = tracer.metrics(traced_wall, baseline.wall_s, done[0][0].wall_s - baseline.wall_s)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json.gz")
    tracer.write(trace_path, metrics)
    same = traced_quality == base_quality
    if not same:
        print("FAILED tracing changed the outputs of unit 0", file=sys.stderr)
    return {"correct": same,
            "attempted": baseline.attempted + sum(r.attempted for r, _, _ in done),
            "failed": base_failed + sum(f for _, f, _ in done),
            "metrics": metrics,
            "info": {"units": len(done), "quality_unit0": traced_quality,
                     "trace_file": os.path.relpath(trace_path, ROOT)}}


def print_layer_table(metrics: dict) -> None:
    wall = metrics["trace.wall_s"] or 1.0
    print(f"{'layer':32s} {'self_s':>10s} {'share':>7s} {'total_s':>10s} {'calls':>10s}")
    for name in tracing.SPAN_NAMES:
        if metrics[f"{name}.calls"]:
            print(f"{name:32s} {metrics[name + '.self_s']:10.4f} "
                  f"{metrics[name + '.self_s'] / wall:7.1%} "
                  f"{metrics[name + '.s']:10.4f} {metrics[name + '.calls']:10d}")
    print(f"{'other':32s} {metrics['other.self_s']:10.4f} "
          f"{metrics['other.self_s'] / wall:7.1%}")


def emit(args, report: dict) -> int:
    correct = report["correct"] and report["failed"] == 0
    info = report["info"]
    attempted = report["attempted"]
    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in tracing.per_layer_spec()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"units {info['units']}")
    lines = []
    if args.trace:
        print_layer_table(report["metrics"])
        lines += [f"{key} {report['metrics'][key]:.6f} s" for key in
                  ("trace.wall_s", "trace.untraced_s", "trace.overhead_s")]
    else:
        lines += [f"setup_s {report['metrics']['setup_s']:.6f} s",
                  f"wall_s {report['metrics']['wall_s']:.6f} s "
                  f"(median over {info['units']} units of the better of two passes)",
                  f"raw_setup_s {statistics.median(info['raw_setup_s']):.6f} s",
                  f"raw_wall_s {info['raw_wall_s']:.6f} s",
                  f"ops {info['ops']} count"]
        lines += [f"{key} {info[key]:.4f} ms" for key in
                  (f"op_ms_p{p}" for p in PERCENTILES) if key in info]
        lines.append(f"peak_rss_mb {report['metrics']['peak_rss_mb']:.3f} MB")
    lines.append(f"error_rate {report['failed'] / max(attempted, 1):.6f} ratio "
                 f"({report['failed']} of {attempted} ops failed)")
    for key, value in info["quality_unit0"].items():
        unit = " bits" if key.endswith("_bits") else " count" if isinstance(value, int) else ""
        lines.append(f"unit0.{key} {value:.6f}{unit}" if isinstance(value, float)
                     else f"unit0.{key} {value}{unit}")
    print("\n".join(lines))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    result = {"correct": correct, "attempted": attempted, "failed": report["failed"],
              "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        code = subprocess.run(argv, cwd=ROOT, check=False).returncode
        if code != 0:
            print(f"workload {name} exited with {code}", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="unit size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
