"""Benchmark of vortexmoduli: four closed-loop workloads, one client, one
process, ops issued one after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--repeat K]

Run from the root of a checkout: the package is imported from ./src.  The
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  Lines before it are a readable summary.
--all runs every workload in its own process and prints a table; with
--repeat K it runs seeds N..N+K-1 and prints medians and quartile spreads.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (OK, WRONG, Gauge, NullTracer, Tracer, median_by_kind, run_op, run_passes,
                     summarize)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "exact-ring": "exact_ring",
    "genus0-sweeps": "genus0_sweeps",
    "vortex-solves": "vortex_solves",
    "cli-mix": "cli_mix",
}
END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = ("trace.overhead_share", "trace.spans")
SETUP_SAMPLES = 5          # fresh processes, timed after the loop: before it they
                           # would count in cli-mix's RUSAGE_CHILDREN peak
SETUP_READY = "perfbench: set-up done"
# A bare `python -c pass` in this machine's fast regime: set-up times are
# scaled by it, as op latencies are by a workload's gauge (harness.Gauge)
START_REFERENCE_S = 0.044
RUN_TIMEOUT_S = 600


def per_layer_names() -> list:
    names = []
    for module in WORKLOADS.values():
        names.extend(importlib.import_module(module).LAYER_METRICS)
    return names + list(TRACE_METRICS)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "1"
    if name.endswith("_s"):
        return "s"
    return "count"


def peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024.0   # Linux reports KiB


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counters


def layer_values(tracer, counts: dict) -> dict:
    """Median duration of each span name, the given per-pass counts, and the
    metrics computed from them."""
    values: dict = {}
    spans: dict = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s.end - s.start)
    for name, durations in spans.items():
        values[name + "_s"] = statistics.median(durations)
    values.update(counts)
    triples = startup_triples(tracer)
    if triples:
        values["cli.interpreter_s"] = statistics.median(t[0] for t in triples)
        values["cli.import_s"] = statistics.median(t[1] - t[0] for t in triples)
        values["cli.request_s"] = statistics.median(t[2] for t in triples)
        values["cli.startup_share"] = statistics.median(t[1] / t[2] for t in triples)
    if counts.get("taubes_solver.converged_solve_s"):
        values["taubes_solver.cell_updates_per_s"] = (
            counts["taubes_solver.converged_cell_updates"]
            / counts["taubes_solver.converged_solve_s"])
    return values


def startup_triples(tracer) -> list:
    """(bare interpreter, time to import within the small request, whole small
    request) of each start-up probe op."""
    by_op: dict = {}
    for s in tracer.spans:
        if s.name in ("cli.interpreter", "cli.interpreter_import", "cli.small_request"):
            by_op.setdefault(s.op_id, {})[s.name] = s.end - s.start
    return [(t["cli.interpreter"], t["cli.interpreter_import"], t["cli.small_request"])
            for t in by_op.values() if len(t) == 3]


def traced_layers(module, ctx, seed: int, tracer, loop_wall: float, passes: int) -> tuple:
    """Per-layer metrics: the workload's own from its loop, every other one
    from a short probe pass of the workload that owns it.  Counts are per
    pass: the loop's totals over its passes, a probe's as they are."""
    overhead, n_spans = tracer.overhead_s, len(tracer.spans)
    counts = {m: 0 for m in module.LAYER_METRICS if unit_of(m) == "count"}
    counts.update({k: v / passes for k, v in tracer.counters.items()})
    values = layer_values(tracer, counts)
    wanted = per_layer_names()
    probe_wrong = []
    for other in WORKLOADS.values():
        owner = importlib.import_module(other)
        if all(m in values for m in owner.LAYER_METRICS):
            continue
        owner_ctx = ctx if owner is module else owner.setup(ROOT, tracer)
        before = dict(tracer.counters)
        try:
            for op in owner.probe(owner_ctx, seed):
                rec = run_op(op, tracer)
                if rec.status == WRONG:
                    probe_wrong.append("%s: %s" % (rec.kind, rec.detail))
        finally:
            if owner is not module:
                owner.cleanup(owner_ctx)
        for m, n in tracer.counters.items():
            if n != before.get(m, 0):
                counts.setdefault(m, n - before.get(m, 0))
        for m in owner.LAYER_METRICS:
            if unit_of(m) == "count":
                counts.setdefault(m, 0)
        values = layer_values(tracer, counts)
    values["trace.overhead_share"] = overhead / loop_wall
    values["trace.spans"] = n_spans / passes
    missing = [m for m in wanted if m not in values]
    if missing:
        raise RuntimeError("per-layer metrics not produced: %s" % ", ".join(missing))
    return {m: values[m] for m in wanted}, probe_wrong


# ---------------------------------------------------------------------------
# one workload


def gauge_report(gauge) -> dict:
    """The gauge's samples in a run: how many, and the median and range of
    the speed factor they give (1 = the reference speed)."""
    if gauge is None or not gauge.samples:
        return {}
    factors = sorted(gauge.reference_s / d for _, d in gauge.samples)
    return {"samples": len(factors), "factor_median": statistics.median(factors),
            "factor_min": factors[0], "factor_max": factors[-1],
            "kernel_median_s": statistics.median(d for _, d in gauge.samples)}


def interpreter_start() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S)
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> tuple:
    """Set-up time of a fresh process: from spawning it until it reports that
    interpreter start, imports, warm-up and the first pass's inputs are done.
    Returns (wall time, wall time scaled by START_REFERENCE_S over the mean
    of a bare interpreter start just before and just after)."""
    before = interpreter_start()
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != SETUP_READY:
        raise RuntimeError("set-up probe of %s failed (exit %s)" % (workload, proc.returncode))
    after = interpreter_start()
    return elapsed, elapsed * START_REFERENCE_S / ((before + after) / 2)


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    name = args.workload
    module = importlib.import_module(WORKLOADS[name])
    tracer = Tracer() if args.trace else NullTracer()
    ctx = module.setup(ROOT, tracer)
    try:
        first = module.make_pass(ctx, args.seed, 0)
        if args.setup_only:
            print(SETUP_READY, flush=True)
            return 0
        # traced runs report raw span times, so they leave the gauge out
        gauge = Gauge(*module.GAUGE) if module.GAUGE and not args.trace else None
        loop_start = time.perf_counter()
        records, passes = run_passes(lambda i: module.make_pass(ctx, args.seed, i),
                                     first, args.seconds, tracer, gauge)
        loop_wall = time.perf_counter() - loop_start
        rss = peak_rss_mb(module.RSS)
        summary = summarize(records, module.TAIL_PCT)
        wrong = [r for r in records if r.status == WRONG]
        setup_runs = []
        if args.trace:
            metrics, probe_wrong = traced_layers(module, ctx, args.seed, tracer, loop_wall,
                                                 passes)
            trace_path = ROOT / ".perfbench" / ("trace-%s-seed%d.json" % (name, args.seed))
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(
                {"workload": name, "seed": args.seed, "spans": tracer.dump(),
                 "counters": tracer.counters}), encoding="utf-8")
        else:
            probe_wrong = []
            setup_runs = [setup_probe(name, args.seed) for _ in range(SETUP_SAMPLES)]
            values = dict(summary, setup_s=statistics.median(s for _, s in setup_runs),
                          peak_rss_mb=rss)
            metrics = {m: values[m] for m in END_TO_END}
    finally:
        module.cleanup(ctx)

    units = END_TO_END if not args.trace else {m: unit_of(m) for m in metrics}
    report = {k: summary[k] for k in ("attempted", "completed", "failed", "wrong",
                                      "fail_ratio", "tail_pct", "tail_ops_beyond", "unscaled")}
    report.update(workload=name, seed=args.seed, passes=passes, loop_wall_s=loop_wall,
                  setup_runs_s=[w for w, _ in setup_runs],
                  setup_runs_scaled_s=[s for _, s in setup_runs], gauge=gauge_report(gauge),
                  by_kind=median_by_kind(records))
    print("summary: " + json.dumps(report, sort_keys=True))
    for r in records:
        if r.status != OK:
            print("%s op %s: %s" % (r.status, r.kind, r.detail[:300]))
    for detail in probe_wrong:
        print("wrong probe op %s" % detail[:300])
    print(json.dumps({
        "correct": not wrong and not probe_wrong,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload


def run_child(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(ln[len("summary: "):]) for ln in lines
                   if ln.startswith("summary: "))
    return summary, json.loads(lines[-1])


def run_all(args) -> int:
    rows = {}
    for name in WORKLOADS:
        runs = [run_child(name, seed, args.seconds, args.trace)
                for seed in range(args.seed, args.seed + args.repeat)]
        rows[name] = runs
        print("== %s (%d run%s, --trace %d)" % (name, len(runs), "s" * (len(runs) > 1),
                                                args.trace))
        first_summary, first = runs[0]
        print("   ops checked %s, completed %s, failed %s (wrong %s), fail_ratio %.4f, "
              "tail = p%d with %d ops beyond, correct %s" % (
                  first_summary["attempted"], first_summary["completed"],
                  first_summary["failed"], first_summary["wrong"],
                  first_summary["fail_ratio"], first_summary["tail_pct"],
                  first_summary["tail_ops_beyond"], all(r["correct"] for _, r in runs)))
        for metric, cell in first["metrics"].items():
            vals = [r["metrics"][metric]["value"] for _, r in runs]
            if len(vals) >= 4:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / statistics.median(vals) if statistics.median(vals) else 0.0
                print("   %-36s %14.6g %-6s median of %d, IQR/median %.3f" % (
                    metric, statistics.median(vals), cell["unit"], len(vals), spread))
            else:
                print("   %-36s %14.6g %-6s" % (metric, statistics.median(vals), cell["unit"]))
    if args.out:
        Path(args.out).write_text(json.dumps({"machine": machine(), "seconds": args.seconds,
                                              "runs": rows}, indent=1, sort_keys=True),
                                  encoding="utf-8")
    return 0


def machine() -> dict:
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="with --all: seeds per workload")
    parser.add_argument("--out", help="with --all: write every run's result here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vortexmoduli" / "__init__.py").is_file():
        print("run.py: no vortexmoduli package under %s; run from a checkout of the "
              "repository" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
