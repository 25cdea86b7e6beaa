"""Seeded, self-checking benchmark for curvext.

    python3 perfbench/run.py --workload rr-cold --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports curvext from its src/.
Set-up is a fresh import of curvext plus input generation from the
seed.  The timed work is PASSES[workload] whole passes of the workload,
the same number for every version of the program, started evenly over
--seconds; every answer is checked.  The run keeps to one CPU, and all
its timing is done with hostclock.HostClock, in reference seconds: wall
time scaled by how fast that CPU runs a fixed reference kernel at the
moment, which takes out the host's slow stretches of a minute or more.
A pass repeats the same ops on fresh curve objects, and each op's
latency is the median of its repetitions, which filters the short
disturbances that are left (interrupts, collections, a calibration
that missed a change of speed).  Set-up runs once before the first
pass and SETUP_PER_PASS times after every pass, and setup_s is the
median of those samples.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A human
summary, with the error rate and the sample counts behind each
percentile, goes to stderr.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
same untraced passes run first, for the per-command CLI latencies; then
one untraced and one traced pass run back to back on the wall clock,
for the tracing overhead.  The traced pass is exactly one pass, so its
counts repeat exactly for a given seed, and the metrics are the
per-layer ones.  The spans of the traced pass are written to
.perfbench/trace-<workload>-seed<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array

import program
import workloads
from hostclock import HostClock
from tracing import Tracer

# passes per run; cli-mix passes are short and its longest calls run
# in a thread pool, so it takes more of them
PASSES = {"rr-cold": 4, "class-sweep": 4, "point-enum": 4, "cli-mix": 8}
SETUP_PER_PASS = 3
OUT_DIR = os.path.join(program.ROOT, ".perfbench")

CLI_KINDS = ("curve_validate", "rr_basis", "ext_det", "ext_prop1",
             "ext_search", "ext_destab", "secant_member",
             "secant_experiment_t1", "secant_experiment_t2", "bounds_m",
             "bounds_delta0", "bounds_theorem2")

END_TO_END = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "<span>.<field>" reads a field of the traced
# totals of that span (calls, self_s or the span's own counter)
PER_LAYER = {
    "fields.add.calls": "count", "fields.mul.calls": "count",
    "fields.inv.calls": "count",
    "polys.residue_sqrt.calls": "count", "polys.residue_sqrt.self_s": "s",
    "polys.residue_is_square.calls": "count",
    "polys.residue_is_square.self_s": "s",
    "polys.Poly.is_irreducible.calls": "count",
    "polys.Poly.is_irreducible.self_s": "s",
    "polys.hensel_sqrt.calls": "count", "polys.hensel_sqrt.self_s": "s",
    **{f"linalg.{fn}.{what}": unit
       for fn in ("kernel_basis", "rref", "solve", "rank", "det")
       for what, unit in (("calls", "count"), ("self_s", "s"),
                          ("entries", "count"))},
    "curves.enumerate_closed_points.calls": "count",
    "curves.enumerate_closed_points.self_s": "s",
    "curves.enumerate_closed_points.points": "count",
    "curves.make_curve.self_s": "s",
    "curves.enumerate_effective_divisors.divisors": "count",
    "riemann_roch.rr_basis.calls": "count",
    "riemann_roch.rr_basis.distinct": "count",
    "riemann_roch.rr_basis.hit_ratio": "ratio",
    "riemann_roch.rr_basis.self_s": "s",
    "riemann_roch.coordinates.calls": "count",
    "riemann_roch.coordinates.self_s": "s",
    "extensions.ExtensionDatum.pair_tensor.self_s": "s",
    "extensions.ExtensionDatum.boundary_payload_rows.calls": "count",
    "extensions.ExtensionDatum.boundary_payload_rows.self_s": "s",
    "extensions.ExtensionDatum.det_payload.calls": "count",
    "extensions.ExtensionDatum.det_payload.self_s": "s",
    "extensions.make_datum.self_s": "s",
    "extensions.prop1_certificate.self_s": "s",
    "extensions.brute_force_destabilizer.calls": "count",
    "extensions.brute_force_destabilizer.self_s": "s",
    "extensions.brute_force_destabilizer.examined": "count",
    "extensions.search_semistable.calls": "count",
    "extensions.search_semistable.examined": "count",
    "secant.secant_table.calls": "count", "secant.secant_table.self_s": "s",
    "secant.secant_table.members": "count",
    "secant.secant_member.calls": "count", "secant.secant_member.self_s": "s",
    "secant.secant_member.examined": "count",
    "secant.offsecant_experiment.self_s": "s",
    "bounds.theorem2_bound.calls": "count", "bounds.theorem2_bound.self_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.{kind}.p50_ms": "ms" for kind in CLI_KINDS},
    "trace.untraced_ops_per_s": "ops/s",
    "trace.traced_ops_per_s": "ops/s",
    "trace.overhead_ratio": "ratio",
}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class _NoMark:
    op = -1


def setup(workload, seed, work_dir, clock):
    """One set-up: a fresh import of curvext plus input generation.
    Returns the modules, the inputs and the time taken on `clock`.  Any curvext
    modules imported before are put back in sys.modules afterwards, so
    the passes keep running on one set of module objects."""
    prepare, _ = workloads.WORKLOADS[workload]
    kept = {name: mod for name, mod in sys.modules.items()
            if name == "curvext" or name.startswith("curvext.")}
    t0 = clock()
    cx = program.load_program()
    ctx = prepare(cx, seed, work_dir)
    elapsed = clock() - t0
    sys.modules.update(kept)
    return cx, ctx, elapsed


def summarize(results):
    """The passes of a run in one summary: each op's latency and each
    segment's time outside the ops are their medians over the passes.
    A pass whose ops do not line up with the first pass's (one that
    failed part-way) counts toward attempted and failed only."""
    first = results[0]
    whole = [r for r in results if len(r.latencies) == len(first.latencies)]
    segments = {}
    for r in whole:
        for key, t in r.other.items():
            segments.setdefault(key, []).append(t)
    return {"attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "passes": len(results),
            "typical": array("d", map(_median, *(r.latencies for r in whole)))
            if first.latencies else array("d"),
            "other": {key: statistics.median(v) for key, v in segments.items()},
            "kinds": first.kinds,
            "problems": [msg for r in results for msg in r.problems]}


def _median(*values):
    return statistics.median(values)


def throughput(summary):
    """Ops that passed their checks per second of timed work: a pass made
    of each op's typical latency plus the typical timed work outside
    the ops (curve, datum and table construction) per segment."""
    seconds = sum(summary["typical"]) + sum(summary["other"].values())
    if not seconds or not summary["attempted"]:
        return 0.0
    ok_share = (summary["attempted"] - summary["failed"]) / summary["attempted"]
    return len(summary["typical"]) * ok_share / seconds


def run_passes(cx, ctx, workload, seconds, between, clock):
    """PASSES[workload] whole passes timed on `clock`, pass i of n
    starting no earlier than i/n of the way through `seconds` of wall time, calling
    `between()` after each.  A pass that overruns its share starts the
    next one late; it never drops one, so every op has the same number
    of repetitions."""
    _, run_pass = workloads.WORKLOADS[workload]
    results = []
    start = time.perf_counter()
    passes = PASSES[workload]
    for i in range(passes):
        wait = start + i * seconds / passes - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        results.append(run_pass(cx, ctx, _NoMark, clock))
        between()
    return summarize(results)


def cli_p50s(summary):
    by_kind = {}
    for kind, dt in zip(summary["kinds"], summary["typical"]):
        by_kind.setdefault(kind, []).append(dt)
    return {kind: statistics.median(v) * 1e3 for kind, v in by_kind.items()}


def traced_pass(cx, ctx, workload, out_path):
    _, run_pass = workloads.WORKLOADS[workload]
    tracer = Tracer(cx.modules)
    tracer.install()
    try:
        res = run_pass(cx, ctx, tracer, time.perf_counter)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write_spans(out_path)
    return res, tracer


def per_layer_metrics(totals, untraced_res, traced_res, p50s):
    values = {}
    for name in PER_LAYER:
        span, what = name.rsplit(".", 1)
        values[name] = totals.get(span, {}).get(what, 0)
    rr = totals.get("riemann_roch.rr_basis", {})
    values["riemann_roch.rr_basis.hit_ratio"] = (
        1 - rr["distinct"] / rr["calls"] if rr.get("calls") else 0.0)
    for kind in CLI_KINDS:
        values[f"cli.{kind}.p50_ms"] = p50s.get(kind, 0.0)
    untraced_ops = throughput(summarize([untraced_res]))
    traced_ops = throughput(summarize([traced_res]))
    values["trace.untraced_ops_per_s"] = untraced_ops
    values["trace.traced_ops_per_s"] = traced_ops
    values["trace.overhead_ratio"] = untraced_ops / traced_ops
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and every thread it starts, so the clock
        # calibrates on the CPU that does the work
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = HostClock()
    try:
        cx, ctx, first = setup(args.workload, args.seed, work_dir, clock)
    except (program.MissingProgram, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    setup_times = [first]

    def more_setups(count=SETUP_PER_PASS):
        for _ in range(count):
            setup_times.append(setup(args.workload, args.seed, work_dir,
                                     clock)[2])
            gc.collect()        # the dropped modules are cyclic garbage

    try:
        untraced = run_passes(cx, ctx, args.workload, args.seconds,
                              more_setups, clock)
        attempted, failed = untraced["attempted"], untraced["failed"]
        problems = untraced["problems"]
        if args.trace:
            out_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.csv.gz")
            _, run_pass = workloads.WORKLOADS[args.workload]
            plain = run_pass(cx, ctx, _NoMark, time.perf_counter)
            res, tracer = traced_pass(cx, ctx, args.workload, out_path)
            for r in (plain, res):
                attempted += r.attempted
                failed += r.failed
                problems += r.problems
            values = per_layer_metrics(tracer.totals(), plain, res,
                                       cli_p50s(untraced))
            units = PER_LAYER
            note = f"{tracer.span_count()} spans written to {out_path}"
        else:
            lat = sorted(untraced["typical"])
            values = {
                "ops_per_s": throughput(untraced),
                "op_p50_ms": percentile(lat, 0.5) * 1e3,
                "op_p90_ms": percentile(lat, 0.9) * 1e3,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            note = (f"{untraced['passes']} passes, {len(lat)} ops with a "
                    f"median latency each ({len(lat) - int(0.9 * len(lat))} at "
                    f"or beyond p90), {len(setup_times)} set-ups, "
                    f"{clock.calibration_s:.2f} s of wall time calibrating "
                    f"the clock")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {note}", file=sys.stderr)
    print(f"  error_rate {failed / max(attempted, 1):.6f} ratio "
          f"({failed} of {attempted} ops failed)", file=sys.stderr)
    for msg in problems[:10]:
        print(f"  FAILED: {msg}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
