"""Run one workload: set-up, timed passes, checks, metrics, optional trace.

An untraced run sets up SETUP_REPEATS times, then makes as many whole passes
over the workload's inputs as fit in ``seconds``, at least one. It times
set-ups and ops with ``speed.SpeedClock``, in reference-speed seconds, and
keeps their net wall times alongside. A traced run
sets up, makes one untraced pass as the reference, then sets up and passes
again with the tracer installed; the traced outputs must equal the untraced
ones bit for bit, and the difference in pass time is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Per-module metrics of the result line: the ones that are measured on
# every workload over one traced set-up plus one traced pass. Modules that
# run in one workload only are in the full table of every traced run.
PER_LAYER = {
    "combinatorics.build_complex_s": "s",
    "combinatorics.build_complex_calls": "count",
    "bodies.make_body_s": "s",
    "bodies.make_path_s": "s",
    "bodies.make_path_calls": "count",
    "bodies.chart_inverse_s": "s",
    "bodies.chart_inverse_calls": "count",
    "bodies.gauge_evals": "count",
    "packing.solve_radii_s": "s",
    "packing.solve_radii_calls": "count",
    "packing.layout_lift_s": "s",
    "solver.residual_s": "s",
    "solver.residual_calls": "count",
    "solver.jacobian_s": "s",
    "solver.jacobian_calls": "count",
    "solver.linear_solve_s": "s",
    "solver.lstsq_fallbacks": "count",
    "solver.svd_audit_s": "s",
    "solver.svd_audit_calls": "count",
    "solver.system_builds": "count",
    "solver.continue_self_s": "s",
    "solver.newton_iterations": "count",
    "solver.steps_accepted": "count",
    "solver.steps_rejected": "count",
    "verify.check_midscription_s": "s",
    "verify.check_convexity_s": "s",
    "io.write_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> metric stem for self time (and call count where it means
# something). kdisk extraction and the sweep command run in one workload
# each, so they are in the full table only.
SPAN_METRICS = {
    "combinatorics.build_complex": ("combinatorics.build_complex", True),
    "bodies.make_body": ("bodies.make_body", False),
    "bodies.make_path": ("bodies.make_path", True),
    "bodies.chart_inverse": ("bodies.chart_inverse", True),
    "packing.solve_radii": ("packing.solve_radii", True),
    "packing.layout_lift": ("packing.layout_lift", False),
    "solver.residual": ("solver.residual", True),
    "solver.jacobian": ("solver.jacobian", True),
    "solver.linear_solve": ("solver.linear_solve", False),
    "solver.svd_audit": ("solver.svd_audit", True),
    "solver.continue": ("solver.continue_self", False),
    "verify.check_midscription": ("verify.check_midscription", True),
    "verify.check_convexity": ("verify.check_convexity", True),
    "verify.kdisk_extract": ("verify.kdisk_extract", True),
    "io.write": ("io.write", True),
    "cli.sweep": ("cli.sweep_self", False),
}


class BenchError(Exception):
    """The program's outputs or counters broke a check of the benchmark."""


# ---------------------------------------------------------------------------
# environment

def code_hash() -> str:
    """sha256 over the package and benchmark sources."""
    h = hashlib.sha256()
    root = BENCH_DIR.parent
    files = sorted((root / "src" / "midscribe").glob("*.py"))
    files += sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (deps.get("name"), deps.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "MIDSCRIBE_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(),
        "code_sha256": code_hash(),
    }


# ---------------------------------------------------------------------------
# running ops and passes

def untraced_op(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def traced_op(tracer):
    def run_op(fn, *args):
        start = time.perf_counter()
        value = tracer.call("bench.op", fn, args, {}, op_root=True)
        return value, time.perf_counter() - start
    return run_op


def timed_setups(workload, repeats, run_op=untraced_op):
    """Set up repeats times; every set-up must give the same inputs."""
    seconds, digests, state = [], set(), None
    for _ in range(repeats):
        (state, digest), elapsed = run_op(workload.setup)
        seconds.append(elapsed)
        digests.add(digest)
    if len(digests) != 1:
        raise BenchError("set-up is not deterministic: %d distinct inputs"
                         % len(digests))
    return state, seconds


def timed_pass(workload, state, run_op):
    start = time.perf_counter()
    results = workload.run_pass(state, run_op)
    return results, time.perf_counter() - start


def pass_signature(results) -> list:
    """What must repeat exactly: items, outcomes, output digests, counters."""
    return [(r.item, r.failure, r.wrong, r.digest, sorted(r.counters.items()))
            for r in results]


def exact_counters(results) -> dict:
    """Counters of one pass, summed or tallied over its ops."""
    total = Counter()
    for r in results:
        for key, value in r.counters.items():
            if isinstance(value, (bool, str)):
                total["%s=%s" % (key, value)] += 1
            else:
                total[key] += value
    total["ops_failed"] = sum(1 for r in results if r.failure)
    return dict(sorted(total.items()))


def check_counters_across_runs(out_dir, workload_name, seed, kind, counters):
    """Counters of this code and seed must equal those of earlier runs."""
    path = Path(out_dir) / "counters" / ("%s-%d-%s-%s.json" % (
        workload_name, seed, kind, code_hash()[:16]))
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            raise BenchError("exact counters differ from an earlier run of "
                             "the same code and seed: %s vs %s"
                             % (counters, earlier))
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least TAIL_BEYOND samples above it. With fewer than
    2 * TAIL_BEYOND + 1 samples that percentile is not above the median, so
    the maximum is reported instead, with zero samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def latency_summary(passes) -> dict:
    """Throughput, median and tail from each input's median op time.

    Taking one value per input keeps the mix fixed whatever the number of
    passes. The median over an input's passes, which lie seconds apart,
    discounts a pass that a hiccup of the machine slowed; throughput taken
    from the same values is the rate of one closed-loop client.
    """
    per_item = {}
    for results in passes:
        for r in results:
            if r.ok:
                per_item.setdefault(r.item, []).append(r.seconds)
    medians = {item: statistics.median(v) for item, v in per_item.items()}
    if not medians:
        raise BenchError("no op succeeded")
    tail, pct, beyond = tail_percentile(medians.values())
    return {"samples": per_item,
            "ops_per_s": len(medians) / math.fsum(medians.values()),
            "op_p50_s": statistics.median(medians.values()), "op_tail_s": tail,
            "tail_percentile": pct, "tail_beyond": beyond,
            "n_inputs": len(medians), "per_input_s": medians}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(results) -> list:
    return ["%s: %s" % (r.item, r.failure) for r in results if r.failure]


def _wrong(results) -> list:
    return ["%s: %s" % (r.item, r.wrong) for r in results if r.wrong]


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(workload, seed, seconds, out_dir) -> dict:
    clock = speed.SpeedClock()
    state, setup_seconds = timed_setups(workload, SETUP_REPEATS, clock)
    passes, pass_seconds = [], []
    while True:
        results, wall = timed_pass(workload, state, clock)
        passes.append(results)
        pass_seconds.append(wall)
        # another whole pass only if it is expected to end within seconds
        if math.fsum(pass_seconds) + statistics.fmean(pass_seconds) > seconds:
            break
    reference = pass_signature(passes[0])
    if any(pass_signature(p) != reference for p in passes[1:]):
        raise BenchError("passes over the same inputs gave different outputs "
                         "or counters")
    counters = exact_counters(passes[0])
    check_counters_across_runs(out_dir, workload.name, seed, "untraced",
                               counters)
    all_results = [r for p in passes for r in p]
    n_ok = sum(1 for r in all_results if r.ok)
    setup_log, op_log = clock.log[:SETUP_REPEATS], clock.log[SETUP_REPEATS:]
    latency = latency_summary(passes)
    parts = sorted({r.item.split("/")[0] for r in passes[0]}) \
        if hasattr(workload, "parts") else []
    part_summaries = {}
    for part in parts:
        summary = latency_summary([[r for r in p
                                    if r.item.split("/")[0] == part]
                                   for p in passes])
        part_summaries[part] = {k: summary[k] for k in
                                ("ops_per_s", "op_p50_s", "op_tail_s",
                                 "tail_percentile", "n_inputs")}
    metrics = {"setup_s": statistics.median(setup_seconds),
               "ops_per_s": latency["ops_per_s"],
               "op_p50_s": latency["op_p50_s"],
               "op_tail_s": latency["op_tail_s"],
               "peak_rss_mb": peak_rss_mb()}
    return {
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in END_TO_END.items()},
        "attempted": len(all_results),
        "failed": sum(1 for r in all_results if r.failure),
        "wrong": _wrong(all_results),
        "failures": sorted(set(_failures(all_results))),
        "detail": {"passes": len(passes), "pass_seconds": pass_seconds,
                   "wall_setup_s": statistics.median(e[0] for e in setup_log),
                   "wall_ops_per_s": n_ok / math.fsum(e[0] for e in op_log),
                   "probe_mean_s": statistics.fmean(e[2] for e in clock.log),
                   "probe_ref_s": speed.REF_SECONDS,
                   "setup_seconds": setup_seconds,
                   "tail_percentile": latency["tail_percentile"],
                   "tail_beyond": latency["tail_beyond"],
                   "n_inputs": latency["n_inputs"],
                   "per_input_s": latency["per_input_s"],
                   "samples_s": latency["samples"], "parts": part_summaries,
                   "counters": counters},
    }


def module_table(tracer) -> dict:
    """Every per-module number this traced run measured."""
    self_times = tracer.self_times()
    table = {}
    for span, (stem, with_calls) in SPAN_METRICS.items():
        seconds, calls = self_times.get(span, (0.0, 0))
        table[stem + "_s"] = seconds
        if with_calls:
            table[stem + "_calls"] = calls
    continue_ids = {k for k, span in enumerate(tracer.spans)
                    if span[0] == tracing.CONTINUE}
    builds_in_continue = sum(1 for span in tracer.spans
                             if span[0] == "solver.system_build"
                             and span[3] in continue_ids)
    reports = [r for r in tracer.solve_reports if r is not None]
    accepted = sum(len(r.step_history) for r in reports)
    table.update({
        "bodies.gauge_evals": tracer.gauge_evals,
        "solver.lstsq_fallbacks": tracer.lstsq_fallbacks,
        "solver.system_builds": builds_in_continue,
        "solver.newton_iterations": sum(r.iterations for r in reports),
        "solver.steps_accepted": accepted,
        "solver.steps_rejected": builds_in_continue - accepted,
    })
    return table


def run_traced(workload, seed, seconds, out_dir) -> dict:
    state, _ = timed_setups(workload, 1)
    reference, untraced_wall = timed_pass(workload, state, untraced_op)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        state, _ = timed_setups(workload, 1)
        state, restore = workload.counted(state, tracer)
        try:
            results, traced_wall = timed_pass(workload, state,
                                              traced_op(tracer))
        finally:
            restore()
    finally:
        uninstall()

    if pass_signature(results) != pass_signature(reference):
        raise BenchError("the traced pass did not reproduce the untraced "
                         "outputs bit for bit")
    table = module_table(tracer)
    table["trace.overhead_s"] = traced_wall - untraced_wall
    counters = {k: v for k, v in table.items() if not k.endswith("_s")}
    counters.update(exact_counters(results))
    check_counters_across_runs(out_dir, workload.name, seed, "traced",
                               counters)

    op_times = tracer.op_durations()
    op_modules = tracer.op_self_times()
    traced_ok = [k for k, r in enumerate(results) if r.ok]
    untraced_total = math.fsum(reference[k].seconds for k in traced_ok)
    traced_total = math.fsum(op_times[k] for k in traced_ok)
    accounting = {
        "ops": len(traced_ok),
        "max_self_sum_error_s": max(
            (abs(math.fsum(op_modules[k].values()) - op_times[k])
             for k in op_times), default=0.0),
        "untraced_op_total_s": untraced_total,
        "traced_op_total_s": traced_total,
        "overhead_per_op_s": (traced_total - untraced_total)
        / max(1, len(traced_ok)),
    }
    per_op = [{"item": r.item, "untraced_s": reference[k].seconds,
               "traced_s": op_times.get(k), "self_s": op_modules.get(k, {})}
              for k, r in enumerate(results)]
    spans_path = Path(out_dir) / ("spans-%s-%d.json" % (workload.name, seed))
    spans_path.write_text(json.dumps(tracer.spans))
    return {
        "metrics": {k: {"value": table[k], "unit": u}
                    for k, u in PER_LAYER.items()},
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "wrong": _wrong(results) + _wrong(reference),
        "failures": sorted(set(_failures(results))),
        "detail": {"module_table": table, "accounting": accounting,
                   "per_op": per_op,
                   "untraced_pass_s": untraced_wall,
                   "traced_pass_s": traced_wall,
                   "spans": str(spans_path), "counters": counters},
    }


def run(workload_name, seed, seconds, trace, out_dir, **overrides) -> dict:
    """Run one workload and return the result with its environment."""
    if os.environ.get("MIDSCRIBE_THREADS") != "1":
        # with a process pool the sweep cells run out of reach of the clocks
        raise BenchError("MIDSCRIBE_THREADS must be 1")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](seed, out_dir, **overrides)
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds, out_dir)
    result.update(workload=workload_name, seed=seed, trace=bool(trace),
                  seconds=seconds, environment=environment())
    return result


def report_line(result) -> str:
    """The result line: correct, attempted, failed, metrics."""
    return json.dumps({"correct": not result["wrong"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


def print_summary(result, stream=sys.stdout):
    print("workload %s seed %d trace %d" % (result["workload"], result["seed"],
                                            result["trace"]), file=stream)
    print("ops_attempted %d ops_failed %d" % (result["attempted"],
                                              result["failed"]), file=stream)
    for name, m in result["metrics"].items():
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]), file=stream)
    detail = result["detail"]
    if "tail_percentile" in detail:
        print("  op_tail_s is p%.1f of %d per-input medians, %d beyond it; "
              "%d pass(es)" % (detail["tail_percentile"], detail["n_inputs"],
                               detail["tail_beyond"], detail["passes"]),
              file=stream)
    if "probe_mean_s" in detail:
        print("  timings above are in reference-speed seconds; net wall "
              "clock: setup_s %.6g s, ops_per_s %.6g 1/s; the probe took "
              "%.4g ms on average (reference %.4g ms)"
              % (detail["wall_setup_s"], detail["wall_ops_per_s"],
                 1e3 * detail["probe_mean_s"], 1e3 * detail["probe_ref_s"]),
              file=stream)
    for part, summary in detail.get("parts", {}).items():
        print("  part %s: ops_per_s %.6g 1/s, op_p50_s %.6g s, op_tail_s %.6g s "
              "(p%.1f of %d inputs)" % (part, summary["ops_per_s"],
                                        summary["op_p50_s"],
                                        summary["op_tail_s"],
                                        summary["tail_percentile"],
                                        summary["n_inputs"]), file=stream)
    if "module_table" in detail:
        for name, value in sorted(detail["module_table"].items()):
            if name not in result["metrics"]:
                print("  %-36s %.6g (table only)" % (name, value),
                      file=stream)
        acc = detail["accounting"]
        print("  per-op self-time sums match op time within %.3g s; tracing "
              "overhead %.4g s per op, %.4g s per pass"
              % (acc["max_self_sum_error_s"], acc["overhead_per_op_s"],
                 detail["traced_pass_s"] - detail["untraced_pass_s"]),
              file=stream)
    for line in result["failures"]:
        print("  failed: %s" % line, file=stream)
    for line in result["wrong"]:
        print("  WRONG: %s" % line, file=stream)
    print("  environment %s" % json.dumps(result["environment"]), file=stream)
