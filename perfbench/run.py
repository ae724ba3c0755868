"""transportlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload continuity_certify --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from that
checkout's ``src/`` and nowhere else.  Set-up (imports, input generation,
input files) is timed from the process's start; one untimed warm-up
scenario follows; then whole rounds of the workload's scenarios run until
``--seconds`` have passed.  Output checks run after the timed rounds.
Reported times are normalised to a nominal machine speed by fixed
reference work timed beside them (``reference.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round, prints the per-layer metrics (per traced
round) and writes the spans under ``.perfbench-traces/``.  See README.md.
"""

import os
import sys
import time

_T_IMPORT = time.perf_counter()

# one process, one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")

PER_LAYER_SELF = {  # metric -> span whose self time it reports
    "scenarios.load_s": "scenarios.load_scenario",
    "cli.self_s": "cli.run_mode",
    "expr.eval_s": "expr.eval",
    "transport.solve_field_s": "transport.solve_field",
    "transport.solve_point_s": "transport.solve_point",
    "characteristics.backtrace_s": "characteristics.backtrace",
    "characteristics.flow_s": "characteristics.flow",
    "oracle.upwind_s": "oracle.upwind",
    "norms.extremals_s": "norms.extremals",
    "norms.fading_memory_s": "norms.fading_memory",
    "norms.lp_norm_s": "norms.lp_norm",
    "bounds.trajectory_run_s": "bounds.trajectory_run",
    "bounds.certify_s": "bounds.certify",
    "manufacturing.closed_loop_s": "manufacturing.closed_loop",
}
PER_LAYER_COUNTS = {  # metric -> (counter, unit)
    "expr.eval_calls": ("expr.eval_calls", "count"),
    "transport.solve_field_calls": ("transport.solve_field_calls", "count"),
    "transport.nodes": ("transport.nodes", "nodes"),
    "transport.point_queries": ("transport.point_queries", "count"),
    "characteristics.backtrace_calls": ("characteristics.backtrace_calls", "count"),
    "oracle.nodes": ("oracle.nodes", "nodes"),
    "norms.fading_memory_calls": ("norms.fading_memory_calls", "count"),
    "norms.lp_norm_calls": ("norms.lp_norm_calls", "count"),
    "bounds.cells": ("bounds.cells", "cells"),
    "manufacturing.windows": ("manufacturing.windows", "count"),
    "manufacturing.fixed_point_iterations": (
        "manufacturing.fixed_point_iterations", "count"),
}


def _since_process_start() -> float:
    """Seconds since this process started (Linux), else since this file began."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - start_ticks / os.sysconf("SC_CLK_TCK"))
        if age > 0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T_IMPORT


def _import_program():
    """Import transportlab and transportlab.cli from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "transportlab", "__init__.py")):
        raise SystemExit(f"benchmark: no transportlab package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    tl = importlib.import_module("transportlab")
    importlib.import_module("transportlab.cli")
    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(tl.__file__))) != SRC:
        raise SystemExit(f"benchmark: transportlab came from {tl.__file__}, not {SRC}")
    return tl, seconds


class Runner:
    """Whole rounds of one workload, with the outputs kept for the checks."""

    def __init__(self, workload, tmp: str):
        from reference import reference_work

        self.workload = workload
        self.reference_work = reference_work
        self.first_dir = os.path.join(tmp, "round1")
        self.next_dir = os.path.join(tmp, "round")
        self.first = []      # outcomes of the first round, checked at the end
        self.seconds = []    # per-scenario wall time, every round
        self.refs = []       # reference work's wall time, just before each scenario
        self.nodes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def round(self) -> float:
        """Run every scenario once; return the round's summed scenario time."""
        first = not self.first
        out = self.first_dir if first else self.next_dir
        os.makedirs(out, exist_ok=True)
        total = 0.0
        for i in range(len(self.workload)):
            self.refs.append(self.reference_work())
            outcome = self.workload.run(i, out)
            self.seconds.append(outcome.seconds)
            self.nodes += outcome.nodes
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            total += outcome.seconds
            if first:
                self.first.append(outcome)
            elif outcome.digest != self.first[i].digest:
                self.mismatches.append(i)
        return total

    def check(self) -> bool:
        ok = not self.mismatches
        if self.mismatches:
            names = [self.workload.specs[i].name for i in self.mismatches]
            print(f"check failed: outputs differ between rounds for {names}",
                  file=sys.stderr)
        for i, outcome in enumerate(self.first):
            if outcome.failed:
                continue  # counted in `failed`; its outputs are incomplete
            try:
                self.workload.check(i, outcome)
            except (AssertionError, OSError, ValueError, KeyError) as e:
                print(f"check failed on {self.workload.specs[i].name}: {e}",
                      file=sys.stderr)
                ok = False
        return ok


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float) -> dict:
    from reference import normalised

    t0 = time.perf_counter()
    while True:
        runner.round()
        if time.perf_counter() - t0 >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    norm = normalised(runner.seconds, runner.refs)
    return {
        "scenario_s": _metric(statistics.median(norm), "s"),
        "nodes_per_s": _metric(runner.nodes / sum(norm), "nodes/s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def measure_traced(runner: Runner, seconds: float, import_s: float,
                   trace_path: str) -> dict:
    from spans import Tracer

    tracer = Tracer()
    plain = traced = 0.0
    pairs = 0
    t0 = time.perf_counter()
    while True:
        plain += runner.round()
        tracer.install()
        try:
            traced += runner.round()
        finally:
            tracer.uninstall()
        pairs += 1
        if time.perf_counter() - t0 >= seconds:
            break
    totals = tracer.totals()
    metrics = {"setup.import_s": _metric(import_s, "s"),
               "machine.reference_s": _metric(statistics.median(runner.refs), "s")}
    for metric, span in PER_LAYER_SELF.items():
        metrics[metric] = _metric(totals.get(span, (0.0, 0.0, 0))[1] / pairs, "s")
    for metric, (counter, unit) in PER_LAYER_COUNTS.items():
        metrics[metric] = _metric(tracer.counts.get(counter, 0.0) / pairs, unit)
    metrics["cli.artifact_mb"] = _metric(
        tracer.counts.get("cli.artifact_bytes", 0.0) / pairs / 1e6, "MB")
    metrics["trace.overhead_s"] = _metric((traced - plain) / pairs, "s")
    tracer.dump(trace_path, {k: m["value"] for k, m in metrics.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tl, import_s = _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](tl, args.seed, tmp)
        setup_s = _since_process_start()
        from reference import NOMINAL_S, gauge

        setup_s *= NOMINAL_S / gauge()  # the machine's speed just after set-up
        warmup = os.path.join(tmp, "warmup")
        os.makedirs(warmup)
        workload.run(0, warmup)
        runner = Runner(workload, tmp)
        if args.trace:
            path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.npz")
            metrics = measure_traced(runner, args.seconds, import_s, path)
        else:
            metrics = {"setup_s": _metric(setup_s, "s"),
                       **measure(runner, args.seconds)}
        correct = runner.check()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
