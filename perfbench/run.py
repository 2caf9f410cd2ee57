#!/usr/bin/env python3
"""fracreg benchmark: three workloads through ``fracreg.cli.main``.

Usage, from the root of a fracreg checkout:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload closed-loop (the next operation starts when
the last returns) for ``--seconds`` of operation time, checks every output
and prints the end-to-end metrics.  ``--trace 1`` runs fixed blocks of
operations with spans around the calls into each module and prints the
per-layer metrics; its traced pass takes a third of ``--seconds`` and the
same operations then run untraced, serially and pooled.  The last line of standard output is one JSON object;
each run is also appended, with a machine record, to a JSON-lines results
file that ``compare.py`` reads.

BLAS and OpenMP thread variables are recorded, never set: pinning them is a
program change this benchmark has to be able to show.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreters timed for setup_s, spread evenly over the run so that
# their median sees the same machine as the operations do.  Five samples
# taken back to back gave run-to-run spreads of 0.12 to 0.27 of the median.
SETUP_SAMPLES = 10
# --threads of sweep_grid in the timed run.  At --threads nproc the pool
# workers' inherited BLAS threads oversubscribe the cores, and on 2 cores the
# same 5-job sweep then takes 1.7 to 8.2 s: no run of a minute is steady
# enough to bound.  The pool is measured by the traced run's
# experiments.pool_speedup instead.
SWEEP_THREADS = 1
# Shortest tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def load_fracreg():
    """Import fracreg from this checkout's src/, never from site-packages."""
    cli_path = SRC / "fracreg" / "cli.py"
    if not cli_path.is_file():
        raise SystemExit("perfbench: %s not found; run from a fracreg checkout" % cli_path)
    sys.path.insert(0, str(SRC))
    import fracreg
    import fracreg.cli
    if Path(fracreg.cli.__file__).resolve() != cli_path.resolve():
        raise SystemExit("perfbench: imported fracreg from %s, not %s"
                         % (fracreg.cli.__file__, cli_path))
    return fracreg


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _git_commit():
    # Read .git directly: running git here could search parent directories.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record():
    import numpy as np
    import scipy
    with contextlib.redirect_stdout(io.StringIO()):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class Runner:
    """Runs operations one after another and checks each one's outputs."""

    def __init__(self, fracreg, scratch, tracer=None):
        self.cli = fracreg.cli
        self.scratch = scratch
        self.tracer = tracer
        self.count = 0
        self.messages = []

    def run(self, op, threads):
        """Run one operation; return (wall s, cpu s, CheckResult)."""
        self.count += 1
        op_dir = Path(self.scratch) / ("op%d" % self.count)
        around = contextlib.nullcontext
        if self.tracer is not None:
            self.tracer.op = self.count
            around = functools.partial(self.tracer.span, "cli.main")
        cpu0 = _cpu_seconds()
        code, out, wall = wl.run_op(self.cli, op, op_dir, threads, around)
        cpu = _cpu_seconds() - cpu0
        if self.tracer is not None and out.is_dir():
            self.tracer.counts["cli.output_bytes"] += _dir_bytes(out)
        result = wl.checks.CheckResult(units=op.units)
        if wl.checks.check_exit(code, result):
            result = op.check(str(out))
        self.messages += ["op %d: %s" % (self.count, m) for m in result.messages]
        shutil.rmtree(op_dir)
        return wall, cpu, result


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    With too few samples no percentile qualifies; the maximum is returned
    with percentile 100 so the report states it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def time_setup():
    """Wall time of one fresh interpreter importing fracreg.cli and exiting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fracreg.cli"], env=env, cwd=str(ROOT),
                   check=True)
    return time.perf_counter() - t0


def run_untraced(fracreg, workload, args, scratch):
    runner = Runner(fracreg, scratch)
    _, _, ref = runner.run(workload.reference_op(), 1)
    times, setup_times, cpu_total, units, failed = [], [], 0.0, 0, 0
    setup_samples = 1 if args.smoke else SETUP_SAMPLES
    index = 0
    # Stop on a block boundary so every input variant is equally represented.
    while sum(times) < args.seconds or index % workload.block:
        wall, cpu, result = runner.run(workload.op(args.seed, index), SWEEP_THREADS)
        times.append(wall)
        cpu_total += cpu
        units += result.units
        failed += result.failed
        index += 1
        # Sample k is taken once k / SETUP_SAMPLES of the operation time has passed.
        k = len(setup_times)
        if k < setup_samples and k * args.seconds <= sum(times) * setup_samples:
            setup_times.append(time_setup())
    while len(setup_times) < setup_samples:
        setup_times.append(time_setup())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_value, tail_pct = tail(times)
    metrics = {
        "work_per_s": (units / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "cpu_s_per_work": (cpu_total / units, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "op_s.p50": "median of %d operations" % len(times),
        "op_s.tail": "p%.1f of %d operations" % (tail_pct, len(times)),
        "setup_s": "median of %d fresh interpreters" % len(setup_times),
        "work_per_s": "%d work units in %.3f s of operations" % (units, sum(times)),
    }
    detail = {"op_s": times, "setup_s": setup_times, "reference_failed": ref.failed,
              "tail_percentile": tail_pct, "operations": len(times)}
    correct = ref.failed == 0 and failed == 0
    return metrics, notes, detail, units, failed, correct, runner.messages


def run_traced(fracreg, workload, args, scratch, nproc):
    import spans

    warm = Runner(fracreg, scratch)
    _, _, ref = warm.run(workload.reference_op(), 1)
    block = [workload.traced_op(args.seed, i) for i in range(workload.block)]

    tracer = spans.Tracer()
    runner = Runner(fracreg, scratch, tracer)
    uninstall = spans.install(tracer, fracreg)
    traced_wall, units, failed, blocks = 0.0, 0, 0, 0
    try:
        # Identical blocks, so every per-unit count repeats exactly.
        while blocks == 0 or traced_wall < args.seconds / 3:
            for op in block:
                wall, _, result = runner.run(op, 1)
                traced_wall += wall
                units += result.units
                failed += result.failed
            blocks += 1
    finally:
        uninstall()
    plain = Runner(fracreg, scratch)
    serial_wall = pooled_wall = 0.0
    for _ in range(blocks):
        for op in block:
            wall, _, result = plain.run(op, 1)
            serial_wall += wall
            failed += result.failed
            wall, _, result = plain.run(op, nproc)
            pooled_wall += wall
            failed += result.failed
    attempted = 3 * units
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("spans-%s-seed%d.json" % (workload.name, args.seed)))

    self_s = spans.self_times(tracer.spans)
    calls = tracer.calls()
    counts = tracer.counts
    jobs = counts["experiments.jobs"]

    def per_unit(x):
        return x / units

    metrics = {}
    for name in ("graph.build_graph.brute", "graph.build_graph.kdtree",
                 "graph.connectivity_check", "spectral.eigensolve.dense",
                 "spectral.eigensolve.iterative", "spectral.laplacian", "spectral.save_csv",
                 "estimator.grid_search", "estimator.fit", "experiments.generate",
                 "experiments.run_sweep", "experiments.write_csv",
                 "sobolev.continuum_seminorm", "config.parse_text", "config.serialize",
                 "cli.main"):
        metrics[name + ".self_s"] = (per_unit(self_s[name]), "s")
    solves = calls["spectral.eigensolve.dense"] + calls["spectral.eigensolve.iterative"]
    counted = {
        "graph.build_graph.calls": calls["graph.build_graph.brute"]
                                   + calls["graph.build_graph.kdtree"],
        "graph.edges": counts["graph.edges"],
        "graph.connectivity_check.calls": calls["graph.connectivity_check"],
        "spectral.eigensolve.calls": solves,
        "spectral.eigensolve.pairs": counts["spectral.eigensolve.pairs"],
        "spectral.eigensolve.failed": counts["spectral.eigensolve.failed"],
        "estimator.grid_search.calls": calls["estimator.grid_search"],
        "estimator.fit.calls": calls["estimator.fit"],
        "experiments.jobs": jobs,
        "experiments.retries": counts["experiments.retries"],
        "experiments.failures": counts["experiments.failures"],
        "sobolev.continuum_seminorm.calls": calls["sobolev.continuum_seminorm"],
        "sobolev.quadrature_cells": counts["sobolev.quadrature_cells"],
        "sobolev.diverged": counts["sobolev.diverged"],
    }
    for name, value in counted.items():
        metrics[name] = (per_unit(value), "count")
    metrics["cli.output_bytes"] = (per_unit(counts["cli.output_bytes"]), "B")
    metrics["spectral.eigensolves_per_job"] = (solves / jobs if jobs else 0.0, "count")
    metrics["experiments.pool_speedup"] = (serial_wall / pooled_wall, "ratio")
    metrics["trace.overhead_share"] = (traced_wall / serial_wall - 1.0, "ratio")
    notes = {
        "experiments.pool_speedup": "serial %.3f s / pooled %.3f s at --threads %d"
                                    % (serial_wall, pooled_wall, nproc),
        "trace.overhead_share": "traced %.3f s vs untraced %.3f s at --threads 1"
                                % (traced_wall, serial_wall),
        "spectral.eigensolves_per_job": "%d eigensolves / %d jobs (0 when no jobs)"
                                        % (solves, jobs),
    }
    detail = {"blocks": blocks, "units": units, "spans": len(tracer.spans),
              "reference_failed": ref.failed}
    correct = ref.failed == 0 and failed == 0
    messages = warm.messages + runner.messages + plain.messages
    return metrics, notes, detail, attempted, failed, correct, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_grid", "eigen_large", "seminorm_zoo"))
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT_DIR / "results.jsonl"),
                        help="JSON-lines file each run is appended to")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no reference comparison; a self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    fracreg = load_fracreg()
    workload = wl.workloads("smoke" if args.smoke else "full")[args.workload]
    nproc = os.cpu_count() or 1
    machine = machine_record()
    print("machine: %s" % json.dumps(machine, sort_keys=True))
    if not workload.seed_applies:
        print("note: %s runs fixed functions; --seed %d does not change its inputs"
              % (workload.name, args.seed))

    started = time.time()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        if args.trace:
            result = run_traced(fracreg, workload, args, scratch, nproc)
        else:
            result = run_untraced(fracreg, workload, args, scratch)
        metrics, notes, detail, units, failed, correct, messages = result

    for message in messages:
        print("check failed: %s" % message)
    if not args.trace:
        metrics_with_share = dict(metrics, failed_share=(failed / units, "1"))
        notes["failed_share"] = "%d of %d work units" % (failed, units)
    else:
        metrics_with_share = metrics
    for name, (value, unit) in metrics_with_share.items():
        note = notes.get(name)
        print("metric %s %s = %.6g %s%s" % (workload.name, name, value, unit,
                                             "  (%s)" % note if note else ""))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "started": started, "ended": time.time(),
        "machine": machine, "correct": correct, "attempted": units, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "detail": detail,
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": units, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
