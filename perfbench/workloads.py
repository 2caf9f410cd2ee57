"""The benchmark's workloads: the configs each operation sends to the CLI.

One operation is one ``fracreg.cli.main`` call.  Inputs are a function of the
workload seed and the operation index only, so the same seed gives the same
configs.  Each spec also says how many work units the operation does and how
its outputs are checked.

Why these three workloads:

* ``sweep_grid`` is the paper's experiment (criterion-1 slice) and the
  dominant cost.  Each job builds 4 graphs, runs 4 eigensolves, 1
  connectivity check, a grid search and a fit; n = 500 takes the brute-force
  pair scan and dense ``eigh``, larger n the kd-tree and ARPACK.  It is the
  only workload that runs the process pool.
* ``eigen_large`` is one large shift-invert solve on a kd-tree graph plus a
  ~5 MB CSV write.  It never reaches the estimator, the sweep harness or the
  connectivity check, so changes there should leave it unchanged.
* ``seminorm_zoo`` runs only the Sobolev quadrature, with no graph or
  spectral code.  Its operations take milliseconds, so CLI and config
  overhead are a visible share.  Its inputs are fixed functions: the seed
  does not apply to it.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# The seed whose first operation has committed reference outputs.  Every run
# executes that operation once, untimed, before measuring.
REFERENCE_SEED = 0

SWEEP_N_GRID = (500, 625, 750, 875, 1000)
SWEEP_K_GRID = (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64)  # the CLI's default grids.k
SWEEP_EPS_GRID = (0.12, 0.25, 0.5)
# Repetitions per sweep call.  Timed sweeps run serially, where a job costs
# the same at 5 and at 20 jobs per call (0.33 and 0.32 s on 2 cores), so one
# repetition keeps many operations in a run.  The pool's cost does depend on
# the call size (chunksize is jobs // (4 * threads)): pooled/serial speed-up
# was 0.63 at 5 jobs per call and 0.47 at 20 (medians of 6 and 3 alternating
# pairs), against 0.43 for the 100-job slice in ROADMAP.  The traced pass,
# which measures the pool, therefore runs 20-job sweeps.
SWEEP_REPETITIONS = 1
SWEEP_POOL_REPETITIONS = 4

EIGEN_N = 4000
EIGEN_M = 64
EIGEN_EPS = (0.12, 0.25)

SEMINORM_TRUTHS = ("f1", "f2", "f3", "f4")
SEMINORM_S = tuple(round(0.05 * i, 2) for i in range(1, 20))
SEMINORM_LEVEL = 12

KERNEL_H = 0.4


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, config text, work units and output check."""

    command: str
    config: str
    units: int
    check: object  # callable(out_dir) -> checks.CheckResult
    threaded: bool = False  # takes --threads

    def argv(self, config_path, out_dir, threads):
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.threaded:
            argv += ["--threads", str(threads)]
        return argv


def _config_text(mapping: dict) -> str:
    def fmt(v):
        if isinstance(v, (list, tuple)):
            return "[%s]" % ", ".join(fmt(x) for x in v)
        return repr(v) if isinstance(v, float) else str(v)
    return "".join("%s = %s\n" % (k, fmt(v)) for k, v in mapping.items())


def op_seed(seed: int, index: int) -> int:
    """Config seed of operation `index` of a run seeded with `seed`."""
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object  # callable(seed, index) -> Op
    # Operations per block: the smallest index range that covers every input
    # variant (both bandwidths, all four truths).
    block: int
    seed_applies: bool = True
    # callable(seed, index) -> Op for the traced pass and its untraced serial
    # and pooled twins; None means the timed operations.
    make_traced_op: object = None

    def op(self, seed: int, index: int) -> Op:
        return self.make_op(seed if self.seed_applies else REFERENCE_SEED, index)

    def traced_op(self, seed: int, index: int) -> Op:
        make = self.make_traced_op or self.make_op
        return make(seed if self.seed_applies else REFERENCE_SEED, index)

    def reference_op(self) -> Op:
        return self.make_op(REFERENCE_SEED, 0, reference=True)


# ---------------------------------------------------------------------------

def _sweep_op(seed, index, reference=False, size="full", repetitions=SWEEP_REPETITIONS):
    n_grid, k_grid, eps_grid = SWEEP_N_GRID, SWEEP_K_GRID, SWEEP_EPS_GRID
    if size == "smoke":
        n_grid, k_grid, eps_grid = (60, 80, 100), (1, 2, 4, 8), (0.5, 1.0)
    config = _config_text({
        "truth": "f2", "n_grid": n_grid, "repetitions": repetitions,
        "seed": op_seed(seed, index), "noise_sd": 1.0,
        "design.low": 0.0, "design.high": 5.0,
        "kernel.family": "truncated_gaussian", "kernel.h": KERNEL_H,
        "grids.k": k_grid, "grids.eps": eps_grid,
    })
    ref = None
    if reference and size == "full":
        ref = checks.load_sweep_reference(REFERENCE_DIR / "sweep_grid.csv")
    check = partial(checks.check_sweep, n_grid=n_grid, repetitions=repetitions,
                    k_grid=k_grid, eps_grid=eps_grid, reference=ref)
    return Op("sweep", config, len(n_grid) * repetitions, check, threaded=True)


def _eigen_check(out_dir, seed, n, m, eps):
    from fracreg.experiments import draw_design
    x = draw_design(seed, n, 0, 0.0, 5.0)
    return checks.check_eigen(out_dir, x, eps, KERNEL_H, m)


def _eigen_op(seed, index, reference=False, size="full"):
    n, m = (EIGEN_N, EIGEN_M) if size == "full" else (600, 8)
    eps = EIGEN_EPS[index % len(EIGEN_EPS)]
    s = op_seed(seed, index)
    config = _config_text({
        "n": n, "m": m, "seed": s, "design.low": 0.0, "design.high": 5.0,
        "epsilon": eps, "kernel.family": "truncated_gaussian", "kernel.h": KERNEL_H,
    })
    return Op("eigen", config, 1, partial(_eigen_check, seed=s, n=n, m=m, eps=eps))


def _seminorm_check(out_dir, truth, s_values, compare):
    ref = None
    if compare:
        ref = checks.load_seminorm_reference(REFERENCE_DIR / "seminorm_zoo.csv")[truth]
    return checks.check_seminorm(out_dir, s_values, ref)


def _seminorm_op(seed, index, reference=False, size="full"):
    truth = SEMINORM_TRUTHS[index % len(SEMINORM_TRUTHS)]
    s_values, level = SEMINORM_S, SEMINORM_LEVEL
    if size == "smoke":
        s_values, level = (0.25, 0.5, 0.75), 7
    config = _config_text({"truth": truth, "s": s_values, "level": level})
    check = partial(_seminorm_check, truth=truth, s_values=s_values, compare=size == "full")
    return Op("seminorm", config, len(s_values), check)


def workloads(size: str = "full") -> dict:
    """Name -> Workload; size "smoke" shrinks every input for a quick self-test."""
    return {
        "sweep_grid": Workload("sweep_grid", partial(_sweep_op, size=size), block=1,
                               make_traced_op=partial(_sweep_op, size=size,
                                                      repetitions=SWEEP_POOL_REPETITIONS)),
        "eigen_large": Workload("eigen_large", partial(_eigen_op, size=size),
                                block=len(EIGEN_EPS)),
        "seminorm_zoo": Workload("seminorm_zoo", partial(_seminorm_op, size=size),
                                 block=len(SEMINORM_TRUTHS), seed_applies=False),
    }


def run_op(cli, op: Op, directory, threads: int = 1, around=contextlib.nullcontext):
    """Run one operation through ``cli.main`` with its stdout captured.

    The config is written into `directory` (created if needed) and the
    outputs go to `directory`/out.  `around` is entered just around the
    call.  Returns (exit code, output directory, wall seconds of the call).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / ("%s.cfg" % op.command)
    config_path.write_text(op.config)
    out = directory / "out"
    argv = op.argv(config_path, out, threads)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with around():
            code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, out, wall
