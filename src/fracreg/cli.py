"""Command-line surface tying the modules together.

Commands: fit, sweep, seminorm, eigen, gridsearch, zoo.  Every run reads
one structured-text config, writes an effective-config echo plus its
artifacts under the output directory, and returns a family-coded exit
status: 0 ok, 2 invalid input, 3 tuning, 4 solver, 5 io, 6 out of memory.

Only the solver commands (fit, sweep, eigen, gridsearch) import the graph,
spectral and estimator modules, and with them scipy; they do so at call
time, so importing this module and running seminorm or zoo load numpy alone.
No command sets the BLAS thread count: fracreg.spectral makes every BLAS
call at one OpenBLAS thread, so no output depends on that count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

import fracreg
from fracreg import config as cfg
from fracreg import sobolev
from fracreg.csvout import write_csv
from fracreg.errors import ConfigError, InvalidInputError, SolverError, TuningError

OUT_ENV_VAR = "FRACREG_OUT"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TUNING = 3
EXIT_SOLVER = 4
EXIT_IO = 5
EXIT_MEMORY = 6

# The largest sample size whose float64 design numpy can hold as one array
# (its byte count must fit in an intp); a larger n or n_grid entry is an input
# error.  A smaller one that does not fit in memory ends in EXIT_MEMORY.
MAX_N = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

# Solver-stack names readable as attributes of this module
# (fracreg.cli.build_graph).  Each access looks the name up through the
# package's own lazy table, so importing this module loads none of them.
_SOLVER_NAMES = ("TuningRule", "fit", "grid_search", "KernelSpec", "SampleSet",
                 "build_graph", "eigensolve", "laplacian")


def __getattr__(name):
    if name in _SOLVER_NAMES:
        return getattr(fracreg, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracreg",
        description="Eigenmap regression, fractional-Sobolev tools, and rate experiments.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to the config file (required except for zoo)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $%s)" % OUT_ENV_VAR)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker pool size (default: machine parallelism)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    return parser


def _load_entries(args) -> dict:
    entries = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError("cannot read config %s: %s" % (args.config, exc)) from exc
        entries = cfg.parse_text(text, source=args.config)
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append("seed = %d" % args.seed)
    return cfg.apply_overrides(entries, overrides)


def _write_echo(out_dir, view: cfg.ConfigView):
    """Reject unread keys, then write every key the command read, in read order."""
    view.reject_unknown()
    text = cfg.serialize(view.effective)  # a value it cannot write fails before the file is opened
    with open(os.path.join(out_dir, "config_echo.txt"), "w") as fh:
        fh.write(text)


def _kernel_from_view(view: cfg.ConfigView):
    from fracreg.graph import KernelSpec

    return KernelSpec(view.get_str("kernel.family", default="truncated_gaussian"),
                      view.get_float("kernel.h", default=0.4, gt=0.0))


def _tuning_from_view(view: cfg.ConfigView, extent: float):
    """The rule, or None without tuning.s.  c0 and C0 default to extent, the
    design's length, so that the rule's bandwidth scales with the design."""
    from fracreg.estimator import TuningRule

    if not view.has("tuning.s"):
        return None
    return TuningRule(s=view.get_unit_open("tuning.s", required=True),
                      M=view.get_float("tuning.M", required=True, gt=0.0),
                      c0=view.get_float("tuning.c0", default=extent, gt=0.0),
                      C0=view.get_float("tuning.C0", default=extent, gt=0.0))


# Sweep defaults (documented in the README): the standard study is the blocks
# truth on [0, 5] with unit noise, five sample sizes, and grid-searched tuning.
DEFAULT_N_GRID = [500, 625, 750, 875, 1000]
DEFAULT_REPETITIONS = 200
DEFAULT_K_GRID = [1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64]
DEFAULT_EPS_GRID = [0.12, 0.25, 0.5]


def _experiment_config_from_view(view: cfg.ConfigView, single_n: bool = False):
    from fracreg.experiments import ExperimentConfig

    truth = view.get_str("truth", required=True)
    if single_n:
        n_grid = [view.get_int("n", required=True, minimum=2, maximum=MAX_N)]
        reps = 1
    else:
        n_grid = view.get_list("n_grid", default=DEFAULT_N_GRID, kind=int, le=MAX_N)
        reps = view.get_int("repetitions", default=DEFAULT_REPETITIONS, minimum=1)
    seed = view.get_int("seed", default=0, minimum=0)
    noise_sd = view.get_float("noise_sd", default=1.0, ge=0.0)
    low = view.get_float("design.low", default=0.0)
    high = view.get_float("design.high", default=5.0, gt=low)
    kernel = _kernel_from_view(view)
    tuning = _tuning_from_view(view, high - low)
    default_grids = tuning is None and not (view.has("grids.k") or view.has("grids.eps"))
    # keyword arguments are evaluated in the order written, the echo's order
    return ExperimentConfig(
        truth=truth,
        n_grid=n_grid,
        repetitions=reps,
        seed=seed,
        noise_sd=noise_sd,
        design_low=low,
        design_high=high,
        kernel=kernel,
        tuning=tuning,
        k_grid=view.get_list("grids.k", default=DEFAULT_K_GRID if default_grids else None,
                             kind=int, ge=0),
        eps_grid=view.get_list("grids.eps", default=DEFAULT_EPS_GRID if default_grids else None,
                               gt=0.0),
        theory_s=view.get_unit_open("theory_s"),
    )


def function_to_mapping(fn: sobolev.TestFunction) -> dict:
    """Serialize a test function as function.* keys in the config format: every
    field the family sets, one function.coeff_<i> key per coefficient piece."""
    out = {}
    for field in dataclasses.fields(fn):
        value = getattr(fn, field.name)
        if field.name == "coefficients":
            out.update(("function.coeff_%d" % i, piece) for i, piece in enumerate(value))
        elif value not in (None, ()):  # a field the family leaves unset
            out["function." + field.name] = value
    return out


def _domain_from_view(view: cfg.ConfigView, default=None):
    domain = view.get_list("function.domain", default=default)
    if domain is not None and len(domain) != 2:
        view._fail("function.domain", "'function.domain' must be two numbers [low, high]")
    return domain


def function_from_view(view: cfg.ConfigView) -> sobolev.TestFunction:
    family = view.get_str("function.family", required=True)
    if family == "power":
        domain = _domain_from_view(view, default=[-1.0, 1.0])
        return sobolev.power_function(view.get_unit_open("function.alpha", required=True),
                                      domain)
    if family == "bumps":
        domain = _domain_from_view(view, default=[0.0, 5.0])
        return sobolev.bumps(view.get_list("function.centers", required=True),
                             view.get_list("function.heights", required=True),
                             view.get_list("function.widths", required=True), domain)
    if family not in ("piecewise_constant", "piecewise_polynomial"):
        raise ConfigError("unknown function.family %r" % family, key="function.family")
    domain = _domain_from_view(view)
    bp = view.get_list("function.breakpoints", required=True)
    if family == "piecewise_constant":
        fn = sobolev.piecewise_constant(bp, view.get_list("function.values", required=True))
    else:
        pieces = []
        while view.has("function.coeff_%d" % len(pieces)):
            pieces.append(view.get_list("function.coeff_%d" % len(pieces)))
        fn = sobolev.piecewise_polynomial(bp, pieces)
    # a piecewise domain is the outer breakpoints; a given one must agree
    if domain is not None and domain != list(fn.domain):
        view._fail("function.domain", "'function.domain' must be the first and last "
                   "breakpoint, [%.17g, %.17g]" % fn.domain)
    return fn


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_sweep(args, out_dir, view):
    from fracreg import experiments as xp

    config = _experiment_config_from_view(view)
    curve_points = view.get_int("curve.points", minimum=2)
    curve_n = view.get_int("curve.n", minimum=2)
    if curve_n is not None and (curve_points is None or curve_n not in config.n_grid):
        view._fail("curve.n", "'curve.n' must be one of n_grid %s and is used only "
                   "together with curve.points" % list(config.n_grid))
    _write_echo(out_dir, view)

    curve = None if curve_points is None else (
        curve_n or max(config.n_grid),
        np.linspace(config.design_low, config.design_high, curve_points + 2)[1:-1])
    report = xp.run_sweep(config, threads=args.threads, curve=curve)
    report.write_records_csv(os.path.join(out_dir, "records.csv"))
    report.write_summary_csv(os.path.join(out_dir, "summary.csv"))
    if report.failures:
        report.write_failures_csv(os.path.join(out_dir, "failures.csv"))
    if not report.records:
        raise SolverError("sweep produced no records: all %d repetitions failed (first: %s)"
                          % (len(report.failures), report.failures[0].message))
    if report.curve is not None:
        report.curve.write_csv(os.path.join(out_dir, "curve.csv"))
    print("sweep: %d records, %d failures, slope %.6g +/- %.6g (theory %.6g)"
          % (len(report.records), len(report.failures),
             report.fitted_slope, report.slope_stderr, report.theoretical_slope))


def _cmd_gridsearch(args, out_dir, view):
    from fracreg.estimator import grid_search
    from fracreg.experiments import generate

    config = _experiment_config_from_view(view, single_n=True)
    _write_echo(out_dir, view)

    n = config.n_grid[0]
    samples, truth_values = generate(config, n, 0)
    result = grid_search(samples, *config.search_grid(n), config.kernel, truth_values)
    result.save_csv(os.path.join(out_dir, "surface.csv"))
    best = result.best_fit
    with open(os.path.join(out_dir, "best.txt"), "w") as fh:
        fh.write(cfg.serialize({"best_K": best.K, "best_epsilon": best.epsilon,
                                "best_mse": result.best_mse}))
    print("gridsearch: best K=%d epsilon=%.6g mse=%.6g" % (best.K, best.epsilon, result.best_mse))


def _cmd_fit(args, out_dir, view):
    from fracreg.estimator import fit
    from fracreg.graph import SampleSet

    data_path = view.get_str("data", required=True)
    K = view.get_int("K", required=True, minimum=0)
    epsilon = view.get_float("epsilon", required=True, gt=0.0)
    kernel = _kernel_from_view(view)
    meta_s = view.get_unit_open("meta.s")
    meta_M = view.get_float("meta.M", gt=0.0)
    _write_echo(out_dir, view)

    samples = SampleSet.load_csv(data_path)
    if samples.responses is None:
        raise InvalidInputError("%s: fit needs a response column" % data_path)
    result = fit(samples, K, epsilon, kernel)
    metadata = {"kernel": kernel.family, "kernel_h": kernel.h, "s": meta_s, "M": meta_M}
    result.save_csv(os.path.join(out_dir, "fit.csv"), samples,
                    {key: value for key, value in metadata.items() if value is not None})
    print("fit: n=%d K=%d epsilon=%.6g connected=%s components=%d"
          % (samples.n, K, epsilon, result.connected, result.component_count))


def _cmd_seminorm(args, out_dir, view):
    if view.has("truth"):
        fn = sobolev.zoo_function(view.get_str("truth", required=True))
    else:
        fn = function_from_view(view)
    if isinstance(view.raw("s"), list):
        s_values = view.get_list("s")
        if not s_values or not all(0.0 < s < 1.0 for s in s_values):
            view._fail("s", "'s' must be a non-empty list of numbers in (0,1)")
    else:
        s_values = [view.get_unit_open("s", required=True)]
    level = view.get_int("level", default=12, minimum=7, maximum=sobolev.MAX_REFINEMENT)
    _write_echo(out_dir, view)

    results = [sobolev.continuum_seminorm(fn, s, refinement=level) for s in s_values]
    n_levels = len(results[0].refinements)
    write_csv(os.path.join(out_dir, "seminorm.csv"),
              ["s", "value", "diverged", "quadrature_cells", "estimated_error"]
              + ["refinement_%d" % (4 + i) for i in range(n_levels)],
              ([res.s, res.value, "true" if res.diverged else "false",
                res.quadrature_cells, res.estimated_error] + list(res.refinements)
               for res in results),
              "ggsdg" + "g" * n_levels)
    for res in results:
        status = "divergent" if res.diverged else "value %.12g" % res.value
        print("seminorm: s=%g %s" % (res.s, status))


def _cmd_eigen(args, out_dir, view):
    from fracreg.experiments import draw_design
    from fracreg.graph import SampleSet, build_graph
    from fracreg.spectral import eigensolve, laplacian

    # the design comes first in the echo, then kernel, tuning, epsilon and m
    data_path = view.get_str("data")
    if data_path is None:
        n = view.get_int("n", required=True, minimum=2, maximum=MAX_N)
        seed = view.get_int("seed", required=True, minimum=0)
        low = view.get_float("design.low", default=0.0)
        high = view.get_float("design.high", default=5.0, gt=low)
    kernel = _kernel_from_view(view)
    # a data file's extent, the default of c0 and C0, is read with its points below;
    # until then 1 holds their place in the echo
    tuning = _tuning_from_view(view, high - low if data_path is None else 1.0)
    epsilon = view.get_float("epsilon", required=True, gt=0.0) if tuning is None else None
    view.get_int("m", minimum=1)  # its default and bound wait for the design's n
    view.reject_unknown()  # before a data file is opened
    if data_path is None:
        samples = SampleSet(points=draw_design(seed, n, 0, low, high)[:, None])
    else:
        samples = SampleSet.load_csv(data_path)
        # the extent: the largest side of the points' bounding box
        extent = float(np.ptp(samples.points, axis=0).max())
        if tuning is not None and extent == 0.0 and not (
                view.has("tuning.c0") and view.has("tuning.C0")):
            raise InvalidInputError("%s: the points' bounding box has zero extent, so the "
                                    "window constants have no default: set both tuning.c0 "
                                    "and tuning.C0" % data_path)
        tuning = _tuning_from_view(view, extent)
    m = view.get_int("m", default=min(32, samples.n), minimum=1, maximum=samples.n)
    _write_echo(out_dir, view)

    if tuning is not None:
        _, epsilon = tuning.resolve(samples.n, samples.dim)
    graph = build_graph(samples, epsilon, kernel)
    eig = eigensolve(laplacian(graph), m)
    eig.save_csv(os.path.join(out_dir, "eigen.csv"))
    print("eigen: n=%d m=%d epsilon=%.6g lambda1=%.3e"
          % (samples.n, m, epsilon, eig.values[0]))


def _cmd_zoo(args, out_dir, view):
    _write_echo(out_dir, view)
    table = sobolev.zoo()
    for name, fn in sorted(table.items()):
        with open(os.path.join(out_dir, "%s.txt" % name), "w") as fh:
            fh.write(cfg.serialize(function_to_mapping(fn)))
    print("zoo: wrote %d function definitions" % len(table))


# One row per command: its handler, and what it writes beside config_echo.txt
# (and error.txt on failure).  A run first removes all of those files, so a
# failed run leaves none of an earlier one's.
_COMMANDS = {
    "fit": (_cmd_fit, ("fit.csv",)),
    "sweep": (_cmd_sweep, ("records.csv", "summary.csv", "failures.csv", "curve.csv")),
    "seminorm": (_cmd_seminorm, ("seminorm.csv",)),
    "eigen": (_cmd_eigen, ("eigen.csv",)),
    "gridsearch": (_cmd_gridsearch, ("surface.csv", "best.txt")),
    "zoo": (_cmd_zoo, tuple("%s.txt" % name for name in sobolev.zoo())),
}


def _error_record(out_dir, code, kind, message):
    try:
        with open(os.path.join(out_dir, "error.txt"), "w") as fh:
            fh.write(cfg.serialize({
                "code": code, "kind": kind,
                "message": str(message).replace('"', "'"),
            }))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None and args.command != "zoo":
        parser.error("the following arguments are required: --config")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    out_dir = args.out or os.environ.get(OUT_ENV_VAR)
    if not out_dir:
        print("fracreg: no output directory (--out or $%s)" % OUT_ENV_VAR, file=sys.stderr)
        return EXIT_INPUT
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print("fracreg: cannot create %s: %s" % (out_dir, exc), file=sys.stderr)
        return EXIT_IO

    handler, artifacts = _COMMANDS[args.command]
    try:
        for name in ("config_echo.txt", "error.txt") + artifacts:
            with contextlib.suppress(FileNotFoundError):  # left by an earlier run
                os.remove(os.path.join(out_dir, name))
        view = cfg.ConfigView(_load_entries(args), source=args.config or "<config>")
        handler(args, out_dir, view)
        return EXIT_OK
    except TuningError as exc:
        code, kind, err = EXIT_TUNING, "tuning", exc
    except SolverError as exc:
        code, kind, err = EXIT_SOLVER, "solver", exc
    except InvalidInputError as exc:  # ConfigError included
        code, kind, err = EXIT_INPUT, "input", exc
    except OSError as exc:
        code, kind, err = EXIT_IO, "io", exc
    except MemoryError as exc:
        code, kind, err = EXIT_MEMORY, "memory", exc if str(exc) else "out of memory"
    _error_record(out_dir, code, kind, err)
    print("fracreg: %s error: %s" % (kind, err), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
