"""Monte-Carlo harness: synthetic regression data, repeated fits, rate checks.

Data follow Y_i = f(X_i) + noise with X_i uniform on a configured interval
and Gaussian noise.  Every (seed, n, repetition) triple keys its own
counter-based random stream, so repetitions are independent, order-free,
and bit-reproducible regardless of scheduling.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from fracreg.csvout import write_csv
from fracreg.errors import FracregError, InvalidInputError
from fracreg.estimator import TuningRule, grid_search
from fracreg.graph import KernelSpec, SampleSet, build_graph, check_bandwidth
from fracreg.sobolev import zoo_function
from fracreg.spectral import eigensolve, laplacian

# Offset added to the repetition index for the single retry stream of a
# failed repetition; far beyond any realistic repetition count.
_RETRY_OFFSET = 2 ** 48

# Errors a repetition may hit on unlucky data: they trigger the retry stream
# and, on a second failure, a failures.csv row.  Anything else is a bug and
# propagates; the solvers' own failures arrive as SolverError.
_RETRYABLE = FracregError

# The smallest n is dropped from the slope fit when its graph was
# disconnected in more than this fraction of repetitions.
_DISCONNECT_EXCLUSION = 0.10

# eigenvalue_growth_diagnostic's growth-regime end, as a fraction of the eps^-2 cap.
_CAP_FRACTION = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings: truth, design, noise, sample sizes, tuning, seed.

    Tuning is either the closed-form rule or explicit (k_grid, eps_grid)
    searched against the truth; exactly one of the two must be given.
    theory_s optionally supplies the smoothness order used for the reported
    theoretical slope when tuning is grid-based.  search_grid(n) is what a
    sweep job at n searches; the constructor resolves it for every n.
    """

    truth: str
    n_grid: tuple
    repetitions: int
    seed: int
    noise_sd: float = 1.0
    design_low: float = 0.0
    design_high: float = 5.0
    kernel: KernelSpec = KernelSpec("truncated_gaussian", 0.4)
    tuning: TuningRule | None = None
    k_grid: tuple | None = None
    eps_grid: tuple | None = None
    theory_s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.n_grid:
            raise InvalidInputError("n_grid must be non-empty")
        if any(n < 2 for n in self.n_grid):
            raise InvalidInputError("n_grid entries must be at least 2")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidInputError("n_grid must be strictly increasing")
        if self.repetitions < 1:
            raise InvalidInputError("repetitions must be at least 1")
        if self.noise_sd < 0:
            raise InvalidInputError("noise_sd must be non-negative")
        if not self.design_low < self.design_high:
            raise InvalidInputError("design interval must be non-empty")
        if self.seed < 0:
            raise InvalidInputError("seed must be a non-negative integer")
        has_rule = self.tuning is not None
        has_grids = self.k_grid is not None or self.eps_grid is not None
        if has_rule == has_grids:
            raise InvalidInputError("give either a tuning rule or explicit grids, not both")
        if has_grids and (not self.k_grid or not self.eps_grid):
            raise InvalidInputError("grid tuning needs both k_grid and eps_grid")
        if has_grids:
            object.__setattr__(self, "k_grid", tuple(int(k) for k in self.k_grid))
            object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
            if min(self.k_grid) < 0 or min(self.eps_grid) <= 0.0:
                raise InvalidInputError("k_grid entries must be >= 0 and eps_grid entries > 0")
        if has_rule and self.theory_s is not None:
            raise InvalidInputError("theory_s is for grid tuning: a tuning rule reports its own s")
        if self.theory_s is not None and not 0.0 < self.theory_s < 1.0:
            raise InvalidInputError("theory_s must lie in (0, 1)")
        a, b = zoo_function(self.truth).domain  # unknown truth name fails here
        if self.design_low < a or self.design_high > b:
            # the design may share an endpoint with the open domain: a draw
            # lands exactly on it with probability zero
            raise InvalidInputError(
                "design interval [%.17g, %.17g] is not inside the domain (%.17g, %.17g) "
                "of truth %s" % (self.design_low, self.design_high, a, b, self.truth)
            )
        for n in self.n_grid:  # an empty rule window raises TuningError here
            k_grid, eps_grid = self.search_grid(n)
            if not k_grid:
                raise InvalidInputError("k_grid has no entry at most n = %d" % n)
            for eps in eps_grid:
                check_bandwidth(eps, n, 1)  # the designs are 1-D

    def search_grid(self, n: int) -> tuple:
        """(K grid, epsilon grid) of a sweep job at n: the rule's one cell, or
        the k_grid entries up to n against every eps_grid bandwidth."""
        if self.tuning is not None:
            K, eps = self.tuning.resolve(n, 1)  # the designs are 1-D
            return [K], [eps]
        return [k for k in self.k_grid if k <= n], list(self.eps_grid)


def _stream(seed: int, n: int, rep_index: int) -> np.random.Generator:
    # Philox is counter-based: keying by the triple gives independent,
    # schedule-free streams.
    ss = np.random.SeedSequence(entropy=(int(seed), int(n), int(rep_index)))
    return np.random.Generator(np.random.Philox(seed=ss))


def draw_design(seed: int, n: int, rep_index: int, low: float, high: float) -> np.ndarray:
    return _stream(seed, n, rep_index).uniform(low, high, n)


def generate(config: ExperimentConfig, n: int, rep_index: int):
    """Draw (samples, the truth at the design points) for (n, rep_index), deterministically."""
    rng = _stream(config.seed, n, rep_index)
    x = rng.uniform(config.design_low, config.design_high, n)
    truth = zoo_function(config.truth)(x)
    noise = config.noise_sd * rng.standard_normal(n)
    return SampleSet(points=x[:, None], responses=truth + noise), truth


@dataclass(frozen=True)
class SweepRecord:
    n: int
    rep: int
    K: int
    epsilon: float
    mse: float
    connected: bool


@dataclass(frozen=True)
class SweepFailure:
    n: int
    rep: int
    message: str


@dataclass(frozen=True)
class CurveResult:
    """Repetition-averaged fit bucketed onto an evaluation grid.

    Each design point goes to its nearest grid point.  The truth is bucketed
    like the fit, so with noiseless data and a full-rank fit the two columns
    agree exactly.  Buckets with no design point in any repetition are NaN,
    never interpolated.
    """

    grid: tuple
    mean_truth: tuple
    mean_fit: tuple
    counts: tuple

    def write_csv(self, path):
        write_csv(path, ["x", "truth", "mean_fit"],
                  (self.grid, self.mean_truth, self.mean_fit), "ggg")


def _nearest(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the grid point nearest each x; a tie goes to the left one."""
    idx = np.clip(np.searchsorted(grid, x), 0, grid.size - 1)
    left = np.clip(idx - 1, 0, grid.size - 1)
    return np.where(np.abs(x - grid[left]) <= np.abs(grid[idx] - x), left, idx)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-repetition records plus the fitted log-log rate."""

    records: tuple
    failures: tuple
    n_values: tuple
    mean_mse_per_n: tuple
    excluded_n: tuple
    fitted_slope: float
    slope_stderr: float
    theoretical_slope: float
    curve: CurveResult | None = None

    def write_records_csv(self, path):
        write_csv(path, ["n", "rep", "K", "epsilon", "mse"],
                  ((r.n, r.rep, r.K, r.epsilon, r.mse) for r in self.records), "dddgg")

    def write_summary_csv(self, path):
        write_csv(path, ["n", "mean_mse", "fitted_slope", "theoretical_slope"],
                  ((n, mean, self.fitted_slope, self.theoretical_slope)
                   for n, mean in zip(self.n_values, self.mean_mse_per_n)), "dggg")

    def write_failures_csv(self, path):
        write_csv(path, ["n", "rep", "error"],
                  ((f.n, f.rep, f.message) for f in self.failures), "dds")


def _sweep_job(config: ExperimentConfig, n: int, rep: int):
    """One (n, rep) cell, one grid search over config.search_grid(n): returns
    (SweepRecord, (design, truth, fitted values)) of the stream that succeeded,
    first or retry, or (SweepFailure, None).  The record carries whether the
    winning graph was connected."""
    for rep_index in (rep, rep + _RETRY_OFFSET):  # one redraw, then record the failure
        try:
            samples, truth_values = generate(config, n, rep_index)
            search = grid_search(samples, *config.search_grid(n), config.kernel, truth_values)
        except _RETRYABLE as exc:
            error = exc
            continue
        res = search.best_fit
        record = SweepRecord(n=n, rep=rep, K=res.K, epsilon=res.epsilon, mse=search.best_mse,
                             connected=res.connected)
        return record, (samples.points[:, 0], truth_values, res.fitted)
    return SweepFailure(n=n, rep=rep, message="%s: %s" % (type(error).__name__, error)), None


def _ols_slope(x: np.ndarray, y: np.ndarray):
    m = len(x)
    if m < 2:
        return math.nan, math.nan
    xbar, ybar = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    if m == 2:
        return slope, math.nan
    rss = float(np.sum((y - (intercept + slope * x)) ** 2))
    return slope, math.sqrt(rss / (m - 2) / sxx)


def run_sweep(config: ExperimentConfig, threads: int = 1,
              curve: tuple | None = None) -> ExperimentReport:
    """Generate, tune, fit, and record over every (n, repetition) cell.

    Failures are recorded and excluded from aggregation.  The report is a
    deterministic function of the config, independent of thread count.

    curve = (n, grid), n one of n_grid, averages the sweep's own fits at n onto
    the grid (report.curve): retry streams included, and a repetition that
    failed on both streams left out.

    The records do not depend on the BLAS thread count either: every BLAS
    call of a job runs inside fracreg.spectral at one OpenBLAS thread, in a
    pool worker and serially alike, so no worker makes a multithreaded BLAS
    call that competes with the other workers for the cores.

    Jobs are submitted largest n first, one at a time, so the costliest jobs
    start early and no worker is left holding a batch of them at the end.
    """
    curve_n = None
    if curve is not None:
        curve_n, grid = curve[0], np.asarray(sorted(float(g) for g in curve[1]))
        if curve_n not in config.n_grid or grid.size < 1:
            raise InvalidInputError("a curve needs an n of n_grid and a non-empty grid")
        sums = np.zeros((3, grid.size))  # fitted values, truth, design points
    jobs = [(config, n, rep) for n in reversed(config.n_grid) for rep in range(config.repetitions)]
    outcomes = []
    with contextlib.ExitStack() as stack:
        workers = min(threads, len(jobs))  # a fork pool starts every worker at once
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_sweep_job, *zip(*jobs))
        else:
            results = itertools.starmap(_sweep_job, jobs)
        for outcome, points in results:  # in job order: the curve sums add up by rep
            outcomes.append(outcome)
            if outcome.n == curve_n and points is not None:
                x, truth_values, fitted = points
                bucket = _nearest(grid, x)
                for row, values in zip(sums, (fitted, truth_values, 1)):
                    np.add.at(row, bucket, values)

    outcomes.sort(key=lambda o: (o.n, o.rep))
    records = [o for o in outcomes if isinstance(o, SweepRecord)]
    failures = [o for o in outcomes if isinstance(o, SweepFailure)]

    by_n = {n: [r for r in records if r.n == n] for n in config.n_grid}
    n_values = [n for n in config.n_grid if by_n[n]]
    means = [float(np.mean([r.mse for r in by_n[n]])) for n in n_values]
    smallest = by_n[config.n_grid[0]]
    excluded = []
    if smallest and np.mean([not r.connected for r in smallest]) > _DISCONNECT_EXCLUSION:
        excluded.append(config.n_grid[0])
    keep = [i for i, n in enumerate(n_values) if n not in excluded and means[i] > 0.0]
    slope, stderr = _ols_slope(np.log(np.asarray([n_values[i] for i in keep], dtype=float)),
                               np.log(np.asarray([means[i] for i in keep], dtype=float)))

    s = config.tuning.s if config.tuning is not None else config.theory_s
    theoretical = -2.0 * s / (2.0 * s + 1) if s is not None else math.nan

    return ExperimentReport(
        records=tuple(records),
        failures=tuple(failures),
        n_values=tuple(n_values),
        mean_mse_per_n=tuple(means),
        excluded_n=tuple(excluded),
        fitted_slope=slope,
        slope_stderr=stderr,
        theoretical_slope=theoretical,
        curve=None if curve is None else _curve_result(grid, sums),
    )


def _curve_result(grid: np.ndarray, sums: np.ndarray) -> CurveResult:
    counts = sums[2]
    with np.errstate(invalid="ignore"):
        mean_fit, mean_truth = np.where(counts > 0, sums[:2] / np.maximum(counts, 1), math.nan)
    return CurveResult(grid=tuple(grid), mean_truth=tuple(mean_truth),
                       mean_fit=tuple(mean_fit), counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Log-log growth of the small eigenvalues against the Weyl prediction."""

    exponent: float
    cap_constant: float
    eigenvalues: tuple
    epsilon: float


def eigenvalue_growth_diagnostic(config: ExperimentConfig, n: int, m: int) -> GrowthDiagnostic:
    """Fit log lambda_k ~ log k over the growth regime of one generated design.

    The bandwidth is the middle one of the sweep's search at n, which under
    a rule is the rule's one epsilon.  The growth (pre-cap) regime is taken
    as the eigenvalues below _CAP_FRACTION * eps^-2; with fewer than three
    of them the exponent is nan.  Beyond the
    cap the spectrum plateaus at a constant times eps^-2, which is reported
    as cap_constant = max lambda * eps^2.
    """
    x = draw_design(config.seed, n, 0, config.design_low, config.design_high)
    grid = sorted(config.search_grid(n)[1])
    eps = grid[len(grid) // 2]
    graph = build_graph(SampleSet(points=x[:, None]), eps, config.kernel)
    lam = eigensolve(laplacian(graph), m).values

    ks = np.arange(2, m + 1)
    lam_k = lam[1:m]
    # eigensolve snaps its near-zero eigenvalues to 0
    in_window = (lam_k > 0.0) & (lam_k < _CAP_FRACTION * eps ** -2.0)
    exponent = math.nan if np.sum(in_window) < 3 else _ols_slope(
        np.log(ks[in_window].astype(float)), np.log(lam_k[in_window]))[0]
    return GrowthDiagnostic(
        exponent=exponent,
        cap_constant=float(np.max(lam) * eps ** 2),
        eigenvalues=tuple(lam),
        epsilon=eps,
    )
