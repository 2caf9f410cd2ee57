"""Output checks for the benchmark's three workloads.

Each check reads the files one ``fracreg`` invocation wrote and returns a
``CheckResult``: how many of the operation's work units failed and why.
Byte hashes cannot be used: the dense eigensolver's last bits depend on the
BLAS thread count, which the benchmark inherits and never sets.  The checks
therefore compare with tolerances, against references the program did not
produce itself where one exists.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.spatial import cKDTree

# Tolerances from the program's own contract: eigenpair residuals and
# orthonormality at the solver's 1e-8 acceptance level; the references allow
# last-bit drift (summation order, BLAS threads) and nothing more.
EIGEN_RESIDUAL_TOL = 1e-8
EIGEN_ORTHO_TOL = 1e-8
SWEEP_MSE_RTOL = 1e-7
SEMINORM_RTOL = 1e-9


@dataclass
class CheckResult:
    units: int
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message: str, units: int = 1):
        self.failed = min(self.units, self.failed + units)
        self.messages.append(message)

    def fail_all(self, message: str):
        self.fail(message, self.units)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_exit(code: int, result: CheckResult) -> bool:
    if code != 0:
        result.fail_all("exit code %d" % code)
        return False
    return True


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------

def check_sweep(out_dir, n_grid, repetitions, k_grid, eps_grid, reference=None) -> CheckResult:
    """records.csv holds one valid record per (n, rep) job; slope is finite.

    Each job counts once: it fails if failures.csv lists it or its record is
    missing, duplicated or invalid.  A record for no job fails one unit.
    reference, when given, maps (n, rep) -> (K, epsilon, mse): K and epsilon
    must match exactly and mse within SWEEP_MSE_RTOL.
    """
    jobs = {(n, rep) for n in n_grid for rep in range(repetitions)}
    result = CheckResult(units=len(jobs))
    try:
        records = _rows(os.path.join(out_dir, "records.csv"))
        summary = _rows(os.path.join(out_dir, "summary.csv"))
    except OSError as exc:
        result.fail_all("missing output: %s" % exc)
        return result

    failed_jobs, strays = set(), 0
    failures_path = os.path.join(out_dir, "failures.csv")
    if os.path.exists(failures_path):
        for row in _rows(failures_path):
            failed_jobs.add((int(row["n"]), int(row["rep"])))
            result.messages.append("failures.csv: n=%s rep=%s %s"
                                   % (row["n"], row["rep"], row["error"]))

    seen = set()
    k_set, eps_set = set(k_grid), set(float(e) for e in eps_grid)
    for row in records:
        key = (int(row["n"]), int(row["rep"]))
        K, eps, mse = int(row["K"]), float(row["epsilon"]), float(row["mse"])
        problems = []
        if key not in jobs:
            problems.append("record for no job")
            strays += 1
        elif key in seen:
            problems.append("duplicate record")
        if K not in k_set:
            problems.append("K=%d not in grids.k" % K)
        if eps not in eps_set:
            problems.append("epsilon=%r not in grids.eps" % eps)
        if not (math.isfinite(mse) and mse >= 0.0):
            problems.append("mse=%r not finite and >= 0" % mse)
        if reference is not None and key in reference:
            rK, reps, rmse = reference[key]
            if (K, eps) != (rK, reps):
                problems.append("K/epsilon %d/%r differ from reference %d/%r" % (K, eps, rK, reps))
            elif not math.isclose(mse, rmse, rel_tol=SWEEP_MSE_RTOL):
                problems.append("mse %r differs from reference %r" % (mse, rmse))
        if problems:
            if key in jobs:
                failed_jobs.add(key)
            result.messages.append("record n=%d rep=%d: %s" % (key + ("; ".join(problems),)))
        seen.add(key)
    missing = jobs - seen
    if missing:
        failed_jobs |= missing
        result.messages.append("%d of %d records missing" % (len(missing), len(jobs)))
    if failed_jobs or strays:
        result.failed = min(result.units, len(failed_jobs) + strays)
    slopes = {row["fitted_slope"] for row in summary}
    if len(slopes) != 1 or not math.isfinite(float(slopes.pop())):
        result.fail_all("summary.csv has no single finite fitted slope")
    return result


def load_sweep_reference(path) -> dict:
    return {
        (int(r["n"]), int(r["rep"])): (int(r["K"]), float(r["epsilon"]), float(r["mse"]))
        for r in _rows(path)
    }


# ---------------------------------------------------------------------------
# eigen_large
# ---------------------------------------------------------------------------

def read_eigen_csv(path):
    """Return (values, vectors) from eigen.csv; vectors has shape (n, m)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1], table[:, 2:].T


def truncated_gaussian_laplacian(x: np.ndarray, epsilon: float, h: float):
    """Scaled Laplacian (D - W) / (n eps^3) of the 1-D epsilon-graph.

    Assembled here, independently of the program, from a cKDTree pair search
    and the truncated Gaussian weight exp(-t^2 / (2 h^2)), t = |x_i - x_j| / eps.
    """
    n = x.shape[0]
    pairs = cKDTree(x[:, None]).query_pairs(epsilon, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    t = np.abs(x[i] - x[j]) / epsilon
    w = np.exp(-t * t / (2.0 * h * h))
    W = sparse.coo_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n)).tocsr()
    D = sparse.diags(np.asarray(W.sum(axis=1)).ravel())
    return ((D - W) / (n * epsilon ** 3)).tocsr()


def check_eigen(out_dir, x, epsilon, h, m) -> CheckResult:
    """lambda_1 = 0, ascending values, small residuals and orthonormal vectors."""
    result = CheckResult(units=1)
    try:
        values, vectors = read_eigen_csv(os.path.join(out_dir, "eigen.csv"))
    except (OSError, ValueError, IndexError) as exc:
        result.fail_all("unreadable eigen.csv: %s" % exc)
        return result
    n = x.shape[0]
    if values.shape != (m,) or vectors.shape != (n, m):
        result.fail_all("eigen.csv holds %s pairs of length %s, expected %d of %d"
                        % (values.shape[0], vectors.shape[0], m, n))
        return result
    if values[0] != 0.0:
        result.fail_all("lambda_1 = %r, expected 0" % values[0])
    if np.any(np.diff(values) < 0.0):
        result.fail_all("eigenvalues do not ascend")
    L = truncated_gaussian_laplacian(x, epsilon, h)
    residual = float(np.max(np.linalg.norm(L @ vectors - vectors * values, axis=0))) / math.sqrt(n)
    if not residual <= EIGEN_RESIDUAL_TOL:
        result.fail_all("worst residual %.3e exceeds %.0e" % (residual, EIGEN_RESIDUAL_TOL))
    ortho = float(np.linalg.norm(vectors.T @ vectors / n - np.eye(m)))
    if not ortho <= EIGEN_ORTHO_TOL:
        result.fail_all("|V^T V / n - I| = %.3e exceeds %.0e" % (ortho, EIGEN_ORTHO_TOL))
    return result


# ---------------------------------------------------------------------------
# seminorm_zoo
# ---------------------------------------------------------------------------

def load_seminorm_reference(path) -> dict:
    """truth -> list of (s, value, diverged) rows."""
    table = {}
    for r in _rows(path):
        table.setdefault(r["truth"], []).append(
            (float(r["s"]), float(r["value"]), r["diverged"] == "true"))
    return table


def check_seminorm(out_dir, s_values, reference_rows=None) -> CheckResult:
    """One row per s; values and divergence flags match the reference."""
    result = CheckResult(units=len(s_values))
    try:
        rows = _rows(os.path.join(out_dir, "seminorm.csv"))
    except OSError as exc:
        result.fail_all("missing seminorm.csv: %s" % exc)
        return result
    got = {float(r["s"]): (float(r["value"]), r["diverged"] == "true") for r in rows}
    if len(rows) != len(s_values):
        result.fail_all("%d rows for %d values of s" % (len(rows), len(s_values)))
    for s in s_values:
        if s not in got:
            result.fail("no row for s=%r" % s)
            continue
        value, diverged = got[s]
        if diverged != math.isinf(value) or (not diverged and not value >= 0.0):
            result.fail("s=%r: value %r inconsistent with diverged=%s" % (s, value, diverged))
    for s, ref_value, ref_diverged in reference_rows or ():
        if s not in got:
            continue
        value, diverged = got[s]
        if diverged != ref_diverged:
            result.fail("s=%r: diverged=%s, reference %s" % (s, diverged, ref_diverged))
        elif not diverged and not math.isclose(value, ref_value, rel_tol=SEMINORM_RTOL):
            result.fail("s=%r: value %r differs from reference %r" % (s, value, ref_value))
    return result
