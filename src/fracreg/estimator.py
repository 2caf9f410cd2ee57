"""Projection of responses onto leading Laplacian eigenvectors, with tuning.

The fitted vector is the empirical-orthogonal projection of Y onto the span
of the first K eigenvectors; K and the bandwidth come either from the
closed-form tuning rule or from a grid search against a known truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracreg.csvout import write_csv
from fracreg.errors import InvalidInputError, TuningError
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.spectral import EigenSystem, eigensolve, laplacian


@dataclass(frozen=True)
class TuningRule:
    """Smoothness order s in (0,1), radius M > 0, window constants; the
    dimension d is the design's, given with n."""

    s: float
    M: float
    c0: float = 1.0
    C0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidInputError("s must lie in (0, 1)")
        if not self.M > 0:
            raise InvalidInputError("M must be positive")
        if not (self.c0 > 0 and self.C0 > 0):
            raise InvalidInputError("window constants c0, C0 must be positive")

    def resolve(self, n: int, dim: int):
        """(K, epsilon) for n samples in dimension dim: K = choose_K, and
        epsilon the geometric midpoint of [c0 (log n / n)^(1/d), C0 K^(-1/d)].

        Raises TuningError when the window is empty.
        """
        K = choose_K(self, n, dim)
        if n < 2:
            raise InvalidInputError("n must be at least 2")
        lo = self.c0 * (math.log(n) / n) ** (1.0 / dim)
        hi = self.C0 * K ** (-1.0 / dim)
        if lo > hi:
            raise TuningError(
                "empty bandwidth window [%.6g, %.6g]: increase C0 or decrease c0" % (lo, hi)
            )
        return K, math.sqrt(lo * hi)


def _snap_floor(x: float, rel: float = 1e-9) -> int:
    # floor with a snap to the nearest integer when x sits within float noise
    # of it, so exact-integer powers are not lost to rounding.
    r = round(x)
    if abs(x - r) <= rel * max(1.0, abs(x)):
        return int(r)
    return int(math.floor(x))


def choose_K(rule: TuningRule, n: int, dim: int) -> int:
    """min{ floor((M^2 n)^(d/(2s+d))) or 1, n }, with d = dim."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    if dim < 1:
        raise InvalidInputError("dimension must be at least 1")
    try:
        x = (rule.M ** 2 * n) ** (dim / (2.0 * rule.s + dim))
    except OverflowError:  # M^2 beyond the float range: K is capped at n
        x = math.inf
    return max(_snap_floor(min(x, n)), 1)


@dataclass(frozen=True)
class RegressionFit:
    """In-sample fit: fitted values, chosen K and bandwidth, diagnostics.

    The projection coefficients are eig.coefficients(y)[:K].
    """

    fitted: np.ndarray
    K: int
    epsilon: float
    eig: EigenSystem
    component_count: int

    @property
    def connected(self) -> bool:
        return self.component_count == 1

    def save_csv(self, path, samples: SampleSet, metadata: dict | None = None):
        """Row per sample (index, coordinates, Y, fitted); metadata header lines."""
        meta = {"K": self.K, "epsilon": self.epsilon}
        meta.update(metadata or {})
        preamble = "".join("# %s = %s\n" % (key, format(val, ".17g") if isinstance(val, float)
                                             else val) for key, val in meta.items())
        y = samples.responses
        kinds = "d" + "g" * samples.dim + ("s" if y is None else "g") + "g"
        if y is None:  # the y cells are empty text
            y = np.full(samples.n, "", dtype=object)
        write_csv(path, ["index"] + ["x%d" % (j + 1) for j in range(samples.dim)] + ["y", "fitted"],
                  (np.arange(1, samples.n + 1), samples.points, y, self.fitted), kinds, preamble)


def fit(samples: SampleSet, K: int, epsilon: float, kernel: KernelSpec) -> RegressionFit:
    """Project the responses onto the first K eigenvectors at bandwidth epsilon.

    K = 0 yields the zero fit; K = n reproduces the responses exactly.
    Connectivity is reported (connected, component_count), never required:
    extra zero eigenvalues only enlarge the constant-like span.
    """
    if samples.responses is None:
        raise InvalidInputError("samples must carry responses")
    n = samples.n
    if not 0 <= K <= n:
        raise InvalidInputError("K must lie in [0, n]")
    graph = build_graph(samples, epsilon, kernel)
    eig = eigensolve(laplacian(graph), max(K, 1))
    fitted = eig.partial_fits(samples.responses, [K])[0]
    return RegressionFit(fitted, K, float(epsilon), eig, graph.components.component_count)


@dataclass(frozen=True)
class GridSearchResult:
    best_fit: RegressionFit  # the fit at the winning (K, epsilon)
    best_mse: float
    K_grid: tuple
    eps_grid: tuple
    mse_surface: np.ndarray  # shape (len(K_grid), len(eps_grid))

    def save_csv(self, path):
        rows = ([K, eps, self.mse_surface[i, j]]
                for i, K in enumerate(self.K_grid) for j, eps in enumerate(self.eps_grid))
        write_csv(path, ["K", "epsilon", "mse"], rows, "dgg")


def grid_search(
    samples: SampleSet,
    K_grid,
    eps_grid,
    kernel: KernelSpec,
    truth: np.ndarray,
) -> GridSearchResult:
    """In-sample MSE |f_hat - truth|_n^2 over every (K, epsilon) grid pair.

    Each bandwidth needs one eigensystem; nested K values reuse it through
    EigenSystem.partial_fits.  Ties break toward smaller K, then smaller
    epsilon.  best_fit holds the winning bandwidth's eigensystem and the very
    row that scored best_mse, so fitting at the optimum needs no further
    solve; its connectivity is on the fit (best_fit.connected).
    """
    K_grid = [int(k) for k in K_grid]
    eps_grid = [float(e) for e in eps_grid]
    if not K_grid or not eps_grid:
        raise InvalidInputError("grids must be non-empty")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (samples.n,):
        raise InvalidInputError("truth must have length n=%d" % samples.n)
    if samples.responses is None:
        raise InvalidInputError("samples must carry responses")
    if min(K_grid) < 0 or max(K_grid) > samples.n:
        raise InvalidInputError("K grid entries must lie in [0, n]")

    y = samples.responses
    mmax = max(max(K_grid), 1)
    surface = np.empty((len(K_grid), len(eps_grid)))
    best = None
    for j, eps in enumerate(eps_grid):
        graph = build_graph(samples, eps, kernel)
        eig = eigensolve(laplacian(graph), mmax)
        fits = eig.partial_fits(y, K_grid)
        with np.errstate(over="ignore"):  # an MSE beyond the float range reads inf
            surface[:, j] = np.mean((fits - truth) ** 2, axis=1)
        for K, mse, fitted in zip(K_grid, surface[:, j].tolist(), fits):
            key = (mse, K, eps)
            if best is None or key < best:
                best, winner = key, (graph, eig, fitted)
    best_mse, K_best, eps_best = best
    if not best_mse < math.inf:
        raise InvalidInputError("the in-sample MSE overflows the float range at every grid cell")
    graph, eig, fitted = winner
    return GridSearchResult(
        best_fit=RegressionFit(fitted, K_best, eps_best, eig, graph.components.component_count),
        best_mse=best_mse,
        K_grid=tuple(K_grid),
        eps_grid=tuple(eps_grid),
        mse_surface=surface,
    )

