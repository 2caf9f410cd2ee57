"""Scaled unnormalized graph Laplacian, its eigensystem, and the projection onto it.

The operator is L = (D - W) / (n eps^(d+2)).  Eigenvectors follow the
empirical normalization: |v|_n = 1, i.e. the plain Euclidean norm is sqrt(n),
and inner products below are <u, v>_n = <u, v> / n throughout.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy import linalg
from scipy.sparse import csgraph

from fracreg.csvout import write_csv
from fracreg.errors import InvalidInputError, SolverError
from fracreg.graph import NeighborGraph

# Dense symmetric solver at or below this size; iterative Krylov above.
# The dense path doubles as the oracle for the iterative one.  At m = 64 on one
# BLAS thread, dense took 0.93, 1.2 and 1.5 times as long at n = 400, 450, 500.
DENSE_LIMIT = 400

# An eigenvalue within _REL_TOL g of 0 is 0 (the one zero test: no other module
# re-tests a computed eigenvalue) and a residual above it fails, where
# g = 2 max diag(L) >= |L|_2, so neither test depends on the design's units
# (g is floored at 1e-30, like the shift, for a graph with no edges).
_REL_TOL = 1e-10

# ARPACK restarts before giving up (scipy: 10 n).  Converged solves took at most 18
# in the tests and at the benchmark workloads' sizes; a kernel of dimension >= m may
# not converge.
_MAX_RESTARTS = 200

# Setter and getter of the thread count in a plain OpenBLAS build and in the
# prefixed builds that the numpy (64-bit integer) and scipy wheels bundle.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas_handles():
    """(set, get) thread-count functions of each OpenBLAS this process loaded.

    Found through /proc/self/maps, so on other systems, or with another
    BLAS, the tuple is empty and calls keep the library's thread count.
    Looked up once per process: importing this module has already loaded
    numpy's and scipy's BLAS, and a lookup costs about a millisecond.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    handles = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                handles.append((getattr(lib, set_name), getattr(lib, get_name)))
                break
    return tuple(handles)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread, then restore.

    Every function of this module that calls BLAS runs under it, so its
    results do not depend on the BLAS thread count, for every caller.  The
    count is process-wide: calls from several Python threads at once are
    not covered.
    """
    handles = _openblas_handles()
    saved = [get_threads() for _, get_threads in handles]
    for set_threads, _ in handles:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(handles, saved):
            set_threads(count)


def _lanczos_basis_size(n: int, m: int) -> int:
    """ARPACK's ncv: 1.5 m Lanczos vectors (scipy: 2 m + 1), at least 20, so ncv > m."""
    return min(n, max(m + m // 2, 20))


@dataclass(frozen=True)
class LaplacianOperator:
    """Matrix form of u -> (1/(n eps^(d+2))) sum_j w_ij (u_i - u_j)."""

    graph: NeighborGraph
    matrix: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def scale(self) -> float:
        """1/(n eps^(d+2)), with d the dimension of the graph's points."""
        return 1.0 / (self.graph.n * self.graph.epsilon ** (self.graph.points.shape[1] + 2))


def laplacian(graph: NeighborGraph) -> LaplacianOperator:
    """The scaled Laplacian: degrees (row sums of the weights) minus weights, times scale."""
    degree = np.asarray(graph.weights.sum(axis=1)).ravel()
    op = LaplacianOperator(graph=graph, matrix=(sparse.diags(degree) - graph.weights).tocsr())
    op.matrix.data *= op.scale
    return op


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with |.|_n-orthonormal eigenvectors.

    vectors has shape (n, m) with column 2-norms equal to sqrt(n).
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @_one_blas_thread()
    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Empirical inner products <u, v_i>_n for every computed pair."""
        return self.vectors.T @ np.asarray(u, dtype=float) / self.n

    def partial_fits(self, u: np.ndarray, Ks) -> np.ndarray:
        """fits[i] projects u onto the first Ks[i] vectors, by coefficients(u).

        Every row is the running sum c_1 v_1 + c_2 v_2 + ... in eigen order,
        the floats of numpy's cumulative sum, taken in one pass up to max(Ks)
        that holds len(Ks) rows of n and no (m, n) temporary.  K = 0 gives 0.
        """
        coef = self.coefficients(u)
        Ks = np.asarray(Ks, dtype=int)
        if not np.all((0 <= Ks) & (Ks <= self.m)):
            raise InvalidInputError("K must lie in [0, m=%d]" % self.m)
        fits = np.zeros((Ks.size, self.n))
        acc = np.zeros(self.n)
        for k in range(Ks.max(initial=0)):
            acc += coef[k] * self.vectors[:, k]
            fits[Ks == k + 1] = acc
        return fits

    def save_csv(self, path):
        """One row per pair: index, eigenvalue, then the n vector entries."""
        write_csv(path, ["index", "eigenvalue"] + ["v%d" % (i + 1) for i in range(self.n)],
                  (np.arange(1, self.m + 1), self.values, self.vectors.T), "dg" + "g" * self.n)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic output: largest-magnitude entry of each column positive.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _kernel_basis(graph: NeighborGraph, m: int) -> np.ndarray:
    """The first min(components, m) vectors of the canonical kernel basis.

    The constant comes first, then the component indicators in the order of
    each component's lexicographically smallest point, Gram-Schmidt
    orthogonalized (positive R diagonal, so each vector is positive on its
    own component) and scaled to |v|_n = 1.  It depends on the point set,
    not on the order of the samples.
    """
    labels = graph.components.labels
    order = np.lexsort(graph.points.T[::-1])  # first coordinate most significant
    found, at = np.unique(labels[order], return_index=True)
    components = found[np.argsort(at)][: min(found.size, m) - 1]
    spanning = np.column_stack([np.ones(graph.n), labels[:, None] == components])
    q, r = np.linalg.qr(spanning)
    return q * np.sign(np.diag(r)) * np.sqrt(graph.n)


def _shift_invert(matrix: sparse.csr_matrix, shift: float,
                  position: np.ndarray) -> spla.LinearOperator:
    """(A - shift I)^-1 in reverse Cuthill-McKee order, by one banded Cholesky factor.

    position[i] is the RCM index of point i.  A - shift I is symmetric
    positive definite for a PSD Laplacian and shift < 0.  RCM packs the
    epsilon-graph into a band of half-width b (in 1-D, essentially the
    sorted points), so LAPACK pbtrf factors it in (b + 1) n doubles and each
    pbtrs solve takes O(b n) work, with no permutation per solve.
    """
    n = matrix.shape[0]
    row = np.repeat(np.arange(n, dtype=np.int32), np.diff(matrix.indptr))
    # one entry of each symmetric pair: a run at the end of each sorted row,
    # which selects far faster than a mask in RCM order
    upper = matrix.indices >= row
    row, col = position[row[upper]], position[matrix.indices[upper]]  # RCM, 32-bit
    row, col = np.minimum(row, col), np.maximum(row, col)
    b = int(np.max(col - row, initial=0))
    # LAPACK upper band storage: entry (row, col) sits at [b + row - col, col],
    # which is row + b (col + 1) in the Fortran-order flat array, a 64-bit index
    band = np.zeros((b + 1) * n)
    band[row + b * (col.astype(np.int64) + 1)] = matrix.data[upper]
    band = band.reshape((b + 1, n), order="F")
    band[b] -= shift
    pbtrf, pbtrs = linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    factor, info = pbtrf(band, overwrite_ab=1)
    if info != 0:
        raise SolverError("shifted Laplacian is not positive definite (pbtrf info %d)" % info)
    return spla.LinearOperator((n, n), matvec=lambda x: pbtrs(factor, x)[0], dtype=float)


@_one_blas_thread()
def eigensolve(op: LaplacianOperator, m: int, method: str = "auto") -> EigenSystem:
    """Compute the m algebraically smallest eigenpairs of the operator.

    method is "auto" (dense at or below DENSE_LIMIT, Lanczos shift-invert on
    a banded Cholesky factor above), or "dense" / "iterative" to force a
    path.  The iterative path cannot produce a complete basis, so m >= n - 1
    falls back to dense.  The first vector is the constant.  When the
    computed spectrum holds two or more zero eigenvalues, the pairs are the
    canonical kernel basis built from the graph's components (_kernel_basis,
    min(components, m) vectors), then the smallest positive pairs computed,
    so fits do not depend on sample order.
    Raises SolverError, with the worst residual, on non-convergence or above _REL_TOL g,
    and on any other failure of the dense or the ARPACK solver.
    """
    n = op.n
    if not 1 <= m <= n:
        raise InvalidInputError("m must lie in [1, n]")
    if method not in ("auto", "dense", "iterative"):
        raise InvalidInputError("method must be auto, dense, or iterative")
    if method == "iterative" and m >= n - 1:
        raise InvalidInputError("iterative solver requires m <= n - 2")

    diag = op.matrix.diagonal()
    tol = _REL_TOL * (2.0 * float(diag.max()) + 1e-30)
    if method == "dense" or (method == "auto" and (n <= DENSE_LIMIT or m >= n - 1)):
        try:
            values, vecs = np.linalg.eigh(op.matrix.toarray())
        except np.linalg.LinAlgError as exc:
            raise SolverError("dense eigensolver failed: %s" % exc) from exc
        values, vecs = values[:m], vecs[:, :m]
    else:
        shift = -1e-3 * (float(np.mean(diag)) + 1e-30)
        v0 = np.random.Generator(np.random.Philox(key=0x5EED0F00D)).standard_normal(n)
        perm = csgraph.reverse_cuthill_mckee(op.matrix, symmetric_mode=True)
        position = np.argsort(perm).astype(np.int32)
        # ARPACK iterates in RCM order; shift-invert mode applies only OPinv,
        # never the matrix it is handed.  Its tol stops it once |(L - shift)^-1 x - theta x|
        # <= tol |theta|, which gives |L x - lambda x| <= (g + |shift|) tol (ARPACK
        # Users' Guide), so tol = _REL_TOL / 10 meets the residual gate below 10 times over.
        try:
            values, vecs = spla.eigsh(op.matrix, k=m, sigma=shift, which="LM", v0=v0[perm],
                                      ncv=_lanczos_basis_size(n, m), tol=_REL_TOL / 10,
                                      maxiter=_MAX_RESTARTS,
                                      OPinv=_shift_invert(op.matrix, shift, position))
        except spla.ArpackNoConvergence as exc:
            if op.graph.components.component_count >= m:
                # a kernel of dimension >= m: m zero eigenvalues ARPACK need not
                # resolve; the kernel block below fills the vectors from the components
                values, vecs = np.zeros(m), np.zeros((n, m))
            else:
                worst = None
                if exc.eigenvalues is not None and len(exc.eigenvalues):
                    ev, evec = exc.eigenvalues, exc.eigenvectors[position]
                    res = np.linalg.norm(op.matrix @ evec - evec * ev, axis=0)
                    worst = float(np.max(res)) / np.sqrt(n)
                raise SolverError(
                    "eigensolver failed to converge within the iteration budget "
                    "(worst residual %s)" % worst,
                    worst_residual=worst,
                ) from exc
        except spla.ArpackError as exc:  # after ArpackNoConvergence, its subclass
            raise SolverError("ARPACK eigensolver failed: %s" % exc) from exc
        else:
            order = np.argsort(values)
            values, vecs = values[order], vecs[np.ix_(position, order)]

    # Round-off on the provably-zero kernel eigenvalue would be amplified by
    # fractional powers later; snap the near-zero part of the spectrum to 0.
    values = np.where(np.abs(values) <= tol, 0.0, values)

    vectors = _fix_signs(vecs * np.sqrt(n))  # |v|_n = 1
    if np.count_nonzero(values == 0.0) >= 2:
        # one kernel dimension per component; the solver returns an arbitrary
        # rotation of it, possibly truncated by m, and an ARPACK run that stops
        # early may return only some copies of 0, then the next positive pairs
        basis = _kernel_basis(op.graph, m)
        k = basis.shape[1]
        positive = np.flatnonzero(values > 0.0)[: m - k]
        if positive.size < m - k:
            raise SolverError("eigensolver returned %d positive pairs beside a kernel of "
                              "dimension %d; %d needed" % (positive.size, k, m - k))
        values = np.concatenate([np.zeros(k), values[positive]])
        vectors = np.column_stack([basis, vectors[:, positive]])
    vectors[:, 0] = 1.0

    residuals = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0) / np.sqrt(n)
    worst = float(np.max(residuals))
    if worst > tol:
        raise SolverError(
            "eigenpair residual %.3e exceeds tolerance %.1e" % (worst, tol),
            worst_residual=worst,
        )
    return EigenSystem(values=np.asarray(values, dtype=float), vectors=vectors)


@_one_blas_thread()
def dirichlet_form(op: LaplacianOperator, u: np.ndarray) -> float:
    """Edge-sum quadratic form (1/(2 n^2 eps^(d+2))) sum_ij w_ij (u_i - u_j)^2.

    Computed directly from the stored edges, no eigendecomposition involved;
    equals <L u, u>_n.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n,):
        raise InvalidInputError("u must have length n=%d" % op.n)
    edges = op.graph.weights.tocoo()
    diff = u[edges.row] - u[edges.col]
    total = float(np.dot(edges.data, diff * diff))  # ordered pairs: both (i,j) and (j,i)
    return total * op.scale / (2.0 * op.n)
