"""Point clouds, compactly supported kernels, and the epsilon-neighborhood graph.

The graph puts an edge between two sample points whenever their Euclidean
distance is at most epsilon, weighted by a non-increasing kernel of the
scaled distance.  Self-loops are never stored: they cancel in the degree
minus adjacency difference, so the Laplacian downstream is unaffected.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from fracreg.csvout import write_csv
from fracreg.errors import InvalidInputError

# Edges below this weight are dropped: sparser storage, no measurable spectral effect.
WEIGHT_FLOOR = 1e-14

# All-pairs scan at or below this size; spatial index above.  The scan doubles
# as the test oracle for the indexed path.
BRUTE_FORCE_LIMIT = 512

KERNEL_FAMILIES = ("indicator", "triangular", "truncated_gaussian")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class SampleSet:
    """Design points in R^d plus optional responses.

    points has shape (n, d); responses, when present, has length exactly n.
    """

    points: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=float)
        except (ValueError, TypeError) as exc:
            raise InvalidInputError("points must form a rectangular numeric array: %s" % exc)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise InvalidInputError("points must be a 2-D array of shape (n, d)")
        if pts.shape[0] < 2:
            raise InvalidInputError("need at least two sample points")
        if pts.shape[1] < 1:
            raise InvalidInputError("dimension must be at least 1")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.responses is not None:
            resp = np.asarray(self.responses, dtype=float)
            if resp.ndim != 1 or resp.shape[0] != pts.shape[0]:
                raise InvalidInputError(
                    "responses must be a vector of length n=%d" % pts.shape[0]
                )
            if not np.all(np.isfinite(resp)):
                raise InvalidInputError("responses must be finite")
            object.__setattr__(self, "responses", resp)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def save_csv(self, path):
        """One row per point: d coordinate columns, then the response if present."""
        header = ["x%d" % (j + 1) for j in range(self.dim)]
        columns = (self.points,)
        if self.responses is not None:
            header.append("y")
            columns += (self.responses,)
        write_csv(path, header, columns, "g" * len(header))

    @classmethod
    def load_csv(cls, path) -> "SampleSet":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidInputError("%s: empty sample file (header row required)" % path)
            if header and all(_is_number(cell) for cell in header):
                raise InvalidInputError("%s: the first row holds numbers only, but a header "
                                        "row (x1, ..., xd and y) is required" % path)
            has_response = bool(header) and header[-1].strip() == "y"
            d = len(header) - (1 if has_response else 0)
            if d < 1:
                raise InvalidInputError("%s: no coordinate columns in header" % path)
            pts, resp = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise InvalidInputError(
                        "%s:%d: expected %d columns, found %d"
                        % (path, lineno, len(header), len(row))
                    )
                try:
                    vals = [float(v) for v in row]
                except ValueError:
                    raise InvalidInputError("%s:%d: non-numeric value" % (path, lineno))
                pts.append(vals[:d])
                if has_response:
                    resp.append(vals[d])
        return cls(np.asarray(pts), np.asarray(resp) if has_response else None)


@dataclass(frozen=True)
class KernelSpec:
    """A non-increasing kernel on [0, 1], zero beyond, positive at 1/2.

    Families: indicator (1 on [0,1]), triangular (1 - t), and a truncated
    Gaussian exp(-t^2 / (2 h^2)) cut off at t = 1 with shape h > 0.
    """

    family: str
    h: float = 0.4

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InvalidInputError(
                "unknown kernel family %r (choose from %s)"
                % (self.family, ", ".join(KERNEL_FAMILIES))
            )
        if self.family == "truncated_gaussian" and not self.h >= math.sqrt(sys.float_info.min):
            raise InvalidInputError("truncated_gaussian shape h must be positive, with h^2 a "
                                    "normal float (the weights divide by 2 h^2)")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        inside = arr <= 1.0
        if self.family == "indicator":
            out = np.where(inside, 1.0, 0.0)
        elif self.family == "triangular":
            out = np.where(inside, np.maximum(1.0 - arr, 0.0), 0.0)
        else:
            out = np.where(inside, np.exp(-(arr * arr) / (2.0 * self.h * self.h)), 0.0)
        if np.ndim(t) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class KernelMoments:
    """Zeroth and second radial moments of a kernel in dimension d."""

    sigma0: float
    sigma1: float


def kernel_moments(kernel: KernelSpec, dim: int) -> KernelMoments:
    """Integrate eta(|x|) and |y|^2 eta(|y|) / d over R^d.

    Both reduce to 1-D integrals over [0, 1] against the surface area of the
    unit sphere; quadrature is accurate to well below 1e-10 absolute.
    """
    if dim < 1:
        raise InvalidInputError("dimension must be at least 1")
    from scipy import integrate  # here: its import adds about 0.1 s to every CLI start

    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    m0, _ = integrate.quad(lambda r: kernel(r) * r ** (dim - 1), 0.0, 1.0,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
    m2, _ = integrate.quad(lambda r: kernel(r) * r ** (dim + 1), 0.0, 1.0,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
    return KernelMoments(sigma0=surface * m0, sigma1=surface * m2 / dim)


@dataclass(frozen=True)
class NeighborGraph:
    """Sparse symmetric weighted adjacency from the epsilon rule.

    weights is CSR with zero diagonal; points is the (n, d) design the graph
    was built on.
    """

    epsilon: float
    weights: sparse.csr_matrix
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def components(self) -> "ConnectivityReport":
        """The connected components, labelled once per graph."""
        return connectivity_check(self)


def brute_force_pairs(points: np.ndarray, epsilon: float):
    """All (i, j), i < j, with distance at most epsilon, in row-major order, by an O(n^2) scan."""
    n = points.shape[0]
    with np.errstate(over="ignore"):  # a distance beyond the float range is inf, beyond epsilon
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= epsilon
    return iu[mask], ju[mask], dist[iu, ju][mask]


def _indexed_pairs(points: np.ndarray, epsilon: float):
    """The pairs of brute_force_pairs, in its row-major order, from a kd-tree."""
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(epsilon, output_type="ndarray")
    key = pairs[:, 0] * n + pairs[:, 1]
    del pairs
    key.sort()  # i * n + j: one sort of flat keys, none per row later
    i = key // n
    j = key - i * n
    dist = np.sqrt(np.sum((points.take(i, axis=0) - points.take(j, axis=0)) ** 2, axis=1))
    return i, j, dist


def check_bandwidth(epsilon: float, n: int, dim: int):
    """Refuse an epsilon at which the Laplacian's scale 1/(n eps^(d+2)) cannot be formed:
    eps > 0, eps^(d+2) a normal float (no scaled entry overflows), n eps^(d+2) finite."""
    try:
        power = float(epsilon) ** (dim + 2)
    except OverflowError:
        power = math.inf
    if not (epsilon > 0 and power >= sys.float_info.min and n * power < math.inf):
        raise InvalidInputError("epsilon = %.17g is out of range: the Laplacian's scale 1/(n "
                                "epsilon^%d) at n = %d cannot be formed" % (epsilon, dim + 2, n))


def build_graph(samples: SampleSet, epsilon: float, kernel: KernelSpec) -> NeighborGraph:
    """Build the epsilon-neighborhood graph with kernel weights.

    An edge (i, j), i != j, carries weight eta(|X_i - X_j| / epsilon) exactly
    when that value is positive (after the storage floor).
    """
    check_bandwidth(epsilon, samples.n, samples.dim)
    pts = samples.points
    n = samples.n
    if n <= BRUTE_FORCE_LIMIT:
        i, j, dist = brute_force_pairs(pts, epsilon)
    else:
        i, j, dist = _indexed_pairs(pts, epsilon)
    w = np.asarray(kernel(dist / epsilon), dtype=float).ravel()
    keep = w > WEIGHT_FLOOR
    i, j, w = i[keep], j[keep], w[keep]
    # row-major pairs make the upper triangle CSR as it stands; the transpose mirrors it
    indptr = np.searchsorted(i, np.arange(n + 1))
    upper = sparse.csr_matrix((w, j, indptr), shape=(n, n))
    return NeighborGraph(epsilon=float(epsilon), weights=upper + upper.T, points=pts)


@dataclass(frozen=True)
class ConnectivityReport:
    component_count: int
    labels: np.ndarray  # component index of each point, 0 .. count - 1


def connectivity_check(graph: NeighborGraph) -> ConnectivityReport:
    """Label the connected components over positive-weight edges."""
    # strong components of the symmetric weights: no symmetrized copy is made
    count, labels = csgraph.connected_components(graph.weights, connection="strong")
    return ConnectivityReport(component_count=int(count), labels=labels)
