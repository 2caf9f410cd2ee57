import math

import numpy as np
import pytest

from fracreg.errors import InvalidInputError
from fracreg.graph import (
    BRUTE_FORCE_LIMIT,
    WEIGHT_FLOOR,
    KernelSpec,
    SampleSet,
    brute_force_pairs,
    build_graph,
    connectivity_check,
    kernel_moments,
    _indexed_pairs,
)


def pairwise_edges_oracle(points, epsilon):
    """Independent O(n^2) double loop; returns the set of (i, j), i < j."""
    n = len(points)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(points[i], points[j]) <= epsilon:
                out.add((i, j))
    return out


def graph_edge_set(graph):
    rows, cols, _ = graph.edge_arrays()
    return {(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j}


class TestSampleSet:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.zeros((3, 2, 2)))
        with pytest.raises(InvalidInputError):
            SampleSet([[1.0], [1.0, 2.0]])  # ragged

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.array([[1.0]]))

    def test_response_length_checked(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.zeros((3, 1)), np.array([1.0, 2.0]))

    def test_1d_input_promoted(self):
        s = SampleSet(np.array([0.0, 1.0, 2.0]))
        assert s.points.shape == (3, 1)
        assert s.dim == 1 and s.n == 3

    def test_csv_round_trip(self, tmp_path):
        s = SampleSet(np.array([[0.1, 0.2], [1.5, -3.0], [2.25, 4.0]]),
                      np.array([1.0, -2.5, 0.125]))
        path = tmp_path / "samples.csv"
        s.save_csv(path)
        back = SampleSet.load_csv(path)
        np.testing.assert_array_equal(back.points, s.points)
        np.testing.assert_array_equal(back.responses, s.responses)

    def test_csv_without_responses(self, tmp_path):
        s = SampleSet(np.array([[0.0], [1.0]]))
        path = tmp_path / "x.csv"
        s.save_csv(path)
        back = SampleSet.load_csv(path)
        assert back.responses is None
        np.testing.assert_array_equal(back.points, s.points)

    def test_csv_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            SampleSet.load_csv(path)

    def test_csv_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(InvalidInputError):
            SampleSet.load_csv(path)


class TestKernels:
    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("gaussian")

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("truncated_gaussian", h=0.0)

    @pytest.mark.parametrize("kernel", [
        KernelSpec("indicator"), KernelSpec("triangular"), KernelSpec("truncated_gaussian"),
    ])
    def test_compact_support_and_monotone(self, kernel):
        t = np.linspace(0.0, 1.0, 200)
        vals = kernel(t)
        assert np.all(np.diff(vals) <= 1e-12)  # non-increasing on [0, 1]
        assert kernel(0.5) > 0
        assert kernel(1.0001) == 0.0 and kernel(5.0) == 0.0

    def test_moments_indicator_1d(self):
        m = kernel_moments(KernelSpec("indicator"), 1)
        assert m.sigma0 == pytest.approx(2.0, abs=1e-10)
        assert m.sigma1 == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_moments_indicator_2d(self):
        m = kernel_moments(KernelSpec("indicator"), 2)
        assert m.sigma0 == pytest.approx(math.pi, abs=1e-10)
        assert m.sigma1 == pytest.approx(math.pi / 4.0, abs=1e-10)

    def test_moments_triangular_1d(self):
        m = kernel_moments(KernelSpec("triangular"), 1)
        assert m.sigma0 == pytest.approx(1.0, abs=1e-10)
        assert m.sigma1 == pytest.approx(1.0 / 6.0, abs=1e-10)


class TestBuildGraph:
    def test_three_point_indicator(self):
        s = SampleSet(np.array([[0.0], [0.3], [2.0]]))
        g = build_graph(s, 0.5, KernelSpec("indicator"))
        assert graph_edge_set(g) == {(0, 1)}
        assert g.weights[0, 1] == 1.0
        assert g.degree[2] == 0.0  # isolated vertex

    def test_triangular_weight_value(self):
        s = SampleSet(np.array([[0.0], [0.3]]))
        g = build_graph(s, 0.5, KernelSpec("triangular"))
        assert g.weights[0, 1] == pytest.approx(1.0 - 0.6, abs=1e-15)

    def test_edge_count_matches_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 5.0, (50, 1))
        g = build_graph(SampleSet(pts), 0.8, KernelSpec("indicator"))
        assert graph_edge_set(g) == pairwise_edges_oracle(pts, 0.8)

    def test_invalid_epsilon(self):
        s = SampleSet(np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidInputError):
            build_graph(s, 0.0, KernelSpec("indicator"))

    def test_graph_invariants(self):
        rng = np.random.default_rng(7)
        s = SampleSet(rng.uniform(0, 1, (80, 2)))
        eps = 0.25
        g = build_graph(s, eps, KernelSpec("truncated_gaussian"))
        W = g.weights
        assert (W != W.T).nnz == 0            # symmetric
        assert W.diagonal().sum() == 0.0      # no self loops
        np.testing.assert_allclose(g.degree, np.asarray(W.sum(axis=1)).ravel())
        rows, cols, _ = g.edge_arrays()
        dist = np.linalg.norm(s.points[rows] - s.points[cols], axis=1)
        assert np.all(dist <= eps + 1e-12)    # no edge beyond the bandwidth

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 2, (40, 2))
        perm = rng.permutation(40)
        g = build_graph(SampleSet(pts), 0.6, KernelSpec("triangular"))
        gp = build_graph(SampleSet(pts[perm]), 0.6, KernelSpec("triangular"))
        dense = g.weights.toarray()
        np.testing.assert_allclose(gp.weights.toarray(), dense[np.ix_(perm, perm)])

    def test_epsilon_monotone_edge_sets(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 3, (60, 1))
        small = build_graph(SampleSet(pts), 0.3, KernelSpec("indicator"))
        large = build_graph(SampleSet(pts), 0.7, KernelSpec("indicator"))
        assert graph_edge_set(small) <= graph_edge_set(large)

    def test_indexed_matches_scan(self):
        rng = np.random.default_rng(11)
        for n in (50, 120, 200):
            pts = rng.uniform(0, 1, (n, 3))
            i1, j1, _ = brute_force_pairs(pts, 0.35)
            i2, j2, _ = _indexed_pairs(pts, 0.35)
            assert set(zip(i1.tolist(), j1.tolist())) == set(zip(i2.tolist(), j2.tolist()))

    def test_large_n_uses_index_and_matches_scan(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 5, (600, 1))
        g = build_graph(SampleSet(pts), 0.3, KernelSpec("indicator"))
        i, j, _ = brute_force_pairs(pts, 0.3)
        assert graph_edge_set(g) == set(zip(i.tolist(), j.tolist()))

    def test_weights_canonical_and_equal_to_scan_oracle(self):
        rng = np.random.default_rng(17)
        n, eps = BRUTE_FORCE_LIMIT + 200, 0.3
        pts = rng.uniform(0, 3, (n, 2))
        kernel = KernelSpec("triangular")
        W = build_graph(SampleSet(pts), eps, kernel).weights
        assert W.has_canonical_format
        assert (W != W.T).nnz == 0
        i, j, dist = brute_force_pairs(pts, eps)
        oracle = np.zeros((n, n))
        oracle[i, j] = oracle[j, i] = kernel(dist / eps)
        oracle[oracle <= WEIGHT_FLOOR] = 0.0
        np.testing.assert_array_equal(W.toarray(), oracle)

    def test_tiny_weights_dropped(self):
        # shape h = 0.05 makes the weight at distance ~eps around exp(-200)
        s = SampleSet(np.array([[0.0], [0.999]]))
        g = build_graph(s, 1.0, KernelSpec("truncated_gaussian", h=0.05))
        assert g.weights.nnz == 0


class TestConnectivity:
    def test_isolated_vertex_counts(self):
        s = SampleSet(np.array([[0.0], [0.3], [2.0]]))
        g = build_graph(s, 0.5, KernelSpec("indicator"))
        rep = connectivity_check(g)
        assert rep.component_count == 2 and not rep.connected

    def test_complete_graph(self):
        s = SampleSet(np.array([[0.0], [0.1], [0.2], [0.3]]))
        g = build_graph(s, 1.0, KernelSpec("indicator"))
        rep = connectivity_check(g)
        assert rep.component_count == 1 and rep.connected

    def test_empty_edge_set(self):
        s = SampleSet(np.arange(5.0)[:, None] * 10.0)
        g = build_graph(s, 0.5, KernelSpec("indicator"))
        rep = connectivity_check(g)
        assert rep.component_count == 5 and not rep.connected
