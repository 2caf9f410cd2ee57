import numpy as np
import pytest
from scipy.linalg import subspace_angles

from fracreg import spectral
from fracreg.errors import InvalidInputError
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.spectral import (
    dirichlet_form,
    eigensolve,
    fractional_apply,
    laplacian,
)


def path3_operator():
    # three collinear points, consecutive gaps below eps, ends beyond
    s = SampleSet(np.array([[0.0], [0.9], [1.8]]))
    g = build_graph(s, 1.0, KernelSpec.indicator())
    return laplacian(g, 1)


def random_geometric_operator(seed, n=80, dim=2, eps=0.35):
    rng = np.random.default_rng(seed)
    s = SampleSet(rng.uniform(0, 1, (n, dim)))
    g = build_graph(s, eps, KernelSpec.truncated_gaussian())
    return laplacian(g, dim)


def eigen_clusters(values, gap=1e-8):
    """Group indices whose eigenvalues sit within `gap` of their neighbor."""
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > gap:
            clusters.append(range(start, i))
            start = i
    return clusters


class TestLaplacian:
    def test_path3_matrix_hand_assembled(self):
        op = path3_operator()
        unscaled = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(op.dense(), unscaled / 3.0, atol=1e-15)
        assert op.scale == pytest.approx(1.0 / 3.0)

    def test_constant_in_kernel(self):
        op = random_geometric_operator(0)
        u = np.full(op.n, 3.7)
        assert np.max(np.abs(op.matrix @ u)) < 1e-12

    def test_symmetry_and_psd_on_random_vectors(self):
        op = random_geometric_operator(1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            u, v = rng.standard_normal((2, op.n))
            assert (op.matrix @ u) @ v == pytest.approx(u @ (op.matrix @ v), abs=1e-10)
            assert (op.matrix @ u) @ u >= -1e-10

    def test_two_point_quadratic_form(self):
        for eps in (0.7, 1.0, 1.3):
            s = SampleSet(np.array([[0.0], [0.5]]))
            g = build_graph(s, eps, KernelSpec.triangular())
            op = laplacian(g, 1)
            w = g.weights[0, 1]
            u = np.array([0.0, 1.0])
            expect = w / (4.0 * eps ** 3)
            assert dirichlet_form(op, u) == pytest.approx(expect, rel=1e-12)
            assert (op.matrix @ u) @ u / 2.0 == pytest.approx(expect, rel=1e-12)


class TestEigensolve:
    def test_path3_eigenvalues(self):
        op = path3_operator()
        eig = eigensolve(op, 3)
        np.testing.assert_allclose(eig.values * 3.0, [0.0, 1.0, 3.0], atol=1e-12)

    def test_lambda1_zero_v1_constant(self):
        op = random_geometric_operator(3)
        eig = eigensolve(op, 5)
        assert eig.values[0] <= 1e-8
        np.testing.assert_allclose(eig.vectors[:, 0], 1.0, atol=1e-10)

    def test_orthonormality_and_residuals(self):
        op = random_geometric_operator(4, n=120)
        eig = eigensolve(op, 20)
        gram = eig.vectors.T @ eig.vectors / op.n
        assert np.max(np.abs(gram - np.eye(20))) < 1e-8
        res = op.matrix @ eig.vectors - eig.vectors * eig.values
        assert np.max(np.linalg.norm(res, axis=0)) / np.sqrt(op.n) < 1e-8

    def test_monotone_spectrum(self):
        op = random_geometric_operator(5, n=150)
        eig = eigensolve(op, 40)
        assert np.all(np.diff(eig.values) >= -1e-12)

    def test_iterative_matches_dense_oracle(self):
        op = random_geometric_operator(6, n=300, eps=0.25)
        dense = eigensolve(op, 30, method="dense")
        iterative = eigensolve(op, 30, method="iterative")
        assert np.max(np.abs(dense.values - iterative.values)) < 1e-8
        for cluster in eigen_clusters(dense.values):
            idx = list(cluster)
            ang = subspace_angles(dense.vectors[:, idx], iterative.vectors[:, idx])
            assert ang.max() < 1e-6

    @pytest.mark.parametrize("eps", [0.12, 0.5])
    def test_iterative_matches_dense_oracle_at_sweep_size(self, eps):
        # above DENSE_LIMIT, where the sweep takes the banded shift-invert path
        x = np.random.default_rng(15).uniform(0.0, 5.0, 1000)
        op = laplacian(build_graph(SampleSet(x[:, None]), eps, KernelSpec.truncated_gaussian()), 1)
        dense = eigensolve(op, 64, method="dense")
        iterative = eigensolve(op, 64)
        assert np.max(np.abs(dense.values - iterative.values)) < 1e-8
        for cluster in eigen_clusters(dense.values):
            idx = list(cluster)
            ang = subspace_angles(dense.vectors[:, idx], iterative.vectors[:, idx])
            assert ang.max() < 1e-6

    def test_sign_convention(self):
        op = random_geometric_operator(7)
        eig = eigensolve(op, 10)
        peak = np.argmax(np.abs(eig.vectors), axis=0)
        assert np.all(eig.vectors[peak, np.arange(10)] > 0)

    def test_m_bounds_checked(self):
        op = path3_operator()
        with pytest.raises(InvalidInputError):
            eigensolve(op, 0)
        with pytest.raises(InvalidInputError):
            eigensolve(op, 4)

    def test_spectral_reconstruction(self):
        op = random_geometric_operator(8, n=150)
        eig = eigensolve(op, op.n)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.T / op.n
        err = np.linalg.norm(rebuilt - op.dense())
        assert err < 1e-8

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_kernel_larger_than_m_starts_with_constant(self, method):
        # 12 well-separated clusters of 10 points: a 12-dimensional kernel
        rng = np.random.default_rng(3)
        x = (np.arange(12)[:, None] + rng.uniform(0, 0.3, (12, 10))).ravel()
        op = laplacian(build_graph(SampleSet(x[:, None]), 0.5, KernelSpec.indicator()), 1)
        eig = eigensolve(op, 4, method)
        assert eig.m == 4 and np.all(eig.values == 0.0)
        np.testing.assert_allclose(eig.vectors[:, 0], 1.0, rtol=0, atol=1e-12)

    def test_connected_graph_needs_no_component_count(self, monkeypatch):
        def forbidden(graph):
            raise AssertionError("components counted for a connected graph")

        monkeypatch.setattr(spectral, "connectivity_check", forbidden)
        op = random_geometric_operator(4)
        for method in ("dense", "iterative"):
            assert eigensolve(op, 2, method).values[1] > 0.0

    def test_csv_export(self, tmp_path):
        op = path3_operator()
        eig = eigensolve(op, 3)
        path = tmp_path / "eigen.csv"
        eig.save_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0].split(",")[:2] == ["index", "eigenvalue"]
        assert len(rows) == 4
        first = rows[1].split(",")
        assert float(first[1]) <= 1e-8
        assert [float(v) for v in first[2:]] == pytest.approx([1.0, 1.0, 1.0])


class TestFractionalApply:
    def test_eigenvector_scaling(self):
        op = random_geometric_operator(9)
        eig = eigensolve(op, op.n)
        k, s = 4, 0.3
        out = fractional_apply(eig, s, eig.vectors[:, k])
        np.testing.assert_allclose(out, eig.values[k] ** s * eig.vectors[:, k], atol=1e-10)

    def test_constant_annihilated(self):
        op = random_geometric_operator(10)
        eig = eigensolve(op, op.n)
        for s in (0.2, 0.5, 0.8):
            out = fractional_apply(eig, s, np.full(op.n, 2.5))
            assert np.max(np.abs(out)) < 1e-9

    def test_path3_against_dense_power_oracle(self):
        op = path3_operator()
        eig = eigensolve(op, 3)
        lam = np.clip(eig.values, 0.0, None)
        dense_power = (eig.vectors * lam ** 0.5) @ eig.vectors.T / 3.0
        u = np.array([1.0, 0.0, -1.0])
        np.testing.assert_allclose(fractional_apply(eig, 0.5, u), dense_power @ u, atol=1e-12)

    def test_s_out_of_range(self):
        op = path3_operator()
        eig = eigensolve(op, 3)
        for s in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInputError):
                fractional_apply(eig, s, np.ones(3))

    def test_outside_span_rejected(self):
        op = random_geometric_operator(11, n=60)
        eig = eigensolve(op, 5)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            fractional_apply(eig, 0.5, rng.standard_normal(60))

    def test_inside_span_accepted_on_partial_system(self):
        op = random_geometric_operator(12, n=60)
        eig = eigensolve(op, 5)
        u = eig.vectors @ np.array([0.5, -1.0, 2.0, 0.0, 0.25])
        out = fractional_apply(eig, 0.4, u)
        expect = eig.vectors @ (np.clip(eig.values, 0, None) ** 0.4
                                * np.array([0.5, -1.0, 2.0, 0.0, 0.25]))
        np.testing.assert_allclose(out, expect, atol=1e-10)


class TestDirichletForm:
    def test_constant_vanishes(self):
        op = random_geometric_operator(13)
        assert dirichlet_form(op, np.full(op.n, 9.9)) == 0.0

    def test_matches_matvec(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            op = random_geometric_operator(seed + 20, n=70)
            u = rng.standard_normal(op.n)
            via_edges = dirichlet_form(op, u)
            via_matvec = (op.matrix @ u) @ u / op.n
            assert via_edges == pytest.approx(via_matvec, abs=1e-10)
