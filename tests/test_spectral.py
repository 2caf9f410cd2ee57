import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import subspace_angles
from scipy.sparse import csgraph

from fracreg import experiments, spectral
from fracreg.errors import InvalidInputError, SolverError
from fracreg.graph import KernelSpec, SampleSet, build_graph, kernel_moments
from fracreg.spectral import (
    LaplacianOperator,
    dirichlet_form,
    eigensolve,
    laplacian,
)


def path3_operator():
    # three collinear points, consecutive gaps below eps, ends beyond
    s = SampleSet(np.array([[0.0], [0.9], [1.8]]))
    g = build_graph(s, 1.0, KernelSpec("indicator"))
    return laplacian(g)


def random_geometric_operator(seed, n=80, dim=2, eps=0.35):
    rng = np.random.default_rng(seed)
    s = SampleSet(rng.uniform(0, 1, (n, dim)))
    g = build_graph(s, eps, KernelSpec("truncated_gaussian"))
    return laplacian(g)


def twelve_clusters(perm=None):
    # 12 well-separated clusters of 10 points, left to right: a 12-dimensional kernel
    rng = np.random.default_rng(3)
    x = (np.arange(12)[:, None] + rng.uniform(0, 0.3, (12, 10))).ravel()
    if perm is not None:
        x = x[perm]
    return laplacian(build_graph(SampleSet(x[:, None]), 0.5, KernelSpec("indicator")))


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
        np.testing.assert_allclose(op.matrix.toarray(), unscaled / 3.0, atol=1e-15)
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
            g = build_graph(s, eps, KernelSpec("triangular"))
            op = laplacian(g)
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

    @pytest.mark.parametrize("n, eps", [(1000, 0.12), (1000, 0.5), (500, 0.12)],
                             ids=["0.12", "0.5", "n500-0.12"])
    def test_iterative_matches_dense_oracle_at_sweep_size(self, n, eps):
        # above DENSE_LIMIT, where the sweep takes the banded shift-invert path
        x = np.random.default_rng(15).uniform(0.0, 5.0, n)
        op = laplacian(build_graph(SampleSet(x[:, None]), eps, KernelSpec("truncated_gaussian")))
        dense = eigensolve(op, 64, method="dense")
        iterative = eigensolve(op, 64)
        assert np.max(np.abs(dense.values - iterative.values)) < 1e-8
        for cluster in eigen_clusters(dense.values):
            idx = list(cluster)
            ang = subspace_angles(dense.vectors[:, idx], iterative.vectors[:, idx])
            assert ang.max() < 1e-6

    def test_iterative_matches_dense_oracle_in_2d_at_iterative_size(self):
        # in 2-D the reverse Cuthill-McKee order is no sort of the points
        op = random_geometric_operator(16, n=600, eps=0.15)
        dense = eigensolve(op, 24, method="dense")
        iterative = eigensolve(op, 24)
        assert np.max(np.abs(dense.values - iterative.values)) < 1e-8
        for cluster in eigen_clusters(dense.values):
            idx = list(cluster)
            ang = subspace_angles(dense.vectors[:, idx], iterative.vectors[:, idx])
            assert ang.max() < 1e-6

    def test_indefinite_shifted_operator_is_a_solver_error(self):
        # the negated Laplacian makes the shift positive and A - shift I negative definite
        op = random_geometric_operator(17, n=600, eps=0.15)
        negated = LaplacianOperator(graph=op.graph, matrix=-op.matrix)
        with pytest.raises(SolverError, match="not positive definite"):
            eigensolve(negated, 8, method="iterative")

    def test_no_convergence_residual_reads_the_vectors_in_rcm_order(self, monkeypatch):
        # ARPACK hands back its partial pairs in the order it iterated in
        op = random_geometric_operator(18, n=600, eps=0.15)
        values, vectors = np.linalg.eigh(op.matrix.toarray())
        perm = csgraph.reverse_cuthill_mckee(op.matrix, symmetric_mode=True)

        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", values[:k], vectors[perm, :k])

        monkeypatch.setattr(spectral.spla, "eigsh", stalled)
        with pytest.raises(SolverError) as err:
            eigensolve(op, 8, method="iterative")
        assert err.value.worst_residual < spectral._REL_TOL * 2.0 * op.matrix.diagonal().max()

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_residual_tolerance_scales_with_the_operator(self, scale, monkeypatch):
        # at scale 1e3 the eigenvalues shrink by 1e-9, so an absolute
        # tolerance would pass an eigenvector off by 1e-6 of its norm
        x = np.random.default_rng(21).uniform(0.0, 5.0, 300) * scale
        op = laplacian(build_graph(SampleSet(x[:, None]), 0.25 * scale,
                                   KernelSpec("truncated_gaussian")))
        eigensolve(op, 10, "dense")
        real_eigh = np.linalg.eigh

        def perturbed(a):
            values, vectors = real_eigh(a)
            vectors[:, 1] += 1e-6 * np.random.default_rng(22).standard_normal(op.n) / np.sqrt(op.n)
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(SolverError, match="eigenpair residual"):
            eigensolve(op, 10, "dense")

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_graph_without_edges_has_only_zero_eigenvalues(self, method):
        # L = 0: the tolerance, relative to |L|, must not shrink to 0
        op = laplacian(build_graph(SampleSet(np.arange(500.0)[:, None]), 0.5,
                                   KernelSpec("indicator")))
        eig = eigensolve(op, 5, method)
        assert np.all(eig.values == 0.0)

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
        err = np.linalg.norm(rebuilt - op.matrix.toarray())
        assert err < 1e-8

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_kernel_larger_than_m_starts_with_constant(self, method):
        eig = eigensolve(twelve_clusters(), 4, method)
        assert eig.m == 4 and np.all(eig.values == 0.0)
        np.testing.assert_allclose(eig.vectors[:, 0], 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_truncated_kernel_takes_one_solve(self, method, monkeypatch):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        monkeypatch.setattr(spectral.spla, "eigsh", counting(spectral.spla.eigsh))
        eig = eigensolve(twelve_clusters(), 4, method)
        assert calls == ["eigh" if method == "dense" else "eigsh"]
        assert np.all(eig.vectors[:, 0] == 1.0)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_kernel_basis_is_gram_schmidt_of_indicators_left_to_right(self, method):
        op = twelve_clusters()
        cluster = np.repeat(np.arange(12), 10)
        eig = eigensolve(op, 5, method)
        spanning = np.column_stack([np.ones(op.n)] + [cluster == c for c in range(4)])
        expected = np.empty((op.n, 5))
        for k in range(5):  # classical Gram-Schmidt in |.|_n
            v = spanning[:, k] - expected[:, :k] @ (expected[:, :k].T @ spanning[:, k] / op.n)
            expected[:, k] = v / np.sqrt(np.mean(v * v))
        np.testing.assert_allclose(eig.vectors, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_kernel_basis_follows_the_points_under_permutation(self, method):
        op = twelve_clusters()
        perm = np.random.default_rng(11).permutation(op.n)
        shuffled = twelve_clusters(perm)
        base, moved = eigensolve(op, 6, method), eigensolve(shuffled, 6, method)
        np.testing.assert_allclose(moved.vectors, base.vectors[perm], rtol=0, atol=1e-12)

    def test_kernel_basis_orders_components_lexicographically_in_2d(self):
        # components a and b share their smallest first coordinate; the second decides
        rng = np.random.default_rng(4)
        a = np.column_stack([np.r_[0.0, rng.uniform(0, 0.3, 7)], rng.uniform(0, 0.3, 8)])
        b = a + [0.0, 10.0]
        c = a + [5.0, -3.0]
        pts = np.vstack([c, b, a])
        for perm in (np.arange(24), np.random.default_rng(5).permutation(24)):
            g = build_graph(SampleSet(pts[perm]), 1.0, KernelSpec("indicator"))
            v = eigensolve(laplacian(g), 3, "dense").vectors
            which = np.repeat([2, 1, 0], 8)[perm]  # c, b, a -> order a, b, c
            assert np.all(v[which == 0, 1] > 0) and np.all(v[which != 0, 1] < 0)
            assert np.all(np.abs(v[which == 0, 2]) < 1e-12) and np.all(v[which == 1, 2] > 0)

    def test_kernel_of_dimension_m_or_more_stops_within_the_restart_budget(self, monkeypatch):
        # 32 components at m = 16: a 16-fold zero eigenvalue, which ARPACK
        # resolves before its restart cap or leaves to the fallback below
        calls = []
        real = spectral.linalg.get_lapack_funcs

        def counted(names, arrays):
            pbtrf, pbtrs = real(names, arrays)

            def counting_pbtrs(*args, **kwargs):
                calls.append(1)
                return pbtrs(*args, **kwargs)
            return pbtrf, counting_pbtrs

        monkeypatch.setattr(spectral.linalg, "get_lapack_funcs", counted)
        bases = []
        real_basis = spectral._kernel_basis
        monkeypatch.setattr(spectral, "_kernel_basis",
                            lambda *args: bases.append(1) or real_basis(*args))
        x = experiments.draw_design(2, 800, 0, 0.0, 5.0)
        graph = build_graph(SampleSet(x[:, None]), 0.02, KernelSpec("truncated_gaussian"))
        m = 16
        ncv = spectral._lanczos_basis_size(graph.n, m)
        eig = eigensolve(laplacian(graph), m)
        assert graph.components.component_count == 32
        # each restart applies the operator at most ncv - m times
        assert 0 < len(calls) <= ncv + spectral._MAX_RESTARTS * (ncv - m)
        assert len(bases) == 1
        assert np.all(eig.values == 0.0) and np.all(eig.vectors[:, 0] == 1.0)
        np.testing.assert_array_equal(eig.vectors[:, 1:], real_basis(graph, m)[:, 1:])

    def test_stalled_kernel_of_dimension_m_or_more_falls_back_to_the_components(
            self, monkeypatch):
        # ARPACK gives up on a kernel of dimension >= m: the components span it exactly
        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", None, None)

        bases = []
        real_basis = spectral._kernel_basis
        monkeypatch.setattr(spectral, "_kernel_basis",
                            lambda *args: bases.append(1) or real_basis(*args))
        monkeypatch.setattr(spectral.spla, "eigsh", stalled)
        x = experiments.draw_design(2, 800, 0, 0.0, 5.0)
        graph = build_graph(SampleSet(x[:, None]), 0.02, KernelSpec("truncated_gaussian"))
        eig = eigensolve(laplacian(graph), 16)
        assert len(bases) == 1  # the fallback leaves the vectors to the kernel block
        assert np.all(eig.values == 0.0) and np.all(eig.vectors[:, 0] == 1.0)
        np.testing.assert_array_equal(eig.vectors[:, 1:], real_basis(graph, 16)[:, 1:])

    def test_too_few_positive_pairs_beside_the_kernel_is_a_solver_error(self, monkeypatch):
        # 12 components at m = 20 leave 8 places for positive pairs; one pair
        # of the 8 comes back negative, which no PSD Laplacian has
        op = twelve_clusters()
        values, vectors = np.linalg.eigh(op.matrix.toarray())
        values[12] = -values[12]
        perm = csgraph.reverse_cuthill_mckee(op.matrix, symmetric_mode=True)
        monkeypatch.setattr(spectral.spla, "eigsh",
                            lambda A, k, **kwargs: (values[:k], vectors[perm, :k]))
        with pytest.raises(SolverError, match="7 positive pairs beside a kernel of dimension 12"):
            eigensolve(op, 20, method="iterative")

    # (n, seed, epsilon) of uniform designs on [0, 5] whose graphs have 2 to
    # 122 components; 1150/29 and 529/380424 failed the residual gate when the
    # kernel vectors took over the pairs ARPACK returned in their places
    DISCONNECTED = [(1000, 5, 0.03), (900, 2, 0.03), (600, 1, 0.04), (1150, 29, 0.0198),
                    (1200, 3, 0.0183), (900, 2, 0.02), (700, 4, 0.021), (800, 6, 0.02),
                    (529, 380424, 0.023122809970077998), (1100, 7, 0.014), (1200, 8, 0.0095)]

    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize("n, seed, eps", DISCONNECTED)
    def test_iterative_matches_dense_oracle_on_disconnected_graphs(self, n, seed, eps, m):
        x = experiments.draw_design(seed, n, 0, 0.0, 5.0)
        op = laplacian(build_graph(SampleSet(x[:, None]), eps, KernelSpec("truncated_gaussian")))
        components = op.graph.components.component_count
        g = 2.0 * op.matrix.diagonal().max()
        eig = eigensolve(op, m)
        assert components >= 2 and n > spectral.DENSE_LIMIT
        assert np.count_nonzero(eig.values == 0.0) == min(components, m)
        dense = np.linalg.eigvalsh(op.matrix.toarray())[:m]
        assert np.max(np.abs(eig.values - dense)) <= spectral._REL_TOL * g

    def test_components_within_m_fill_the_kernel(self):
        # 12 components, m = 20: 12 kernel vectors, then the smallest positive pairs
        op = twelve_clusters()
        eig = eigensolve(op, 20, "dense")
        assert np.count_nonzero(eig.values == 0.0) == 12 and eig.values[12] > 0.0
        gram = eig.vectors.T @ eig.vectors / op.n
        assert np.max(np.abs(gram - np.eye(20))) < 1e-10

    def test_connected_graph_needs_no_component_count(self, monkeypatch):
        def forbidden(graph):
            raise AssertionError("components counted for a connected graph")

        monkeypatch.setattr("fracreg.graph.connectivity_check", forbidden)
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


class TestPartialFits:
    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_rows_are_the_sequential_sum_bit_for_bit(self, method):
        # references: the fit grown one vector at a time, in eigen order, and
        # numpy's cumulative sum over the same terms
        op = random_geometric_operator(21, n=500, dim=1, eps=0.05)
        eig = eigensolve(op, 30, method)
        u = np.random.default_rng(22).standard_normal(op.n)
        Ks = [7, 0, 30, 3, 7, 1]
        fits = eig.partial_fits(u, Ks)
        coef = eig.coefficients(u)
        assert fits.shape == (len(Ks), op.n)
        cumulative = np.cumsum(coef[:, None] * eig.vectors.T, axis=0)
        for row, K in zip(fits, Ks):
            expected = np.zeros(op.n)
            for k in range(K):
                expected = expected + coef[k] * eig.vectors[:, k]
            np.testing.assert_array_equal(row, expected)
            if K:
                np.testing.assert_array_equal(row, cumulative[K - 1])

    def test_K_beyond_the_computed_pairs_rejected(self):
        eig = eigensolve(path3_operator(), 2)
        for Ks in ([3], [-1], [0, 3]):
            with pytest.raises(InvalidInputError):
                eig.partial_fits(np.ones(3), Ks)


class TestContinuumLimit:
    # Uniform design on (0, 5), density p = 0.2: the graph eigenvalues approach
    # the Neumann spectrum of -(sigma1 p / 2) d^2/dx^2, that is
    # lambda_{k+1} -> (sigma1 p / 2) (pi k / 5)^2 (Garcia Trillos, Gerlach,
    # Hein, Slepcev 2020; Green, Balakrishnan, Tibshirani 2021).  The design
    # noise and the O(eps) bias shrink with n, and so does the tolerance.
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, eps", [(1000, 0.25), (4000, 0.15)])
    def test_low_spectrum_matches_continuum_neumann_eigenvalues(self, n, eps, seed):
        kernel = KernelSpec("truncated_gaussian", 0.4)
        x = np.random.default_rng(seed).uniform(0.0, 5.0, n)
        eig = eigensolve(laplacian(build_graph(SampleSet(x[:, None]), eps, kernel)), 12)
        k = np.arange(1, 12)
        predicted = kernel_moments(kernel, 1).sigma1 * 0.2 / 2.0 * (np.pi * k / 5.0) ** 2
        ratio = eig.values[1:] / predicted
        assert np.max(np.abs(ratio - 1.0)) < 0.25 * (n / 1000.0) ** (-1.0 / 3.0)


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
