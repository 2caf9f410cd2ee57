import math
from fractions import Fraction

import numpy as np
import pytest

from fracreg import graph as graph_module
from fracreg.errors import InvalidInputError, TuningError
from fracreg.estimator import (
    TuningRule,
    choose_K,
    fit,
    grid_search,
)
from fracreg.experiments import ExperimentConfig, generate
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.spectral import eigensolve, laplacian

KERNEL = KernelSpec("truncated_gaussian")


def uniform_instance(seed, n=60, noise=1.0, low=0.0, high=5.0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(low, high, n))
    y = np.sin(x) + noise * rng.standard_normal(n)
    return SampleSet(x[:, None], y)


def exact_choose_k(M2: Fraction, n: int, s: Fraction, d: int) -> int:
    """Integer-only evaluation of min{floor((M^2 n)^(d/(2s+d))) or 1, n}."""
    exponent = Fraction(d, 1) / (2 * s + d)
    p, q = exponent.numerator, exponent.denominator
    base = M2 * n
    num = base.numerator ** p
    den = base.denominator ** p
    hi = 1
    while hi ** q * den <= num:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** q * den <= num:
            lo = mid
        else:
            hi = mid
    t = lo if lo ** q * den <= num else 0
    return min(max(t, 1), n)


class TestTuning:
    def test_rule_validation(self):
        with pytest.raises(InvalidInputError):
            TuningRule(s=1.0, M=1.0)
        with pytest.raises(InvalidInputError):
            TuningRule(s=0.5, M=0.0)
        with pytest.raises(InvalidInputError):
            TuningRule(s=0.5, M=1.0, c0=-1.0)

    def test_dimension_must_be_positive(self):
        rule = TuningRule(s=0.5, M=1.0)
        with pytest.raises(InvalidInputError, match="dimension"):
            choose_K(rule, 100, 0)
        with pytest.raises(InvalidInputError, match="dimension"):
            rule.resolve(100, 0)

    def test_choose_k_formula(self):
        assert choose_K(TuningRule(s=0.5, M=1.0), 1000, 1) == 31

    def test_choose_k_small_radius_floor(self):
        # M^2 < 1/n pushes the raw formula below 1
        assert choose_K(TuningRule(s=0.5, M=0.01), 100, 1) == 1

    def test_choose_k_interpolation_regime(self):
        n, s, d = 200, 0.3, 1
        M = n ** (s / d) + 1.0
        assert choose_K(TuningRule(s=s, M=M), n, d) == n

    def test_choose_k_exact_integer_power(self):
        # 4096^(1/2) = 64 exactly; the floor must not lose it to rounding
        assert choose_K(TuningRule(s=0.5, M=1.0), 4096, 1) == 64

    def test_choose_k_against_exact_arithmetic(self):
        combos = [
            (Fraction(1, 10), Fraction(1, 4), 537, 2),
            (Fraction(3, 2), Fraction(9, 20), 1000, 1),
            (Fraction(5), Fraction(3, 4), 4096, 3),
            (Fraction(1, 2), Fraction(9, 10), 17, 1),
        ]
        for M, s, n, d in combos:
            rule = TuningRule(s=float(s), M=float(M))
            assert choose_K(rule, n, d) == exact_choose_k(M * M, n, s, d)

    def test_resolve_epsilon_midpoint(self):
        rule = TuningRule(s=0.5, M=1.0)
        lo = math.log(1000) / 1000
        hi = 1.0 / 31.0
        expect = math.sqrt(lo * hi)
        K, got = rule.resolve(1000, 1)
        assert K == 31
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.01493, abs=5e-6)
        assert lo <= got <= hi

    def test_resolve_empty_window(self):
        rule = TuningRule(s=0.5, M=1.0, c0=100.0, C0=1e-4)
        with pytest.raises(TuningError):
            rule.resolve(1000, 1)

    def test_resolve_is_choose_k_then_the_window_midpoint(self):
        rule = TuningRule(s=0.4, M=1.0)
        for n in (50, 100, 1000):
            K = choose_K(rule, n, 1)
            lo, hi = (math.log(n) / n) ** 1.0, K ** -1.0  # c0 = C0 = 1, d = 1
            assert rule.resolve(n, 1) == (K, math.sqrt(lo * hi))

    def test_resolve_epsilon_k1_upper_bound(self):
        rule = TuningRule(s=0.5, M=0.01, C0=0.9)
        K, got = rule.resolve(500, 1)
        assert K == 1
        assert got <= 0.9  # K = 1 gives the loosest upper bound, C0 itself


class TestFit:
    def test_interpolation_at_full_rank(self):
        s = uniform_instance(0, n=60)
        res = fit(s, s.n, 0.8, KERNEL)
        assert np.max(np.abs(res.fitted - s.responses)) <= 1e-8

    def test_k1_is_mean_on_connected_graph(self):
        s = SampleSet(np.array([[0.0], [0.5], [1.0]]), np.array([2.0, 4.0, 6.0]))
        res = fit(s, 1, 2.0, KernelSpec("indicator"))
        np.testing.assert_allclose(res.fitted, [4.0, 4.0, 4.0], atol=1e-12)

    def test_k1_is_mean_when_components_outnumber_k(self):
        # 8 components: the solver's one kernel vector need not be the constant
        s = uniform_instance(1, n=40)
        res = fit(s, 1, 0.2, KERNEL)
        assert (res.connected, res.component_count) == (False, 8)
        np.testing.assert_allclose(res.fitted, np.mean(s.responses), rtol=0, atol=1e-12)

    def test_fit_does_not_depend_on_sample_order(self):
        # rule-tuned f2 sample whose 29 components outnumber K = 12: the fit
        # projects onto part of the kernel, which must not hang on the order
        config = ExperimentConfig(truth="f2", n_grid=(100,), repetitions=1, seed=1,
                                  tuning=TuningRule(s=0.4, M=1.0))
        s = generate(config, 100, 1)
        K, eps = config.tuning.resolve(100, 1)
        perm = np.random.default_rng(7).permutation(100)
        res = fit(s, K, eps, KERNEL)
        shuffled = fit(SampleSet(s.points[perm], s.responses[perm]), K, eps, KERNEL)
        assert (K, res.connected, res.component_count) == (12, False, 29)
        assert (shuffled.connected, shuffled.component_count) == (False, 29)
        unpermuted = np.empty(100)
        unpermuted[perm] = shuffled.fitted
        np.testing.assert_allclose(unpermuted, res.fitted, rtol=0, atol=1e-10)

    def test_components_are_labelled_once(self, monkeypatch):
        # rule-tuned f2 sample with 29 components: the solver builds its kernel basis from them too
        config = ExperimentConfig(truth="f2", n_grid=(100,), repetitions=1, seed=1,
                                  tuning=TuningRule(s=0.4, M=1.0))
        s = generate(config, 100, 1)
        K, eps = config.tuning.resolve(100, 1)
        calls = []
        real = graph_module.connectivity_check

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(graph_module, "connectivity_check", counting)
        assert fit(s, K, eps, KERNEL).component_count == 29
        assert len(calls) == 1
        grid_search(s, [K], [eps], KERNEL, config.truth_function()(s.points[:, 0]))
        assert len(calls) == 2

    def test_k0_zero_fit(self):
        s = uniform_instance(1)
        res = fit(s, 0, 0.8, KERNEL)
        assert np.all(res.fitted == 0.0)
        assert (res.K, res.eig.m) == (0, 1)  # one pair solved, none of it projected on

    def test_k_out_of_range(self):
        s = uniform_instance(2)
        with pytest.raises(InvalidInputError):
            fit(s, s.n + 1, 0.8, KERNEL)

    def test_requires_responses(self):
        s = SampleSet(np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidInputError):
            fit(s, 1, 1.0, KERNEL)

    def test_fit_reconstruction_invariant(self):
        s = uniform_instance(3)
        res = fit(s, 7, 0.8, KERNEL)
        rebuilt = res.eig.vectors[:, :7] @ res.eig.coefficients(s.responses)[:7]
        assert np.max(np.abs(rebuilt - res.fitted)) <= 1e-10

    def test_pythagoras(self):
        for seed in range(6):
            s = uniform_instance(seed + 10)
            res = fit(s, 9, 0.7, KERNEL)
            y = s.responses
            lhs = np.mean(y ** 2)
            rhs = np.mean(res.fitted ** 2) + np.mean((y - res.fitted) ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_idempotence(self):
        s = uniform_instance(4)
        res = fit(s, 8, 0.7, KERNEL)
        again = fit(SampleSet(s.points, res.fitted), 8, 0.7, KERNEL)
        assert np.max(np.abs(again.fitted - res.fitted)) <= 1e-10

    def test_monotone_residual_in_K(self):
        s = uniform_instance(5, n=50)
        graph = build_graph(s, 0.9, KERNEL)
        eig = eigensolve(laplacian(graph), s.n)
        coef = eig.coefficients(s.responses)
        prev = math.inf
        fhat = np.zeros(s.n)
        for K in range(s.n + 1):
            if K > 0:
                fhat = fhat + coef[K - 1] * eig.vectors[:, K - 1]
            resid = math.sqrt(np.mean((s.responses - fhat) ** 2))
            assert resid <= prev + 1e-10
            prev = resid

    def test_disconnected_graph_is_reported_on_the_fit(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        s = SampleSet(pts, np.array([1.0, 2.0, 3.0, 4.0]))
        res = fit(s, 2, 0.5, KernelSpec("indicator"))
        assert (res.connected, res.component_count) == (False, 2)
        assert fit(s, 2, 20.0, KernelSpec("indicator")).connected

    def test_save_csv_metadata(self, tmp_path):
        s = uniform_instance(6, n=20)
        res = fit(s, 4, 0.9, KERNEL)
        path = tmp_path / "fit.csv"
        res.save_csv(path, s, {"kernel": KERNEL.family, "s": 0.45, "M": 1.0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# K = 4")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",") == ["index", "x1", "y", "fitted"]
        assert len(lines) == header_idx + 1 + s.n


class TestGridSearch:
    def test_single_cell(self):
        s = uniform_instance(7, n=40)
        truth = np.sin(s.points[:, 0])
        res = grid_search(s, [5], [0.8], KERNEL, truth)
        assert res.best_fit.K == 5 and res.best_fit.epsilon == 0.8
        assert res.mse_surface.shape == (1, 1)

    def test_best_fit_basis_starts_with_constant_when_components_outnumber_k(self):
        s = uniform_instance(1, n=40)
        res = grid_search(s, [1, 2], [0.2], KERNEL, np.sin(s.points[:, 0]))
        assert res.best_fit.component_count == 8
        np.testing.assert_allclose(res.best_fit.eig.vectors[:, 0], 1.0, rtol=0, atol=1e-12)

    def test_surface_equals_the_sequential_sum(self):
        # reference: the fit grown one vector at a time, in the same order
        s = uniform_instance(3, n=80)
        truth = np.sin(s.points[:, 0])
        K_grid, eps_grid = [7, 0, 3, 12, 1], [0.3, 0.6]
        res = grid_search(s, K_grid, eps_grid, KERNEL, truth)
        for j, eps in enumerate(eps_grid):
            eig = eigensolve(laplacian(build_graph(s, eps, KERNEL)), 12)
            coef = eig.coefficients(s.responses)
            for i, K in enumerate(K_grid):
                fitted = np.zeros(s.n)
                for k in range(K):
                    fitted = fitted + coef[k] * eig.vectors[:, k]
                assert res.mse_surface[i, j] == float(np.mean((fitted - truth) ** 2))

    @pytest.mark.parametrize("n, K_grid", [(300, [1, 4, 9, 16, 32]), (600, [12])])
    def test_fit_at_the_optimum_is_the_searched_fit(self, n, K_grid):
        # best_fit is the row that scored best_mse, and fit reproduces it bit
        # for bit whenever it solves for the same pairs: on the dense path at
        # any grid, on the iterative one when the grid holds a single K
        s = uniform_instance(16, n=n)
        truth = np.sin(s.points[:, 0])
        res = grid_search(s, K_grid, [0.3, 0.6], KERNEL, truth)
        assert res.best_mse == float(np.mean((res.best_fit.fitted - truth) ** 2))
        again = fit(s, res.best_fit.K, res.best_fit.epsilon, KERNEL)
        np.testing.assert_array_equal(again.fitted, res.best_fit.fitted)
        np.testing.assert_array_equal(again.eig.coefficients(s.responses)[:again.K],
                                      res.best_fit.eig.coefficients(s.responses)[:res.best_fit.K])

    def test_noiseless_full_rank_wins(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 5, 50))
        truth = np.cos(x)
        s = SampleSet(x[:, None], truth)
        res = grid_search(s, [1, 10, 50], [0.8, 1.2], KERNEL, truth)
        assert res.best_fit.K == 50
        assert res.best_mse <= 1e-20

    def test_tie_breaks_toward_smaller_K_then_eps(self):
        # zero responses make every cell's fit identically zero, so all MSE
        # values tie exactly and the winner must be (smallest K, smallest eps)
        x = np.linspace(0, 1, 30)
        s = SampleSet(x[:, None], np.zeros(30))
        truth = np.sin(x)
        res = grid_search(s, [3, 1, 2], [0.9, 0.5], KERNEL, truth)
        assert np.all(res.mse_surface == res.mse_surface[0, 0])
        assert res.best_fit.K == 1
        assert res.best_fit.epsilon == 0.5

    def test_surface_follows_grid_order(self):
        s = uniform_instance(9, n=40)
        truth = np.sin(s.points[:, 0])
        res = grid_search(s, [8, 2], [0.7, 1.1], KERNEL, truth)
        direct_8 = grid_search(s, [8], [0.7], KERNEL, truth).mse_surface[0, 0]
        assert res.mse_surface[0, 0] == pytest.approx(direct_8, rel=1e-12)

    def test_interior_minimum_in_K_for_blocks(self):
        from fracreg.sobolev import zoo_function
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 5, 500)
        f2 = zoo_function("f2")
        truth = f2(x)
        s = SampleSet(x[:, None], truth + rng.standard_normal(500))
        k_grid = [1, 2, 4, 8, 16, 32, 64, 128, 256, 500]
        res = grid_search(s, k_grid, [0.25], KERNEL, truth)
        col = res.mse_surface[:, 0]
        best = int(np.argmin(col))
        assert 0 < best < len(k_grid) - 1  # sharply defined interior minimum
        assert col[best] < col[0] and col[best] < col[-1]

    def test_empty_grid_rejected(self):
        s = uniform_instance(11)
        with pytest.raises(InvalidInputError):
            grid_search(s, [], [0.5], KERNEL, np.zeros(s.n))


class TestTruthProjection:
    """|f - P_K f|_n^2, the approximation half of the error, from the fit's eigensystem."""

    def test_constant_truth_lies_in_the_span(self):
        s = uniform_instance(12, n=40)
        res = fit(s, 3, 0.9, KERNEL)
        truth = np.full(40, 1.5)
        projected = res.eig.partial_fits(truth, [3])[0]
        assert np.mean((truth - projected) ** 2) <= 1e-12

    def test_second_eigenvector_truth(self):
        s = uniform_instance(14, n=30)
        graph = build_graph(s, 0.9, KERNEL)
        eig = eigensolve(laplacian(graph), 2)
        v2 = eig.vectors[:, 1]
        res = fit(SampleSet(s.points, v2), 1, 0.9, KERNEL)
        # v2 is orthogonal to the K = 1 span and has unit empirical norm
        assert np.mean((v2 - res.fitted) ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_noiseless_fit_is_the_truths_projection_exactly(self):
        rng = np.random.default_rng(15)
        x = np.sort(rng.uniform(0, 5, 60))
        truth = np.sin(x)
        res = fit(SampleSet(x[:, None], truth.copy()), 6, 0.8, KERNEL)
        # identical float paths: the MSE is the approximation error, with no noise part
        np.testing.assert_array_equal(res.fitted, res.eig.partial_fits(truth, [6])[0])
