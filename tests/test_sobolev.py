import csv
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from fracreg import cli, sobolev
from fracreg.errors import InvalidInputError
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.sobolev import (
    bumps,
    continuum_seminorm,
    piecewise_constant,
    piecewise_polynomial,
    power_function,
    spectral_seminorm,
    zoo,
    zoo_function,
)
from fracreg.spectral import EigenSystem, dirichlet_form, eigensolve, laplacian

UNIT_STEP = piecewise_constant([0.0, 0.5, 1.0], [1.0, 0.0])


def step_seminorm_sq(s):
    """Closed form of the two-block double integral for the unit step, s < 1/2:

    2 * int_0^(1/2) int_(1/2)^1 |x-y|^(-1-2s) dy dx = (2^(2s) - 1) / (s (1 - 2s))
    """
    return (2.0 ** (2.0 * s) - 1.0) / (s * (1.0 - 2.0 * s))


class TestEvaluate:
    def test_blocks_values(self):
        f2 = zoo_function("f2")
        assert f2(1.5) == 0.5
        assert f2(4.0) == -2.5

    def test_piecewise_polynomial_values(self):
        f3 = zoo_function("f3")
        assert f3(1.5) == pytest.approx(6.5)
        assert f3(4.0) == pytest.approx(0.8)

    def test_power_at_origin(self):
        for alpha in (0.3, 0.5, 0.9):
            assert power_function(alpha)(0.0) == 0.0

    def test_half_open_convention(self):
        f2 = zoo_function("f2")
        # the piece over (a, b] owns its right endpoint
        assert f2(1.0) == 1.0
        assert f2(2.0) == 0.5
        f3 = zoo_function("f3")
        assert f3(2.0) == pytest.approx(2.0 * 4.0 + 2.0)

    def test_outside_domain_rejected(self):
        f2 = zoo_function("f2")
        for x in (0.0, 5.0, -1.0, 7.2):
            with pytest.raises(InvalidInputError):
                f2(x)

    def test_bumps_shape(self):
        fn = bumps([1.0], [2.0], [0.5], domain=(0.0, 2.0))
        assert fn(1.0) == pytest.approx(2.0)  # peak value at the center
        assert fn(1.5) == pytest.approx(2.0 * 2.0 ** -4.0)

    def test_vectorized_matches_scalar(self):
        f3 = zoo_function("f3")
        xs = np.linspace(0.01, 4.99, 57)
        np.testing.assert_allclose(f3(xs), [f3(float(x)) for x in xs])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            power_function(1.0)
        with pytest.raises(InvalidInputError):
            piecewise_constant([0.0, 1.0, 0.5], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            piecewise_constant([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            bumps([1.0], [1.0], [-0.1])


class TestContinuumSeminorm:
    def test_constant_function_zero(self):
        fn = piecewise_constant([0.0, 1.0], [3.0])
        res = continuum_seminorm(fn, 0.3, refinement=9)
        assert not res.diverged
        assert res.value == 0.0
        assert all(v == 0.0 for v in res.refinements)

    def test_step_converges_below_half(self):
        res = continuum_seminorm(UNIT_STEP, 0.25)
        assert not res.diverged
        assert res.value == pytest.approx(step_seminorm_sq(0.25), rel=1e-4)
        assert res.value == pytest.approx(8.0 * (math.sqrt(2.0) - 1.0), rel=1e-4)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_membership_cauchy(self, s):
        res = continuum_seminorm(UNIT_STEP, s)
        assert not res.diverged
        # refinement increments must be decaying at the tail (Cauchy)
        inc = np.diff(res.refinements)
        assert abs(inc[-1]) < abs(inc[-3])
        assert res.value == pytest.approx(step_seminorm_sq(s), rel=0.01)

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
    def test_non_membership_divergence(self, s):
        res = continuum_seminorm(UNIT_STEP, s)
        assert res.diverged
        assert res.value == math.inf
        # monotonically exceeds any bound: last sums keep growing
        seq = res.refinements
        assert seq[-1] > seq[-2] > seq[-3]

    def test_power_cusp_converges_below_half(self):
        res = continuum_seminorm(power_function(0.5), 0.25, refinement=11)
        assert not res.diverged
        assert res.value > 0

    def test_s_domain_checked(self):
        with pytest.raises(InvalidInputError):
            continuum_seminorm(UNIT_STEP, 1.0)
        with pytest.raises(InvalidInputError):
            continuum_seminorm(UNIT_STEP, 0.0)

    def test_scaling_homogeneity(self):
        base = continuum_seminorm(UNIT_STEP, 0.25)
        scaled_fn = piecewise_constant([0.0, 0.5, 1.0], [3.0, 0.0])
        scaled = continuum_seminorm(scaled_fn, 0.25)
        # |c u| = |c| |u| for the seminorm, i.e. value scales by c^2
        assert scaled.value == pytest.approx(9.0 * base.value, rel=1e-10)

    def test_triangle_inequality_on_level_sums(self):
        rng = np.random.default_rng(33)
        bp = [0.0, 0.3, 0.55, 0.8, 1.0]
        for _ in range(5):
            u_vals = rng.standard_normal(4)
            v_vals = rng.standard_normal(4)
            u = piecewise_constant(bp, u_vals)
            v = piecewise_constant(bp, v_vals)
            uv = piecewise_constant(bp, u_vals + v_vals)
            s = 0.3
            level = 9
            su = continuum_seminorm(u, s, refinement=level).refinements[-1]
            sv = continuum_seminorm(v, s, refinement=level).refinements[-1]
            suv = continuum_seminorm(uv, s, refinement=level).refinements[-1]
            assert math.sqrt(suv) <= math.sqrt(su) + math.sqrt(sv) + 1e-10

    def test_refinement_bounds(self):
        fn = zoo_function("f2")
        for level in (6, sobolev.MAX_REFINEMENT + 1):
            with pytest.raises(InvalidInputError):
                continuum_seminorm(fn, 0.3, level)

    def test_cell_count_reported(self):
        res = continuum_seminorm(UNIT_STEP, 0.25, refinement=8)
        n = 1 << 8
        assert res.quadrature_cells == (n - 1) * (n - 2)


def test_zoo_matches_the_benchmark_reference():
    """f1..f4 at the seminorm_zoo workload's s values and level, one object per truth."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "seminorm_zoo.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 19
    functions = {name: zoo_function(name) for name in ("f1", "f2", "f3", "f4")}
    for row in rows:
        res = continuum_seminorm(functions[row["truth"]], float(row["s"]), 12)
        assert res.diverged == (row["diverged"] == "true"), row
        assert res.value == pytest.approx(float(row["value"]), rel=1e-10), row


def bits(res):
    """The floats of a result as hex strings, so equality is bitwise."""
    return (res.value.hex(), res.estimated_error.hex(), [r.hex() for r in res.refinements])


class TestLagMemo:
    """The s-independent lag sums are computed once per level per function object."""

    S_VALUES = [round(0.05 * i, 2) for i in range(1, 20)]

    @pytest.fixture
    def lag_calls(self, monkeypatch):
        calls = []
        real = sobolev._lag_sums

        def counting(f):
            calls.append(f.shape[0])
            return real(f)

        monkeypatch.setattr(sobolev, "_lag_sums", counting)
        return calls

    def test_one_cli_call_sums_each_level_once(self, tmp_path, lag_calls):
        config = tmp_path / "sem.txt"
        config.write_text("truth = f2\ns = %s\nlevel = 12\n" % self.S_VALUES)
        assert cli.main(["seminorm", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert sorted(lag_calls) == [1 << level for level in range(4, 13)]

    def test_equal_functions_share_nothing(self, lag_calls):
        for _ in range(2):
            fn = zoo_function("f2")
            for s in self.S_VALUES:
                continuum_seminorm(fn, s, 12)
        assert len(lag_calls) == 2 * 9

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_results_do_not_depend_on_the_order_of_s(self, name):
        s_values = [0.1, 0.3, 0.45, 0.5, 0.7, 0.9]
        fn = zoo_function(name)
        ascending = [bits(continuum_seminorm(fn, s, 10)) for s in s_values]
        fn = zoo_function(name)
        descending = [bits(continuum_seminorm(fn, s, 10)) for s in reversed(s_values)]
        alone = [bits(continuum_seminorm(zoo_function(name), s, 10)) for s in s_values]
        assert ascending == descending[::-1] == alone

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_refinements_equal_the_direct_level_sums(self, name):
        def direct(fn, s, level):
            # evaluate, lag-sum and weight at this level alone
            a, b = fn.domain
            N = 1 << level
            h = (b - a) / N
            G = sobolev._lag_sums(fn(a + (np.arange(N) + 0.5) * h))
            return 2.0 * float(np.sum(G[1:] * (np.arange(2, N) * h) ** (-1.0 - 2.0 * s) * h * h))

        fn = zoo_function(name)
        for s in (0.15, 0.5, 0.85):
            got = continuum_seminorm(fn, s, 11).refinements
            # one reduction per level sums left to right, np.sum pairwise
            assert got == pytest.approx([direct(fn, s, lv) for lv in range(4, 12)], rel=1e-13)

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_coarser_refinement_is_a_prefix(self, name):
        for s in (0.15, 0.5, 0.85):
            fine = continuum_seminorm(zoo_function(name), s, 12).refinements
            coarse = continuum_seminorm(zoo_function(name), s, 9).refinements
            assert [r.hex() for r in coarse] == [r.hex() for r in fine[:6]]

    def test_memo_leaves_identity_alone(self):
        fn = zoo_function("f3")
        before = continuum_seminorm(fn, 0.3, 9)
        assert fn._lag_memo
        fresh = zoo_function("f3")
        assert fn == fresh and hash(fn) == hash(fresh)
        copy = pickle.loads(pickle.dumps(fn))
        assert copy == fn and hash(copy) == hash(fn)
        assert bits(continuum_seminorm(copy, 0.3, 9)) == bits(before)


class TestSpectralSeminorm:
    def _system(self, seed=0, n=80, eps=0.6):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 5, n))
        s = SampleSet(x[:, None])
        graph = build_graph(s, eps, KernelSpec("truncated_gaussian"))
        op = laplacian(graph)
        return op, eigensolve(op, n)

    def test_constant_zero(self):
        _, eig = self._system()
        assert spectral_seminorm(eig, np.full(eig.n, 4.0), 0.5) <= 1e-12

    def test_eigenvector_value(self):
        _, eig = self._system(1)
        for k in (2, 5, 9):
            got = spectral_seminorm(eig, eig.vectors[:, k], 0.5)
            assert got == pytest.approx(eig.values[k] ** 0.5, abs=1e-9)

    def test_s_one_matches_dirichlet_form(self):
        rng = np.random.default_rng(2)
        op, eig = self._system(2)
        for _ in range(5):
            f = rng.standard_normal(eig.n)
            assert spectral_seminorm(eig, f, 1.0) == pytest.approx(
                dirichlet_form(op, f), abs=1e-8
            )

    def test_s_range(self):
        _, eig = self._system(3)
        with pytest.raises(InvalidInputError):
            spectral_seminorm(eig, np.ones(eig.n), 1.2)
        with pytest.raises(InvalidInputError):
            spectral_seminorm(eig, np.ones(eig.n), 0.0)

    def test_negative_eigenvalue_refused(self):
        _, eig = self._system(5, n=20)
        values = eig.values.copy()
        values[1] = -1e-9 * values[-1]
        with pytest.raises(InvalidInputError, match="negative"):
            spectral_seminorm(EigenSystem(values, eig.vectors), np.ones(eig.n), 0.5)

    def test_scaling_homogeneity(self):
        _, eig = self._system(4)
        f = np.sin(np.arange(eig.n))
        base = spectral_seminorm(eig, f, 0.4)
        scaled = spectral_seminorm(eig, -2.5 * f, 0.4)
        assert scaled == pytest.approx(2.5 ** 2 * base, rel=1e-10)


class TestZoo:
    def test_names(self):
        assert set(zoo()) == {"f1", "f2", "f3", "f4"}

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            zoo_function("f9")

    def test_families(self):
        z = zoo()
        assert z["f1"].family == "power"
        assert z["f2"].family == "piecewise_constant"
        assert z["f3"].family == "piecewise_polynomial"
        assert z["f4"].family == "bumps"
