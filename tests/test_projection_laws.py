"""Projection laws of the eigenmap fit: on random, often disconnected, graphs,
and under affine maps of the design and of the responses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracreg.estimator import fit
from fracreg.graph import KernelSpec, SampleSet

KERNEL = KernelSpec("truncated_gaussian")
LAWS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def instances(draw):
    """n uniform points on [0, 5] with responses; epsilon small enough to split many graphs."""
    n = draw(st.integers(20, 60))
    epsilon = draw(st.floats(0.05, 0.3))
    K = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.0, 5.0, n)
    return SampleSet(x[:, None], np.sin(x) + rng.standard_normal(n)), epsilon, K


def test_projection_laws():
    component_counts = []

    @LAWS
    @given(instances())
    def laws(instance):
        samples, epsilon, K = instance
        y, n = samples.responses, samples.n
        res = fit(samples, K, epsilon, KERNEL)
        component_counts.append(res.component_count)

        # Pythagoras: |y|^2 = |P y|^2 + |y - P y|^2
        lhs = np.mean(y ** 2)
        rhs = np.mean(res.fitted ** 2) + np.mean((y - res.fitted) ** 2)
        assert abs(lhs - rhs) <= 1e-8
        # idempotence: projecting the fit again changes nothing
        again = fit(SampleSet(samples.points, res.fitted), K, epsilon, KERNEL)
        np.testing.assert_allclose(again.fitted, res.fitted, rtol=0, atol=1e-10)
        # K = 1 is the mean, K = n reproduces the responses
        np.testing.assert_allclose(fit(samples, 1, epsilon, KERNEL).fitted, np.mean(y),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit(samples, n, epsilon, KERNEL).fitted, y,
                                   rtol=0, atol=1e-8)
        # the fit does not depend on the order of the samples
        perm = np.random.default_rng(n).permutation(n)
        shuffled = fit(SampleSet(samples.points[perm], y[perm]), K, epsilon, KERNEL)
        unpermuted = np.empty(n)
        unpermuted[perm] = shuffled.fitted
        np.testing.assert_allclose(unpermuted, res.fitted, rtol=0, atol=1e-10)

    laws()
    assert any(count > 1 for count in component_counts)


def affine_instance(n):
    """n uniform points on [0, 5], a smooth truth plus unit noise, and (K, epsilon)."""
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 5.0, n)
    K, epsilon = {400: (20, 0.25), 2000: (40, 0.12)}[n]
    return x, np.sin(2.0 * x) + rng.standard_normal(n), K, epsilon


@pytest.mark.parametrize("n", [400, 2000])  # the dense and the iterative solver
@pytest.mark.parametrize("scale, shift", [(0.2, 0.0), (3.0, -7.0), (40.0, 100.0),
                                          (1e-3, 0.0), (1e3, -2e3)])
def test_fit_does_not_depend_on_the_units_of_the_design(n, scale, shift):
    # epsilon scales with the design, so the graph's weights and its
    # eigenvectors stay put; only the eigenvalues rescale, by scale^-3, and
    # the solver's tolerances with them
    x, y, K, epsilon = affine_instance(n)
    base = fit(SampleSet(x[:, None], y), K, epsilon, KERNEL)
    moved = fit(SampleSet((scale * x + shift)[:, None], y), K, scale * epsilon, KERNEL)
    np.testing.assert_allclose(moved.fitted, base.fitted, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [400, 2000])
@pytest.mark.parametrize("scale, shift", [(-3.5, 10.0), (0.01, 3.0)])
def test_fit_maps_with_the_responses(n, scale, shift):
    # the projection is linear and, for K >= 1, keeps constants
    x, y, K, epsilon = affine_instance(n)
    base = fit(SampleSet(x[:, None], y), K, epsilon, KERNEL)
    moved = fit(SampleSet(x[:, None], scale * y + shift), K, epsilon, KERNEL)
    np.testing.assert_allclose(moved.fitted, scale * base.fitted + shift, rtol=0, atol=1e-11)
