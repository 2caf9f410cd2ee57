"""The rate claim as the paper states it: rule tuning over a wide range of n.

The theorem bounds the in-sample MSE of the rule-tuned projection by
C n^(-2s/(2s+d)) from above, so the gate is one-sided.  The fitted log-log
slope of the mean MSE over n may not exceed the theory by more than 3 SE,
where SE is a bootstrap over repetitions.  And r(n) = mean MSE * n^(2s/(2s+1)),
the constant in front of the rate, may not grow by more than half from
n = 1000 to n = 8000.

The rate balances two halves of the error, and each is checked on its own
from the projection EigenSystem.partial_fits: the approximation error
|f - P_K f|_n^2 falls like K^(-2 min(s*, 1)), where s* is the truth's own
smoothness (sobolev.ZOO_SMOOTHNESS), and the noise inside the span has mean
sigma^2 K / n.

Each sweep uses the CLI's default window constants c0 = C0 = the design
length.  Every sweep runs on two workers.  On 2 cores (Intel Xeon) the module
takes about 48 s, 14 s of it in the two halves.
"""

import numpy as np
import pytest

from fracreg.estimator import TuningRule, fit
from fracreg.experiments import ExperimentConfig, draw_design, generate, run_sweep
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.sobolev import ZOO_SMOOTHNESS, zoo_function
from fracreg.spectral import eigensolve, laplacian

N_GRID = (1000, 2000, 4000, 8000)
DESIGNS = {"f1": (-1.0, 1.0), "f2": (0.0, 5.0), "f3": (0.0, 5.0)}  # each truth's study interval
M = 1.0
KERNEL = KernelSpec("truncated_gaussian", 0.4)


def rule(truth, s):
    low, high = DESIGNS[truth]
    return TuningRule(s=s, M=M, c0=high - low, C0=high - low)


def sweep(truth, s, repetitions, seed, pinned=False):
    """A rule-tuned sweep over N_GRID.  With pinned, K and epsilon stay at the
    rule's n = 1000 values at every n: a one-cell grid of the same truth."""
    low, high = DESIGNS[truth]
    common = dict(truth=truth, n_grid=N_GRID, repetitions=repetitions, seed=seed,
                  design_low=low, design_high=high)
    if pinned:
        K, eps = rule(truth, s).resolve(N_GRID[0], 1)
        config = ExperimentConfig(k_grid=(K,), eps_grid=(eps,), theory_s=s, **common)
    else:
        config = ExperimentConfig(tuning=rule(truth, s), **common)
    report = run_sweep(config, threads=2)
    # the slope below is over every n: no failed job, no n dropped for disconnection
    assert report.failures == () and report.n_values == N_GRID and report.excluded_n == ()
    return report


def bootstrap_se(report, draws=400, seed=0):
    """Standard deviation of the log-log OLS slope over resampled repetitions.

    Each draw resamples the repetitions at every n with replacement and fits
    the slope of log mean MSE on log n, as the sweep fits its own slope.
    """
    rng = np.random.default_rng(seed)
    x = np.log(np.asarray(report.n_values, dtype=float))
    x -= x.mean()
    log_means = []
    for n in report.n_values:
        mse = np.array([r.mse for r in report.records if r.n == n])
        log_means.append(np.log(mse[rng.integers(0, mse.size, (draws, mse.size))].mean(axis=1)))
    slopes = np.column_stack(log_means) @ x / (x @ x)
    return float(np.std(slopes, ddof=1))


def rate_gate(report, s):
    """The gate's failed checks, as messages: empty when it passes."""
    slope, theory, se = report.fitted_slope, report.theoretical_slope, bootstrap_se(report)
    r = [mse * n ** (2 * s / (2 * s + 1)) for n, mse in zip(report.n_values,
                                                            report.mean_mse_per_n)]
    failed = []
    if not slope <= theory + 3 * se:
        failed.append("slope %.3f above theory %.3f + 3 SE (SE %.3f)" % (slope, theory, se))
    if not r[-1] / r[0] <= 1.5:
        failed.append("r(%d)/r(%d) = %.2f above 1.5" % (N_GRID[-1], N_GRID[0], r[-1] / r[0]))
    return failed


@pytest.mark.parametrize("truth", ["f1", "f2"])
def test_rule_tuning_reaches_the_rate(truth):
    # measured at seed 1: slope -0.472 (f1) and -0.480 (f2) against -0.474, r ratio 1.01
    assert rate_gate(sweep(truth, 0.45, 20, seed=1), 0.45) == []


def test_the_gate_fails_when_k_and_epsilon_stop_following_n():
    # with K and epsilon frozen at n = 1000 f2's bias stays and the MSE levels
    # off (slope -0.18, r ratio 1.83 at seed 1).  f1 would pass pinned: it is
    # smoother than s = 0.45, and its bias at K = 37 is already below the
    # noise, so its MSE falls like K/n.
    failed = rate_gate(sweep("f2", 0.45, 20, seed=1, pinned=True), 0.45)
    assert any(message.startswith("slope") for message in failed), failed


def predicted_slope(truth, s):
    """-2 min(s, s*)/(2s + 1): the rule's K ~ n^(1/(2s+1)) against a bias
    K^(-2 min(s, s*)) and a variance K/n."""
    return -2 * min(s, ZOO_SMOOTHNESS[truth]) / (2 * s + 1)


def test_a_rule_too_smooth_for_a_jump_misses_the_claimed_rate():
    # the rule at s = 0.8, above f2's s*, claims -2s/(2s+1) = -0.615 but is
    # predicted to reach -0.385 only.  At 10 repetitions the claim's rejection
    # held in 8 of 12 seeds; at 40 in all 12, by 6.5 to 10 SE.
    report = sweep("f2", 0.8, 40, seed=3)
    se = bootstrap_se(report)
    assert ZOO_SMOOTHNESS["f2"] < 0.8
    assert report.fitted_slope > report.theoretical_slope + 3 * se, (report.fitted_slope, se)
    assert report.fitted_slope <= predicted_slope("f2", 0.8) + 3 * se, (report.fitted_slope, se)


def test_a_rule_below_the_truths_smoothness_keeps_the_claimed_rate():
    # where s <= s*, the predicted slope is the claimed -0.615
    report = sweep("f1", 0.8, 20, seed=3)
    se = bootstrap_se(report)
    assert predicted_slope("f1", 0.8) == report.theoretical_slope
    assert report.fitted_slope <= report.theoretical_slope + 3 * se, (report.fitted_slope, se)


def rule_eigensystem(seed, n, truth, m=None):
    """The design of draw_design(seed, n, 0) on the truth's interval, and the
    first m (default: the rule's K) eigenpairs at the rule's epsilon, s = 0.45."""
    low, high = DESIGNS[truth]
    x = draw_design(seed, n, 0, low, high)
    K, eps = rule(truth, 0.45).resolve(n, 1)
    return x, eigensolve(laplacian(build_graph(SampleSet(x[:, None]), eps, KERNEL)), m or K)


def test_the_approximation_half_falls_like_k_to_the_minus_2_s_star():
    # noise-free truths at n = 8000: the log-log slope of |f - P_K f|_n^2,
    # averaged over 4 designs, over K = 8..256.  Measured over seed groups
    # 0-3, 4-7 and 8-11: f1 -1.96, -1.87, -1.94; f2 -1.01, -0.95, -1.08;
    # f3 -1.09, -1.09, -1.04.  One design alone spread from -0.80 to -1.31 on f2.
    K_grid = [8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256]
    errors = {truth: [] for truth in ("f1", "f2", "f3")}
    for seed in range(4):
        for truths in (["f1"], ["f2", "f3"]):  # f2 and f3 share [0, 5] and its graph
            x, eig = rule_eigensystem(seed, 8000, truths[0], m=256)
            for truth in truths:
                f = zoo_function(truth)(x)
                errors[truth].append(np.mean((f - eig.partial_fits(f, K_grid)) ** 2, axis=1))
    for truth, rows in errors.items():
        slope = np.polyfit(np.log(K_grid), np.log(np.mean(rows, axis=0)), 1)[0]
        expected = -2 * min(ZOO_SMOOTHNESS[truth], 1.0)
        assert abs(slope - expected) <= 0.15, (truth, slope, expected)


def test_the_variance_half_is_k_over_n():
    # pure unit noise e on one n = 1000 design per seed: E |P_K e|_n^2 = K/n, and
    # |P_K e|_n^2 is chi-square with K degrees of freedom over n, so the mean of
    # R draws has SE = sqrt(2K) / (n sqrt(R)).  Measured at R = 2000: z from
    # -0.41 to 1.70; projecting K + 1 vectors read 4.75 to 6.67.
    n, R = 1000, 4000
    for seed in range(4):
        x, eig = rule_eigensystem(seed, n, "f2")
        K = eig.m
        assert K == 37
        noise = np.random.default_rng(seed).standard_normal((R, n))
        energy = [np.mean(eig.partial_fits(e, [K])[0] ** 2) for e in noise]
        z = (np.mean(energy) - K / n) / (np.sqrt(2 * K) / (n * np.sqrt(R)))
        assert abs(z) <= 4, (seed, z)


def test_the_rule_at_default_constants_does_not_see_the_design_units():
    # one f2 sweep on [0, 5] and the same on [0, 1] with the truth u -> f2(5u):
    # with c0 = C0 = the design length, K is the same and epsilon scales with it
    config = ExperimentConfig(truth="f2", n_grid=(500, 1000), repetitions=2, seed=4,
                              tuning=rule("f2", 0.45))
    unit_rule = TuningRule(s=0.45, M=M, c0=1.0, C0=1.0)
    unit_mse, library_mse = [], []
    for n in config.n_grid:
        ([K], [eps]), (unit_K, unit_eps) = config.search_grid(n), unit_rule.resolve(n, 1)
        assert K == unit_K and eps == pytest.approx(5.0 * unit_eps, rel=1e-15)
        for rep in range(config.repetitions):
            wide, truth = generate(config, n, rep)
            unit = SampleSet(wide.points / 5.0, wide.responses)  # truth is unit's rescaled truth
            wide_mse = np.mean((fit(wide, K, eps, KERNEL).fitted - truth) ** 2)
            unit_mse.append(np.mean((fit(unit, K, unit_eps, KERNEL).fitted - truth) ** 2))
            assert unit_mse[-1] == pytest.approx(wide_mse, rel=1e-9)  # measured: 2e-13 at most
            # the library's constants c0 = C0 = 1 give [0, 5] the unit interval's
            # bandwidth, which disconnects its graph
            at_library_constants = fit(wide, K, unit_eps, KERNEL)
            assert not at_library_constants.connected
            library_mse.append(np.mean((at_library_constants.fitted - truth) ** 2))
    assert np.mean(library_mse) > 2 * np.mean(unit_mse)  # measured: 1.18 against 0.105
