"""The rate claim as the paper states it: rule tuning over a wide range of n.

The theorem bounds the in-sample MSE of the rule-tuned projection by
C n^(-2s/(2s+d)) from above, so the gate is one-sided.  The fitted log-log
slope of the mean MSE over n may not exceed the theory by more than 3 SE,
where SE is a bootstrap over repetitions.  And r(n) = mean MSE * n^(2s/(2s+1)),
the constant in front of the rate, may not grow by more than half from
n = 1000 to n = 8000.

Each sweep uses the CLI's default window constants c0 = C0 = the design
length.  Every sweep runs on two workers.  On 2 cores (AMD EPYC) the module
takes about 10 s.
"""

import numpy as np
import pytest

from fracreg.estimator import TuningRule, fit
from fracreg.experiments import ExperimentConfig, generate, run_sweep
from fracreg.graph import KernelSpec, SampleSet
from fracreg.sobolev import zoo_function

N_GRID = (1000, 2000, 4000, 8000)
DESIGNS = {"f1": (-1.0, 1.0), "f2": (0.0, 5.0)}  # each truth's study interval
M = 1.0


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
    # f2 has a jump: with K and epsilon frozen at n = 1000 the bias stays and the
    # MSE levels off (slope -0.18, r ratio 1.83 at seed 1).  f1 would pass pinned:
    # it is smoother than s = 0.45, and its bias at K = 37 is already below the
    # noise, so its MSE falls like K/n.
    failed = rate_gate(sweep("f2", 0.45, 20, seed=1, pinned=True), 0.45)
    assert any(message.startswith("slope") for message in failed), failed


def test_a_rule_too_smooth_for_a_jump_misses_the_claimed_rate():
    # the rule at s = 0.8 claims -2s/(2s+1) = -0.615, but f2's jump caps its
    # smoothness at 1/2, which predicts -2(1/2)/(2s+1) = -0.385.  At 10
    # repetitions the rejection held in 8 of 12 seeds; at 40 in all 12,
    # by 6.5 to 10 SE.
    report = sweep("f2", 0.8, 40, seed=3)
    se = bootstrap_se(report)
    assert report.fitted_slope > report.theoretical_slope + 3 * se, (report.fitted_slope, se)


def test_a_rule_below_the_truths_smoothness_keeps_the_claimed_rate():
    # f1 = |x|^(1/2) has smoothness 1 > 0.8, so the claimed slope -0.615 holds
    report = sweep("f1", 0.8, 20, seed=3)
    se = bootstrap_se(report)
    assert report.fitted_slope <= report.theoretical_slope + 3 * se, (report.fitted_slope, se)


def test_the_rule_at_default_constants_does_not_see_the_design_units():
    # one f2 sweep on [0, 5] and the same on [0, 1] with the truth u -> f2(5u):
    # with c0 = C0 = the design length, K is the same and epsilon scales with it
    kernel = KernelSpec("truncated_gaussian", 0.4)
    config = ExperimentConfig(truth="f2", n_grid=(500, 1000), repetitions=2, seed=4,
                              tuning=rule("f2", 0.45))
    unit_rule = TuningRule(s=0.45, M=M, c0=1.0, C0=1.0)
    unit_mse, library_mse = [], []
    for n in config.n_grid:
        ([K], [eps]), (unit_K, unit_eps) = config.search_grid(n), unit_rule.resolve(n, 1)
        assert K == unit_K and eps == pytest.approx(5.0 * unit_eps, rel=1e-15)
        for rep in range(config.repetitions):
            wide = generate(config, n, rep)
            unit = SampleSet(wide.points / 5.0, wide.responses)
            truth = zoo_function("f2")(wide.points[:, 0])  # the rescaled truth on unit too
            wide_mse = np.mean((fit(wide, K, eps, kernel).fitted - truth) ** 2)
            unit_mse.append(np.mean((fit(unit, K, unit_eps, kernel).fitted - truth) ** 2))
            assert unit_mse[-1] == pytest.approx(wide_mse, rel=1e-9)  # measured: 2e-13 at most
            # the library's constants c0 = C0 = 1 give [0, 5] the unit interval's
            # bandwidth, which disconnects its graph
            at_library_constants = fit(wide, K, unit_eps, kernel)
            assert not at_library_constants.connected
            library_mse.append(np.mean((at_library_constants.fitted - truth) ** 2))
    assert np.mean(library_mse) > 2 * np.mean(unit_mse)  # measured: 1.18 against 0.105
