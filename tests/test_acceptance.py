"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The rate-reproduction sweep (criterion 1) dominates the
runtime (24 of 26 s on 2 cores); everything else finishes in seconds.
"""

import math
import os
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from fracreg import cli
from fracreg.estimator import TuningRule, choose_K, fit
from fracreg.experiments import (
    ExperimentConfig,
    eigenvalue_growth_diagnostic,
    run_sweep,
)
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.sobolev import (
    continuum_seminorm,
    piecewise_constant,
    spectral_seminorm,
)
from fracreg.spectral import dirichlet_form, eigensolve, laplacian

KERNEL = KernelSpec("truncated_gaussian")
THREADS = min(4, os.cpu_count() or 1)


def report(number, ok, detail):
    print("ACCEPTANCE %d: %s  (%s)" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def test_criterion_1_rate_reproduction():
    s = 0.45
    theory = -2.0 * s / (2.0 * s + 1.0)
    config = ExperimentConfig(
        truth="f2",
        n_grid=(500, 625, 750, 875, 1000),
        repetitions=200,
        seed=20240501,
        noise_sd=1.0,
        design_low=0.0,
        design_high=5.0,
        kernel=KERNEL,
        k_grid=(1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64),
        eps_grid=(0.12, 0.25, 0.5),
        theory_s=s,
    )
    rep = run_sweep(config, threads=THREADS)
    assert len(rep.records) == 1000 and not rep.failures
    slope = rep.fitted_slope
    ok = slope < 0 and abs(slope - theory) <= 0.35
    # monotone mean MSE in n, allowing one inversion of Monte-Carlo noise
    inversions = sum(
        1 for a, b in zip(rep.mean_mse_per_n, rep.mean_mse_per_n[1:]) if b > a
    )
    ok = ok and inversions <= 1
    report(1, ok, "slope %.4f vs theory %.4f, %d inversions" % (slope, theory, inversions))


def test_criterion_2_interpolation_limit():
    worst = 0.0
    for seed, n in ((0, 50), (1, 200), (2, 500)):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 5, n)
        y = np.sin(x) + rng.standard_normal(n)
        res = fit(SampleSet(x[:, None], y), n, 0.8, KERNEL)
        worst = max(worst, float(np.max(np.abs(res.fitted - y))))
    report(2, worst <= 1e-8, "max interpolation gap %.3e" % worst)


def test_criterion_3_projection_laws():
    rng = np.random.default_rng(7)
    worst_pyth, worst_idem = 0.0, 0.0
    monotone_ok = True
    for _ in range(100):
        n = int(rng.integers(20, 81))
        x = np.sort(rng.uniform(0, 5, n))
        y = np.sin(x) + rng.standard_normal(n)
        eps = float(rng.uniform(0.5, 1.2))
        K = int(rng.integers(0, n + 1))
        samples = SampleSet(x[:, None], y)
        res = fit(samples, K, eps, KERNEL)
        pyth = abs(
            np.mean(y ** 2) - np.mean(res.fitted ** 2) - np.mean((y - res.fitted) ** 2)
        )
        worst_pyth = max(worst_pyth, float(pyth))
        refit = fit(SampleSet(samples.points, res.fitted), K, eps, KERNEL)
        worst_idem = max(worst_idem, float(np.max(np.abs(refit.fitted - res.fitted))))
        eig = eigensolve(laplacian(build_graph(samples, eps, KERNEL)), n)
        coef = eig.coefficients(y)
        fhat = np.zeros(n)
        prev = math.inf
        for k in range(n + 1):
            if k > 0:
                fhat = fhat + coef[k - 1] * eig.vectors[:, k - 1]
            resid = float(np.mean((y - fhat) ** 2))
            monotone_ok = monotone_ok and resid <= prev + 1e-10
            prev = resid
    ok = worst_pyth <= 1e-8 and worst_idem <= 1e-10 and monotone_ok
    report(3, ok, "pythagoras %.2e, idempotence %.2e, monotone %s"
           % (worst_pyth, worst_idem, monotone_ok))


def eigen_clusters(values, gap=1e-8):
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > gap:
            clusters.append(list(range(start, i)))
            start = i
    return clusters


def test_criterion_4_spectral_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst_val, worst_angle, worst_lam1, worst_const = 0.0, 0.0, 0.0, 0.0
    for case in range(20):
        n = int(rng.integers(60, 201))
        dim = int(rng.integers(1, 3))
        pts = rng.uniform(0, 1, (n, dim))
        # spread bandwidths so some graphs come out disconnected
        eps = float(rng.uniform(0.12, 0.5)) if dim == 2 else float(rng.uniform(0.03, 0.2))
        graph = build_graph(SampleSet(pts), eps, KERNEL)
        op = laplacian(graph)
        m = min(25, n - 5)
        dense = eigensolve(op, m, method="dense")
        iterative = eigensolve(op, m, method="iterative")
        worst_val = max(worst_val, float(np.max(np.abs(dense.values - iterative.values))))
        for cluster in eigen_clusters(dense.values):
            ang = subspace_angles(dense.vectors[:, cluster], iterative.vectors[:, cluster])
            worst_angle = max(worst_angle, float(ang.max()))
        for eig in (dense, iterative):
            worst_lam1 = max(worst_lam1, float(eig.values[0]))
            worst_const = max(worst_const, float(np.max(np.abs(eig.vectors[:, 0] - 1.0))))
    ok = (worst_val <= 1e-8 and worst_angle <= 1e-6
          and worst_lam1 <= 1e-8 and worst_const <= 1e-8)
    report(4, ok, "values %.2e, angle %.2e, lambda1 %.2e, v1-const %.2e"
           % (worst_val, worst_angle, worst_lam1, worst_const))


def test_criterion_5_seminorm_identity_at_one():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(40, 151))
        x = np.sort(rng.uniform(0, 5, n))
        eps = float(rng.uniform(0.4, 1.0))
        samples = SampleSet(x[:, None])
        op = laplacian(build_graph(samples, eps, KERNEL))
        eig = eigensolve(op, n)
        f = np.sin(x) + np.where(x > 2.5, 1.0, 0.0) + 0.3 * rng.standard_normal(n)
        gap = abs(spectral_seminorm(eig, f, 1.0) - dirichlet_form(op, f))
        worst = max(worst, float(gap))
    report(5, worst <= 1e-8, "worst |spectral - dirichlet| = %.3e" % worst)


def test_criterion_6_membership_thresholds():
    step = piecewise_constant([0.0, 0.5, 1.0], [1.0, 0.0])
    converged = {s: continuum_seminorm(step, s) for s in (0.1, 0.25, 0.4)}
    diverged = {s: continuum_seminorm(step, s) for s in (0.6, 0.75, 0.9)}
    ok = all(not r.diverged for r in converged.values())
    ok = ok and all(r.diverged for r in diverged.values())
    analytic = 8.0 * (math.sqrt(2.0) - 1.0)
    rel = abs(converged[0.25].value - analytic) / analytic
    ok = ok and rel <= 0.01
    report(6, ok, "converged %s, diverged %s, s=0.25 rel err %.2e"
           % (sorted(converged), sorted(diverged), rel))


def test_criterion_7_eigenvalue_growth():
    config = ExperimentConfig(
        truth="f2", n_grid=(1000,), repetitions=1, seed=20240501, kernel=KERNEL,
        tuning=TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0),
    )
    diag = eigenvalue_growth_diagnostic(config, 1000, 400)
    lam = np.asarray(diag.eigenvalues)
    exponent_ok = not math.isnan(diag.exponent) and 1.6 <= diag.exponent <= 2.4
    # plateau beyond the cap: the top of the computed spectrum sits at a
    # bounded multiple of eps^-2 and has stopped quadratic growth
    cap_ok = diag.cap_constant <= 1.0
    flattening = float(lam[-1] / lam[len(lam) // 2 - 1])
    plateau_ok = cap_ok and flattening <= 2.5
    report(7, exponent_ok and plateau_ok,
           "exponent %.3f in [1.6,2.4], cap constant %.3f, flattening %.2f"
           % (diag.exponent, diag.cap_constant, flattening))


def exact_choose_k(M2: Fraction, n: int, s: Fraction, d: int) -> int:
    """Arbitrary-precision floor((M^2 n)^(d/(2s+d))), pure integer arithmetic."""
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


def test_criterion_8_tuning_formula_table():
    Ms = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1),
          Fraction(3, 2), Fraction(5), Fraction(20)]
    ss = [Fraction(1, 10), Fraction(1, 4), Fraction(9, 20), Fraction(1, 2),
          Fraction(3, 4), Fraction(9, 10)]
    ns = [2, 17, 100, 537, 1000, 4096, 250000]
    ds = [1, 2, 3]
    combos = list(product(Ms, ss, ns, ds))
    table = combos[:: max(1, len(combos) // 50)][:50]
    assert len(table) == 50
    mismatches = []
    for M, s, n, d in table:
        rule = TuningRule(s=float(s), M=float(M))
        if choose_K(rule, n, d) != exact_choose_k(M * M, n, s, d):
            mismatches.append((float(M), float(s), n, d))
    report(8, not mismatches, "%d/50 exact matches" % (50 - len(mismatches)))


def test_criterion_9_determinism(tmp_path):
    config_text = """\
truth = f2
n_grid = [60, 90, 135]
repetitions = 3
seed = 424242
noise_sd = 1.0
grids.k = [1, 4, 8, 16, 32]
grids.eps = [0.4, 0.8]
theory_s = 0.45
"""
    cfg = tmp_path / "sweep.txt"
    cfg.write_text(config_text)
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert cli.main(["sweep", "--config", str(cfg), "--out", out1, "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", out2, "--threads", "2"]) == 0
    identical = True
    for name in ("records.csv", "summary.csv", "config_echo.txt"):
        a = Path(os.path.join(out1, name)).read_bytes()
        b = Path(os.path.join(out2, name)).read_bytes()
        identical = identical and a == b
    report(9, identical, "records.csv, summary.csv, config_echo.txt byte-identical")
