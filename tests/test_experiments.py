import math

import numpy as np
import pytest

from fracreg import cli, estimator, experiments, spectral
from fracreg.errors import InvalidInputError, SolverError, TuningError
from fracreg.estimator import TuningRule, fit, grid_search
from fracreg.experiments import (
    ExperimentConfig,
    _sweep_job,
    eigenvalue_growth_diagnostic,
    generate,
    run_sweep,
)
from fracreg.graph import KernelSpec
from fracreg.sobolev import zoo_function

KERNEL = KernelSpec("truncated_gaussian")


def grid_config(**overrides):
    base = dict(
        truth="f2", n_grid=(40, 60), repetitions=2, seed=11, noise_sd=1.0,
        kernel=KERNEL, k_grid=(1, 4, 8, 16), eps_grid=(0.5, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_n_grid_strictly_increasing(self):
        with pytest.raises(InvalidInputError):
            grid_config(n_grid=(60, 40))

    def test_n_grid_minimum(self):
        with pytest.raises(InvalidInputError):
            grid_config(n_grid=(1, 40))

    def test_repetitions_positive(self):
        with pytest.raises(InvalidInputError):
            grid_config(repetitions=0)

    def test_rule_and_grids_exclusive(self):
        with pytest.raises(InvalidInputError):
            grid_config(tuning=TuningRule(s=0.5, M=1.0))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(truth="f2", n_grid=(40,), repetitions=1, seed=0)

    def test_unknown_truth(self):
        with pytest.raises(InvalidInputError):
            grid_config(truth="f7")

    def test_design_outside_truth_domain_rejected(self):
        # f1 lives on (-1, 1); the default design [0, 5] would fail every job
        with pytest.raises(InvalidInputError, match="domain"):
            grid_config(truth="f1")
        with pytest.raises(InvalidInputError, match="domain"):
            grid_config(design_low=-0.5)

    def test_design_may_share_domain_endpoints(self):
        cfg = grid_config(truth="f1", design_low=-1.0, design_high=1.0)
        assert (cfg.design_low, cfg.design_high) == (-1.0, 1.0)

    def test_theory_s_only_with_grids(self):
        # a rule reports its own s, so a second one would be echoed and ignored
        rule = TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0)
        with pytest.raises(InvalidInputError, match="theory_s"):
            grid_config(k_grid=None, eps_grid=None, tuning=rule, theory_s=0.2)
        assert grid_config(theory_s=0.2).theory_s == 0.2


class TestSearchGrid:
    def test_grid_tuning_keeps_the_k_entries_up_to_n(self):
        cfg = grid_config(n_grid=(8, 40), k_grid=(1, 4, 8, 16, 64), eps_grid=(1.0, 0.5))
        assert cfg.search_grid(8) == ([1, 4, 8], [1.0, 0.5])
        assert cfg.search_grid(40) == ([1, 4, 8, 16], [1.0, 0.5])

    def test_rule_tuning_is_its_one_cell(self):
        rule = TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0)
        cfg = grid_config(n_grid=(100, 200), k_grid=None, eps_grid=None, tuning=rule)
        for n in (100, 200):
            K, eps = rule.resolve(n, 1)
            assert cfg.search_grid(n) == ([K], [eps])

    def test_k_grid_without_an_entry_at_some_n_rejected(self):
        with pytest.raises(InvalidInputError, match="n = 10"):
            grid_config(n_grid=(10, 20), k_grid=(16, 64))
        with pytest.raises(InvalidInputError, match="n = 10"):
            grid_config(n_grid=(10, 20), k_grid=(64,))

    @pytest.mark.parametrize("grids", [dict(eps_grid=(0.0,)), dict(eps_grid=(-0.5, 0.5)),
                                       dict(k_grid=(-1, 4))])
    def test_negative_k_or_nonpositive_eps_rejected(self, grids):
        with pytest.raises(InvalidInputError, match="k_grid entries"):
            grid_config(**grids)

    def test_k_zero_is_a_grid_entry(self):
        assert grid_config(k_grid=(0, 4)).search_grid(40)[0] == [0, 4]

    def test_empty_rule_window_rejected(self):
        # the window is empty at every n, so the first n of the grid fails
        rule = TuningRule(s=0.45, M=1.0, c0=50.0, C0=1.0)
        with pytest.raises(TuningError, match="empty bandwidth window"):
            grid_config(n_grid=(100, 200), k_grid=None, eps_grid=None, tuning=rule)


class TestGenerate:
    def test_determinism_bit_identical(self):
        cfg = grid_config()
        (a, a_truth), (b, b_truth) = generate(cfg, 50, 3), generate(cfg, 50, 3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a_truth, b_truth)

    def test_streams_differ_across_reps_and_n(self):
        cfg = grid_config()
        a, _ = generate(cfg, 50, 0)
        b, _ = generate(cfg, 50, 1)
        c, _ = generate(cfg, 52, 0)
        assert not np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points[:50])

    def test_truth_is_the_truth_at_the_design(self):
        s, truth = generate(grid_config(), 80, 0)
        np.testing.assert_array_equal(truth, zoo_function("f2")(s.points[:, 0]))

    def test_noiseless_responses_equal_truth(self):
        s, truth = generate(grid_config(noise_sd=0.0), 80, 0)
        np.testing.assert_array_equal(s.responses, truth)

    def test_uniform_design_moments(self):
        cfg = grid_config()
        s, _ = generate(cfg, 100000, 0)
        x = s.points[:, 0]
        assert abs(x.mean() - 2.5) < 0.02
        assert abs(x.var() - 25.0 / 12.0) < 0.05


class TestRunSweep:
    def test_noiseless_full_rank_zero_mse(self):
        cfg = grid_config(noise_sd=0.0, k_grid=(40,), eps_grid=(1.0,))
        report = run_sweep(cfg)
        assert len(report.records) == 4
        for r in report.records:
            if r.n == 40:  # K = n: interpolation up to round-off
                assert r.mse <= 1e-20

    def test_two_point_slope_is_difference_quotient(self):
        # eps large enough that both graphs stay connected, so neither n is
        # dropped by the disconnection exclusion rule
        cfg = grid_config(n_grid=(40, 80), repetitions=1, eps_grid=(1.2,))
        report = run_sweep(cfg)
        assert report.excluded_n == ()
        m1, m2 = report.mean_mse_per_n
        expect = (math.log(m2) - math.log(m1)) / (math.log(80) - math.log(40))
        assert report.fitted_slope == pytest.approx(expect, rel=1e-12)
        assert math.isnan(report.slope_stderr)

    def test_determinism_and_thread_invariance(self):
        cfg = grid_config()
        a = run_sweep(cfg, threads=1)
        b = run_sweep(cfg, threads=2)
        assert a == b

    def test_pool_is_sized_by_the_job_count(self, monkeypatch):
        sizes, chunks, submitted = [], [], []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                jobs = list(zip(*iterables))
                submitted.extend((n, rep) for _, n, rep in jobs)
                return [fn(*job) for job in jobs]

        cfg = grid_config(n_grid=(40,), repetitions=2)
        serial = run_sweep(cfg, threads=1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        assert run_sweep(cfg, threads=64) == serial
        assert sizes == [2]
        # largest n first, one job per task; the report is sorted regardless
        cfg = grid_config(n_grid=(40, 50, 60), repetitions=2)
        assert run_sweep(cfg, threads=2) == run_sweep(cfg, threads=1)
        assert chunks == [1, 1]
        assert submitted[2:] == [(60, 0), (60, 1), (50, 0), (50, 1), (40, 0), (40, 1)]

    def test_thread_invariance_at_blas_threaded_sizes(self):
        # dense eigh at n = 400 and the banded factor at n = 600 are large
        # enough for BLAS to thread at the library default
        cfg = grid_config(n_grid=(400, 600), repetitions=1, eps_grid=(0.12, 0.5),
                          k_grid=(4, 16, 32))
        assert run_sweep(cfg, threads=1) == run_sweep(cfg, threads=2)

    def test_jobs_run_at_one_blas_thread(self, blas_threads, monkeypatch):
        seen = []
        real_fix_signs = spectral._fix_signs

        def spying(vectors):  # inside every eigensolve
            seen.append(blas_threads.counts())
            return real_fix_signs(vectors)

        monkeypatch.setattr(spectral, "_fix_signs", spying)
        blas_threads.set(2)
        run_sweep(grid_config())
        assert seen and all(counts == {1} for counts in seen)
        assert blas_threads.counts() == {2}

    def test_rule_tuning_path(self):
        cfg = ExperimentConfig(
            truth="f2", n_grid=(100, 150), repetitions=2, seed=5, kernel=KERNEL,
            tuning=TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0),
        )
        report = run_sweep(cfg)
        assert len(report.records) == 4
        assert report.theoretical_slope == pytest.approx(-0.9 / 1.9)
        for r in report.records:
            assert r.K >= 1 and r.epsilon > 0

    def test_disconnected_smallest_n_excluded_from_slope(self):
        # at eps = 0.2 the n = 40 design on [0, 5] fragments, so the smallest
        # n must be dropped from the log-log fit
        cfg = grid_config(n_grid=(40, 150, 300), repetitions=2, eps_grid=(0.2,),
                          k_grid=(1, 4, 8))
        report = run_sweep(cfg)
        at_40 = [r for r in report.records if r.n == 40]
        assert sum(not r.connected for r in at_40) > 0.1 * len(at_40)
        assert report.excluded_n == (40,)
        assert math.isfinite(report.fitted_slope)

    def test_failures_recorded_and_excluded(self, monkeypatch):
        def failing(*args):
            raise SolverError("no convergence", worst_residual=1.0)

        monkeypatch.setattr(experiments, "grid_search", failing)
        report = run_sweep(grid_config())
        assert len(report.records) == 0
        assert len(report.failures) == 4
        assert report.n_values == () and report.mean_mse_per_n == ()
        assert math.isnan(report.fitted_slope)
        assert report.failures[0].message == "SolverError: no convergence"

    def test_noiseless_mse_equals_bias(self):
        from fracreg.estimator import fit
        cfg = grid_config(noise_sd=0.0, k_grid=(6,), eps_grid=(0.8,), n_grid=(50, 60))
        report = run_sweep(cfg)
        samples, truth = generate(cfg, 50, 0)
        projected = fit(samples, 6, 0.8, KERNEL).eig.partial_fits(truth, [6])[0]
        bias_sq = np.mean((truth - projected) ** 2)
        rec = next(r for r in report.records if r.n == 50 and r.rep == 0)
        assert rec.mse == bias_sq

    def test_grid_tuned_record_is_the_searched_score(self):
        # default grids: each record carries the search's own best_mse, which
        # is the score of the very fit the search keeps
        cfg = grid_config(n_grid=(500, 750, 1000), repetitions=5, seed=3,
                          k_grid=(1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64),
                          eps_grid=(0.12, 0.25, 0.5))
        report = run_sweep(cfg, threads=2)
        assert len(report.records) == 15
        for r in report.records:
            samples, truth = generate(cfg, r.n, r.rep)
            search = grid_search(samples, cfg.k_grid, cfg.eps_grid, KERNEL, truth)
            assert (r.K, r.epsilon, r.mse) == (search.best_fit.K, search.best_fit.epsilon,
                                               search.best_mse)
            assert search.best_mse == float(np.mean((search.best_fit.fitted - truth) ** 2))

    def test_csv_schemas(self, tmp_path):
        cfg = grid_config()
        report = run_sweep(cfg)
        rec_path, sum_path = tmp_path / "records.csv", tmp_path / "summary.csv"
        report.write_records_csv(rec_path)
        report.write_summary_csv(sum_path)
        rec_lines = rec_path.read_text().strip().splitlines()
        assert rec_lines[0] == "n,rep,K,epsilon,mse"
        assert len(rec_lines) == 1 + len(report.records)
        sum_lines = sum_path.read_text().strip().splitlines()
        assert sum_lines[0] == "n,mean_mse,fitted_slope,theoretical_slope"


class TestRetry:
    def test_coding_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not bad luck")

        monkeypatch.setattr(experiments, "grid_search", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_sweep(grid_config())

    def test_solver_error_recorded_after_retry_stream(self, monkeypatch, tmp_path):
        drawn = []
        real_generate, real_grid_search = experiments.generate, experiments.grid_search

        def recording_generate(config, n, rep_index):
            drawn.append((n, rep_index))
            return real_generate(config, n, rep_index)

        def failing_for_40_0(samples, *args):
            if samples.n == 40 and drawn[-1][1] in (0, experiments._RETRY_OFFSET):
                raise SolverError("no convergence", worst_residual=1.0)
            return real_grid_search(samples, *args)

        monkeypatch.setattr(experiments, "generate", recording_generate)
        monkeypatch.setattr(experiments, "grid_search", failing_for_40_0)
        report = run_sweep(grid_config())
        assert (40, experiments._RETRY_OFFSET) in drawn
        assert len(report.records) == 3
        path = tmp_path / "failures.csv"
        report.write_failures_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["n,rep,error", "40,0,SolverError: no convergence"]


class TestGridTunedJob:
    def test_one_graph_and_eigensolve_per_bandwidth(self, monkeypatch):
        calls = {"build_graph": 0, "eigensolve": 0}

        def counting(name):
            real = getattr(estimator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(estimator, name, counting(name))
        cfg = grid_config(eps_grid=(0.5, 0.8, 1.0))
        record, points = _sweep_job(cfg, 60, 0)
        assert isinstance(record, experiments.SweepRecord) and len(points[0]) == 60
        assert calls == {"build_graph": 3, "eigensolve": 3}

    # dense, then iterative eigensolve; eps_grid None tunes by the rule, a
    # one-cell grid search that solves for as many pairs as the standalone fit
    @pytest.mark.parametrize("n, eps_grid", [(60, (0.5, 1.0)), (600, (0.12, 0.25, 0.5)),
                                             (60, None), (600, None)])
    def test_fit_equals_standalone_fit(self, n, eps_grid, monkeypatch):
        if eps_grid is None:
            cfg = grid_config(n_grid=(n,), k_grid=None, eps_grid=None,
                              tuning=TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0))
        else:
            cfg = grid_config(n_grid=(n,), eps_grid=eps_grid, k_grid=(1, 4, 8, 16, 32))
        samples, truth = generate(cfg, n, 0)
        searches = []
        monkeypatch.setattr(experiments, "grid_search",
                            lambda *args: searches.append(grid_search(*args)) or searches[-1])
        record, (x, job_truth, fitted) = _sweep_job(cfg, n, 0)
        assert len(searches) == 1
        res, mse = searches[0].best_fit, record.mse
        assert (record.K, record.epsilon, record.connected) == (res.K, res.epsilon, res.connected)
        np.testing.assert_array_equal(x, samples.points[:, 0])
        np.testing.assert_array_equal(job_truth, truth)
        np.testing.assert_array_equal(fitted, res.fitted)
        alone = fit(samples, res.K, res.epsilon, KERNEL)
        assert (res.K, res.epsilon) == (alone.K, alone.epsilon)
        assert (res.connected, res.component_count) == (alone.connected, alone.component_count)
        if eps_grid is None:
            assert (res.K, res.epsilon) == cfg.tuning.resolve(n, 1)
            np.testing.assert_array_equal(res.fitted, alone.fitted)
        else:
            np.testing.assert_allclose(res.fitted, alone.fitted, rtol=0, atol=1e-10)
        assert mse == float(np.mean((res.fitted - truth) ** 2))


class TestGrowthDiagnostic:
    def _config(self):
        return ExperimentConfig(
            truth="f2", n_grid=(1000,), repetitions=1, seed=17, kernel=KERNEL,
            tuning=TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0),
        )

    def test_insufficient_range(self):
        diag = eigenvalue_growth_diagnostic(self._config(), 200, 2)
        assert math.isnan(diag.exponent)

    def test_small_smoke(self):
        diag = eigenvalue_growth_diagnostic(self._config(), 300, 60)
        assert math.isfinite(diag.exponent)
        assert diag.cap_constant > 0

    def test_m_bounds(self):
        with pytest.raises(InvalidInputError):
            eigenvalue_growth_diagnostic(self._config(), 100, 200)

    def test_bandwidth_is_the_middle_of_the_search(self):
        assert eigenvalue_growth_diagnostic(self._config(), 300, 4).epsilon == \
            self._config().tuning.resolve(300, 1)[1]
        cfg = grid_config(n_grid=(300,), eps_grid=(1.0, 0.25, 0.5, 2.0))
        assert eigenvalue_growth_diagnostic(cfg, 300, 4).epsilon == 1.0


def refit_curve(config, n, grid, streams=None):
    """The curve as a second pass of fits, one per repetition at n, as an oracle.

    streams lists the repetition indices to draw from, in order (default:
    every repetition's first stream).
    """
    grid = np.asarray(sorted(float(g) for g in grid))
    sum_fit, sum_truth = np.zeros(grid.size), np.zeros(grid.size)
    counts = np.zeros(grid.size, dtype=int)
    for rep_index in range(config.repetitions) if streams is None else streams:
        samples, truth_values = generate(config, n, rep_index)
        x = samples.points[:, 0]
        res = grid_search(samples, *config.search_grid(n), config.kernel,
                          truth_values).best_fit
        idx = np.clip(np.searchsorted(grid, x), 0, grid.size - 1)
        left = np.clip(idx - 1, 0, grid.size - 1)
        nearer_left = np.abs(x - grid[left]) <= np.abs(grid[idx] - x)
        bucket = np.where(nearer_left, left, idx)
        np.add.at(sum_fit, bucket, res.fitted)
        np.add.at(sum_truth, bucket, truth_values)
        np.add.at(counts, bucket, 1)
    with np.errstate(invalid="ignore"):
        mean_fit = np.where(counts > 0, sum_fit / np.maximum(counts, 1), math.nan)
        mean_truth = np.where(counts > 0, sum_truth / np.maximum(counts, 1), math.nan)
    return experiments.CurveResult(grid=tuple(grid), mean_truth=tuple(mean_truth),
                                   mean_fit=tuple(mean_fit),
                                   counts=tuple(int(c) for c in counts))


def fail_on_streams(monkeypatch, *streams):
    """Make the sweep's fits raise a SolverError on the given (n, rep_index) streams.

    Returns the list of streams the sweep draws.  refit_curve calls the real
    generate and grid_search, imported above.
    """
    drawn = []
    real_generate, real_grid_search = experiments.generate, experiments.grid_search

    def recording_generate(config, n, rep_index):
        drawn.append((n, rep_index))
        return real_generate(config, n, rep_index)

    def failing(*args):
        if drawn[-1] in streams:
            raise SolverError("no convergence", worst_residual=1.0)
        return real_grid_search(*args)

    monkeypatch.setattr(experiments, "generate", recording_generate)
    monkeypatch.setattr(experiments, "grid_search", failing)
    return drawn


def write_config(tmp_path, extra):
    """grid_config() as CLI config text, plus extra lines."""
    text = ("truth = f2\nn_grid = [40, 60]\nrepetitions = 2\nseed = 11\nnoise_sd = 1.0\n"
            "grids.k = [1, 4, 8, 16]\ngrids.eps = [0.5, 1.0]\n") + extra
    path = tmp_path / "sweep.txt"
    path.write_text(text)
    return str(path)


def mean_fit_curve(config, n, grid, threads=1):
    return run_sweep(config, threads=threads, curve=(n, grid)).curve


def curve_bytes(curve, path):
    curve.write_csv(path)
    return path.read_bytes()


class TestMeanFitCurve:
    def test_noiseless_full_rank_matches_truth(self):
        cfg = grid_config(noise_sd=0.0, k_grid=(60,), eps_grid=(1.0,),
                          n_grid=(60,), repetitions=3)
        grid = np.linspace(0.2, 4.8, 12)
        curve = mean_fit_curve(cfg, 60, grid)
        mt = np.asarray(curve.mean_truth)
        mf = np.asarray(curve.mean_fit)
        filled = np.asarray(curve.counts) > 0
        assert filled.all()
        np.testing.assert_allclose(mf[filled], mt[filled], atol=1e-9)

    def test_empty_bucket_flagged_not_interpolated(self):
        cfg = grid_config(n_grid=(40, 60), repetitions=1)
        # -10 is nearer to nothing: every design point maps to the other two
        curve = mean_fit_curve(cfg, 40, [-10.0, 2.0, 3.0])
        assert curve.counts[0] == 0
        assert math.isnan(curve.mean_fit[0])
        assert math.isnan(curve.mean_truth[0])
        assert curve.counts[1] > 0

    def test_csv_output(self, tmp_path):
        cfg = grid_config(repetitions=1)
        curve = mean_fit_curve(cfg, 40, np.linspace(0.5, 4.5, 5))
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,truth,mean_fit"
        assert len(lines) == 6

    def test_blocks_curve_tracks_truth_away_from_jumps(self):
        cfg = ExperimentConfig(
            truth="f2", n_grid=(1000,), repetitions=20, seed=4, kernel=KERNEL,
            k_grid=(4, 8, 11, 16, 23, 32, 45, 64), eps_grid=(0.12, 0.25),
        )
        grid = np.linspace(0.05, 4.95, 50)
        curve = mean_fit_curve(cfg, 1000, grid)
        f2 = zoo_function("f2")
        jumps = (1.0, 2.0, 3.0)
        for x, fit_val in zip(curve.grid, curve.mean_fit):
            if min(abs(x - j) for j in jumps) <= 0.2:
                continue
            assert abs(fit_val - f2(x)) <= 0.25

    # the curve's n largest, smallest with a larger n after it, and above DENSE_LIMIT
    @pytest.mark.parametrize("overrides, n", [
        (dict(repetitions=3), 60),
        (dict(repetitions=3), 40),
        (dict(n_grid=(450, 500), repetitions=2, eps_grid=(0.12, 0.5), k_grid=(4, 16)), 450),
    ])
    def test_curve_is_byte_identical_to_a_second_pass_of_fits(self, tmp_path, overrides, n):
        cfg = grid_config(**overrides)
        grid = np.linspace(0.2, 4.8, 9)
        expect = curve_bytes(refit_curve(cfg, n, grid), tmp_path / "oracle.csv")
        for threads in (1, 2):
            curve = mean_fit_curve(cfg, n, grid, threads=threads)
            assert curve_bytes(curve, tmp_path / ("%d.csv" % threads)) == expect

    def test_curve_n_must_be_swept(self, monkeypatch):
        monkeypatch.setattr(experiments, "_sweep_job", None)  # no job may start
        with pytest.raises(InvalidInputError, match="n_grid"):
            mean_fit_curve(grid_config(), 50, [1.0, 2.0])

    def test_one_grid_search_per_job_with_or_without_a_curve(self, monkeypatch, tmp_path):
        calls = []
        real = experiments.grid_search

        def counting(samples, *args, **kwargs):
            calls.append(samples.n)
            return real(samples, *args, **kwargs)

        monkeypatch.setattr(experiments, "grid_search", counting)
        config = write_config(tmp_path, "")
        for extra in ([], ["--set", "curve.points = 5"]):
            calls.clear()
            assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "o"),
                             "--threads", "1"] + extra) == 0
            assert sorted(calls) == [40, 40, 60, 60]

    def test_retried_repetition_enters_the_curve(self, monkeypatch, tmp_path):
        # rep 0 at the curve's n fails on its first stream only
        drawn = fail_on_streams(monkeypatch, (60, 0))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", write_config(tmp_path, "curve.points = 6\n"),
                         "--out", str(out), "--threads", "1"]) == 0
        assert (60, experiments._RETRY_OFFSET) in drawn
        assert not (out / "failures.csv").exists()
        oracle = refit_curve(grid_config(), 60, np.linspace(0.0, 5.0, 8)[1:-1],
                             streams=[experiments._RETRY_OFFSET, 1])
        assert (out / "curve.csv").read_bytes() == curve_bytes(oracle, tmp_path / "oracle.csv")

    def test_repetition_failed_on_both_streams_is_left_out(self, monkeypatch, tmp_path):
        fail_on_streams(monkeypatch, (60, 0), (60, experiments._RETRY_OFFSET))
        grid = np.linspace(0.5, 4.5, 5)
        curve = mean_fit_curve(grid_config(), 60, grid)
        oracle = refit_curve(grid_config(), 60, grid, streams=[1])
        assert sum(curve.counts) == 60
        assert curve_bytes(curve, tmp_path / "c.csv") == curve_bytes(oracle, tmp_path / "o.csv")
