"""Every CSV artifact, byte for byte against csv.writer with format(v, ".17g").

The reference writer below is the per-cell form the shared writer replaces:
floats through format(v, ".17g"), integers through str, text cells as given,
all through csv.writer.  Inputs include the float extremes, numpy scalars,
and text that needs csv quoting.
"""

import contextlib
import csv
import io

import numpy as np
import pytest

from fracreg import cli
from fracreg.csvout import write_csv
from fracreg.estimator import GridSearchResult, RegressionFit
from fracreg.experiments import CurveResult, ExperimentReport, SweepFailure, SweepRecord
from fracreg.graph import SampleSet
from fracreg.sobolev import continuum_seminorm, zoo_function
from fracreg.spectral import EigenSystem

EDGE_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308,
    0.1, 1.0 / 3.0, -2.5e-17, 1e16, 123456789012345678.0, 0.0,
]


def reference_bytes(header, rows, preamble=""):
    buf = io.StringIO(newline="")
    buf.write(preamble)
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode()


def eigen_system(n=5):
    rng = np.random.default_rng(0)
    m = len(EDGE_FLOATS) // 2
    vectors = rng.standard_normal((n, m))
    vectors[0] = EDGE_FLOATS[:m]
    vectors[1] = EDGE_FLOATS[m:2 * m]
    return EigenSystem(values=np.asarray(EDGE_FLOATS[m:2 * m]), vectors=vectors, n=n)


def sample_set(responses=True):
    points = np.column_stack([[-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0],
                              np.linspace(-1.0, 1.0, 5)])
    # responses must be finite: the finite extremes of EDGE_FLOATS
    return SampleSet(points, np.asarray(EDGE_FLOATS[3:8]) if responses else None)


def regression_fit(samples):
    return RegressionFit(
        fitted=np.asarray(EDGE_FLOATS[-5:]), K=np.int64(3), epsilon=np.float64(0.25),
        eig=eigen_system(samples.n), connected=False, component_count=2,
    )


class TestWriter:
    def test_rows_end_in_crlf(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a"], [[1.5], [2.5]], "g")
        assert (tmp_path / "t.csv").read_bytes() == b"a\r\n1.5\r\n2.5\r\n"


class TestArtifacts:
    def test_eigen_csv(self, tmp_path):
        eig = eigen_system()
        eig.save_csv(tmp_path / "eigen.csv")
        header = ["index", "eigenvalue"] + ["v%d" % (i + 1) for i in range(eig.n)]
        rows = [[k + 1, eig.values[k]] + list(eig.vectors[:, k]) for k in range(eig.m)]
        assert (tmp_path / "eigen.csv").read_bytes() == reference_bytes(header, rows)

    @pytest.mark.parametrize("responses", [True, False])
    def test_sample_csv(self, tmp_path, responses):
        s = sample_set(responses)
        s.save_csv(tmp_path / "samples.csv")
        header = ["x1", "x2"] + (["y"] if responses else [])
        rows = [list(s.points[i]) + ([s.responses[i]] if responses else [])
                for i in range(s.n)]
        assert (tmp_path / "samples.csv").read_bytes() == reference_bytes(header, rows)

    @pytest.mark.parametrize("responses", [True, False])
    def test_fit_csv(self, tmp_path, responses):
        s = sample_set(responses)
        res = regression_fit(s)
        meta = {"kernel": "truncated_gaussian", "kernel_h": 0.4, "s": np.float64(1.0 / 3.0),
                "reps": 12}
        res.save_csv(tmp_path / "fit.csv", s, meta)
        preamble = "# K = 3\n# epsilon = 0.25\n# kernel = truncated_gaussian\n" \
                   "# kernel_h = 0.40000000000000002\n# s = 0.33333333333333331\n# reps = 12\n"
        header = ["index", "x1", "x2", "y", "fitted"]
        rows = [[i + 1] + list(s.points[i]) + [s.responses[i] if responses else "",
                                               res.fitted[i]] for i in range(s.n)]
        assert (tmp_path / "fit.csv").read_bytes() == reference_bytes(header, rows, preamble)

    def test_surface_csv(self, tmp_path):
        surface = np.asarray(EDGE_FLOATS).reshape(4, 3)
        k_grid, eps_grid = (np.int64(1), 2, 4, 8), (0.1, np.float64(0.25), 0.5)
        s = sample_set()
        result = GridSearchResult(best_fit=regression_fit(s), best_mse=0.0, K_grid=k_grid,
                                  eps_grid=eps_grid, mse_surface=surface)
        result.save_csv(tmp_path / "surface.csv")
        rows = [[K, eps, surface[i, j]] for i, K in enumerate(k_grid)
                for j, eps in enumerate(eps_grid)]
        assert (tmp_path / "surface.csv").read_bytes() == \
            reference_bytes(["K", "epsilon", "mse"], rows)

    def test_sweep_csvs(self, tmp_path):
        records = tuple(SweepRecord(n=np.int64(500 + i), rep=i, K=np.int64(i + 1),
                                    epsilon=np.float64(0.12), mse=v, connected=True)
                        for i, v in enumerate(EDGE_FLOATS))
        failures = (SweepFailure(n=500, rep=3, message='SolverError: a, "b"\nc'),
                    SweepFailure(n=np.int64(625), rep=0, message="plain"))
        report = ExperimentReport(
            records=records, failures=failures, n_values=(500, np.int64(625), 750),
            mean_mse_per_n=tuple(EDGE_FLOATS[:3]), disconnected_fraction=(0.0,) * 3,
            excluded_n=(), fitted_slope=float("nan"), slope_stderr=float("nan"),
            theoretical_slope=np.float64(-0.4),
        )
        report.write_records_csv(tmp_path / "records.csv")
        report.write_summary_csv(tmp_path / "summary.csv")
        report.write_failures_csv(tmp_path / "failures.csv")
        assert (tmp_path / "records.csv").read_bytes() == reference_bytes(
            ["n", "rep", "K", "epsilon", "mse"],
            [[r.n, r.rep, r.K, r.epsilon, r.mse] for r in records])
        assert (tmp_path / "summary.csv").read_bytes() == reference_bytes(
            ["n", "mean_mse", "fitted_slope", "theoretical_slope"],
            [[n, mean, report.fitted_slope, report.theoretical_slope]
             for n, mean in zip(report.n_values, report.mean_mse_per_n)])
        assert (tmp_path / "failures.csv").read_bytes() == reference_bytes(
            ["n", "rep", "error"], [[f.n, f.rep, f.message] for f in failures])

    def test_curve_csv(self, tmp_path):
        curve = CurveResult(grid=tuple(EDGE_FLOATS), mean_truth=tuple(EDGE_FLOATS[::-1]),
                            mean_fit=tuple(np.asarray(EDGE_FLOATS)), counts=(0,) * 12)
        curve.write_csv(tmp_path / "curve.csv")
        rows = [list(r) for r in zip(curve.grid, curve.mean_truth, curve.mean_fit)]
        assert (tmp_path / "curve.csv").read_bytes() == \
            reference_bytes(["x", "truth", "mean_fit"], rows)

    def test_seminorm_csv(self, tmp_path):
        # s = 0.75 diverges for the jump truth: infinite value and error
        (tmp_path / "cfg.txt").write_text("truth = f2\ns = [0.25, 0.75]\nlevel = 7\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["seminorm", "--config", str(tmp_path / "cfg.txt"),
                             "--out", str(tmp_path)]) == 0
        results = [continuum_seminorm(zoo_function("f2"), s, refinement=7) for s in (0.25, 0.75)]
        assert results[1].diverged
        levels = len(results[0].refinements)
        header = ["s", "value", "diverged", "quadrature_cells", "estimated_error"] \
            + ["refinement_%d" % (4 + i) for i in range(levels)]
        rows = [[r.s, r.value, "true" if r.diverged else "false", r.quadrature_cells,
                 r.estimated_error] + list(r.refinements) for r in results]
        assert (tmp_path / "seminorm.csv").read_bytes() == reference_bytes(header, rows)
