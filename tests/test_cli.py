import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fracreg
from fracreg import cli
from fracreg import config as cfgmod
from fracreg import experiments, spectral
from fracreg.errors import SolverError
from fracreg.estimator import TuningRule
from fracreg.graph import KernelSpec, SampleSet, build_graph
from fracreg.sobolev import zoo
from fracreg.spectral import DENSE_LIMIT, _kernel_basis, eigensolve, laplacian

SWEEP_CONFIG = """\
truth = f2
n_grid = [40, 60]
repetitions = 2
seed = 11
noise_sd = 1.0
grids.k = [1, 4, 8, 16]
grids.eps = [0.5, 1.0]
theory_s = 0.45
"""


def run_cli(*argv):
    return cli.main(list(argv))


def write(path, text):
    path.write_text(text)
    return str(path)


class TestConfigFormat:
    def test_scalars_and_lists(self):
        entries = cfgmod.parse_text(
            'a = 3\nb = 2.5\nc = hello\nd = "two words"\ne = true\nf = [1, 2.5, -3]\n'
        )
        values = {k: v.value for k, v in entries.items()}
        assert values == {"a": 3, "b": 2.5, "c": "hello", "d": "two words",
                          "e": True, "f": [1, 2.5, -3]}

    def test_comments_and_blank_lines(self):
        entries = cfgmod.parse_text("# full line\n\nkey = 1  # trailing\n")
        assert entries["key"].value == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.parse_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(cfgmod.ConfigError) as err:
            cfgmod.parse_text("just a line\n")
        assert err.value.line == 1

    def test_round_trip_identity(self):
        values = {k: v.value for k, v in cfgmod.parse_text(SWEEP_CONFIG).items()}
        text = cfgmod.serialize(values)
        again = {k: v.value for k, v in cfgmod.parse_text(text).items()}
        assert values == again
        # a second round trip is byte-stable
        assert cfgmod.serialize(again) == text

    def test_overrides(self):
        entries = cfgmod.parse_text("seed = 1\n")
        out = cfgmod.apply_overrides(entries, ["seed = 99", "extra = [1, 2]"])
        assert out["seed"].value == 99
        assert out["extra"].value == [1, 2]

    def test_bad_override_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.apply_overrides({}, ["notakeyvalue"])


class TestSweepCommand:
    def test_outputs_and_echo_rerun(self, tmp_path):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_cli("sweep", "--config", cfg, "--out", out1, "--threads", "1") == 0
        for name in ("records.csv", "summary.csv", "config_echo.txt"):
            assert os.path.exists(os.path.join(out1, name))
        echo = os.path.join(out1, "config_echo.txt")
        assert run_cli("sweep", "--config", echo, "--out", out2, "--threads", "2") == 0
        for name in ("records.csv", "summary.csv", "config_echo.txt"):
            a = Path(os.path.join(out1, name)).read_bytes()
            b = Path(os.path.join(out2, name)).read_bytes()
            assert a == b, "%s differs between a run and its echo re-run" % name

    def test_curve_output_when_requested(self, tmp_path):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG + "curve.points = 8\ncurve.n = 60\n")
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--threads", "1") == 0
        lines = Path(os.path.join(out, "curve.csv")).read_text().splitlines()
        assert lines[0] == "x,truth,mean_fit"
        assert len(lines) == 9

    def test_curve_n_without_curve_points_is_input_error(self, tmp_path, monkeypatch):
        def forbidden(config, threads=1):
            raise AssertionError("sweep run")

        monkeypatch.setattr(experiments, "run_sweep", forbidden)
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG + "curve.n = 80\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", "1") == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert record["code"].value == 2 and "curve.n" in record["message"].value
        assert not (out / "config_echo.txt").exists()

    def test_curve_n_outside_n_grid_is_input_error(self, tmp_path, monkeypatch):
        def forbidden(config, threads=1, curve=None):
            raise AssertionError("sweep run")

        monkeypatch.setattr(experiments, "run_sweep", forbidden)
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG + "curve.points = 8\ncurve.n = 50\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", "1") == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert record["code"].value == 2 and "curve.n" in record["message"].value
        assert sorted(os.listdir(out)) == ["error.txt"]

    def test_minimal_config_applies_documented_defaults(self, tmp_path):
        cfg = write(tmp_path / "min.txt", "truth = f2\n")
        out = str(tmp_path / "o")
        # shrink the workload; everything else comes from the defaults
        assert run_cli("sweep", "--config", cfg, "--out", out, "--threads", "1",
                       "--set", "n_grid = [40, 60]", "--set", "repetitions = 1",
                       "--set", "grids.k = [1, 4]", "--set", "grids.eps = [0.5]") == 0
        entries = cfgmod.parse_text(Path(os.path.join(out, "config_echo.txt")).read_text())
        values = {k: v.value for k, v in entries.items()}
        assert values["seed"] == 0
        assert values["noise_sd"] == 1.0
        assert values["design.low"] == 0.0 and values["design.high"] == 5.0
        assert values["kernel.family"] == "truncated_gaussian"

    def test_set_override_changes_echo(self, tmp_path):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out,
                       "--set", "seed = 77", "--threads", "1") == 0
        entries = cfgmod.parse_text(Path(os.path.join(out, "config_echo.txt")).read_text())
        assert entries["seed"].value == 77

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out,
                       "--seed", "123", "--threads", "1") == 0
        entries = cfgmod.parse_text(Path(os.path.join(out, "config_echo.txt")).read_text())
        assert entries["seed"].value == 123

    def test_invalid_s_names_key(self, tmp_path, capsys):
        bad = SWEEP_CONFIG.replace("theory_s = 0.45", "theory_s = 1.5")
        cfg = write(tmp_path / "bad.txt", bad)
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        message = capsys.readouterr().err
        assert "theory_s" in message and "(0,1)" in message
        record = Path(os.path.join(out, "error.txt")).read_text()
        assert "code = 2" in record and "kind = input" in record

    def test_design_outside_truth_domain_is_input_error(self, tmp_path):
        # f1 lives on (-1, 1) and the default design is [0, 5]
        cfg = write(tmp_path / "bad.txt", SWEEP_CONFIG.replace("truth = f2", "truth = f1"))
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--threads", "1") == 2
        record = Path(os.path.join(out, "error.txt")).read_text()
        assert "kind = input" in record and "domain" in record
        assert not os.path.exists(os.path.join(out, "records.csv"))

    def test_zero_records_exits_solver(self, tmp_path, monkeypatch):
        def failing(*args):
            raise SolverError("no convergence", worst_residual=1.0)

        monkeypatch.setattr(experiments, "grid_search", failing)
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG.replace("repetitions = 2",
                                                                "repetitions = 1"))
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--threads", "1") == 4
        record = Path(os.path.join(out, "error.txt")).read_text()
        assert "code = 4" in record and "no records" in record
        failures = Path(os.path.join(out, "failures.csv")).read_text().splitlines()
        assert failures == ["n,rep,error", "40,0,SolverError: no convergence",
                            "60,0,SolverError: no convergence"]

    def test_dense_solver_failures_are_solver_errors(self, tmp_path, monkeypatch):
        def broken(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)  # n = 40 and 60 solve densely
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG.replace("repetitions = 2",
                                                                "repetitions = 1"))
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", "1") == 4
        failures = (out / "failures.csv").read_text().splitlines()
        message = "SolverError: dense eigensolver failed: Eigenvalues did not converge"
        assert failures == ["n,rep,error", "40,0," + message, "60,0," + message]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("config, code, words", [
        (SWEEP_CONFIG.replace("n_grid = [40, 60]", "n_grid = [10, 20]")
         .replace("[1, 4, 8, 16]", "[64]"), 2, "n = 10"),
        ("truth = f2\nn_grid = [100, 200]\nrepetitions = 1\ntuning.s = 0.45\n"
         "tuning.M = 1.0\ntuning.c0 = 50.0\n", 3, "empty bandwidth window"),
        (SWEEP_CONFIG.replace("[0.5, 1.0]", "[0.0]"), 2,
         "sweep.txt:7: 'grids.eps' entries must be greater than 0"),
        (SWEEP_CONFIG.replace("[0.5, 1.0]", "[-0.5, 0.5]"), 2,
         "sweep.txt:7: 'grids.eps' entries must be greater than 0"),
        (SWEEP_CONFIG.replace("[1, 4, 8, 16]", "[-1, 4]"), 2,
         "sweep.txt:6: 'grids.k' entries must be at least 0"),
        ("truth = f2\nn_grid = [100, 200]\nrepetitions = 1\ntuning.s = 0.45\n"
         "tuning.M = 1.0\ntuning.c0 = 5.0\ntuning.C0 = 5.0\ntheory_s = 0.2\n", 2, "theory_s"),
    ], ids=["no-k-at-n", "empty-window", "eps-zero", "eps-negative", "k-negative",
            "theory-s-with-rule"])
    def test_bad_search_grid_fails_before_any_draw(self, tmp_path, monkeypatch,
                                                   config, code, words, threads):
        def forbidden(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "generate", forbidden)
        cfg = write(tmp_path / "sweep.txt", config)
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", threads) == code
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert record["code"].value == code and words in record["message"].value
        assert sorted(os.listdir(out)) == ["error.txt"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "bad.txt", SWEEP_CONFIG + "bogus_key = 1\n")
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2

    def test_design_dim_is_an_unknown_key(self, tmp_path):
        cfg = write(tmp_path / "bad.txt", SWEEP_CONFIG + "design.dim = 1\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
        assert "unknown key 'design.dim'" in (out / "error.txt").read_text()

    def test_tuning_error_exit_code(self, tmp_path):
        # an empty window through eigen, where the rule resolves at the design's n
        cfg = write(tmp_path / "e.txt", """\
n = 60
seed = 3
tuning.s = 0.45
tuning.M = 1.0
tuning.c0 = 1000.0
tuning.C0 = 0.0001
""")
        out = str(tmp_path / "o")
        assert run_cli("eigen", "--config", cfg, "--out", out) == 3
        record = Path(os.path.join(out, "error.txt")).read_text()
        assert "kind = tuning" in record

    def test_missing_config_is_io_error(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli("sweep", "--config", str(tmp_path / "nope.txt"), "--out", out) == 5

    def test_out_env_var_default(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out = str(tmp_path / "from_env")
        monkeypatch.setenv(cli.OUT_ENV_VAR, out)
        assert run_cli("sweep", "--config", cfg, "--threads", "1") == 0
        assert os.path.exists(os.path.join(out, "records.csv"))

    def test_no_out_dir_is_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        assert run_cli("sweep", "--config", cfg) == 2

    def test_solver_error_maps_to_exit_4(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out = str(tmp_path / "o")

        def boom(args, out_dir, entries):
            raise SolverError("no convergence", worst_residual=1.0)

        monkeypatch.setitem(cli._COMMANDS, "sweep", (boom, *cli._COMMANDS["sweep"][1:]))
        assert run_cli("sweep", "--config", cfg, "--out", out) == 4
        record = Path(os.path.join(out, "error.txt")).read_text()
        assert "kind = solver" in record

    @pytest.mark.parametrize("high", [5, 1])
    def test_rule_window_constants_default_to_the_design_length(self, tmp_path, high):
        cfg = write(tmp_path / "sweep.txt", "truth = f2\nn_grid = [40, 60]\nrepetitions = 1\n"
                    "design.high = %d\ntuning.s = 0.45\ntuning.M = 1.0\n" % high)
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", "1") == 0
        echo = (out / "config_echo.txt").read_text()
        assert "tuning.M = 1\ntuning.c0 = %d\ntuning.C0 = %d\n" % (high, high) in echo


class TestFitCommand:
    def test_fit_csv_written(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 5, 40))
        SampleSet(x[:, None], np.sin(x)).save_csv(tmp_path / "data.csv")
        cfg = write(tmp_path / "fit.txt", """\
data = %s
K = 5
epsilon = 0.8
meta.s = 0.45
meta.M = 1.0
""" % (tmp_path / "data.csv"))
        out = str(tmp_path / "o")
        assert run_cli("fit", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().out.endswith("connected=True components=1\n")
        lines = Path(os.path.join(out, "fit.csv")).read_text().splitlines()
        assert lines[0] == "# K = 5"
        assert any(l.startswith("# s = 0.45") for l in lines)
        data_rows = [l for l in lines if not l.startswith("#")]
        assert data_rows[0] == "index,x1,y,fitted"
        assert len(data_rows) == 41

    def test_data_path_with_a_double_quote_fails_before_reading_data(self, tmp_path, monkeypatch):
        def forbidden(cls, path):
            raise AssertionError("data file read")

        monkeypatch.setattr(SampleSet, "load_csv", classmethod(forbidden))
        cfg = write(tmp_path / "fit.txt", 'data = a"#b\nK = 2\nepsilon = 0.8\n')
        out = str(tmp_path / "o")
        assert run_cli("fit", "--config", cfg, "--out", out) == 2
        assert "kind = input" in Path(os.path.join(out, "error.txt")).read_text()
        assert not os.path.exists(os.path.join(out, "config_echo.txt"))

    def test_fit_needs_responses(self, tmp_path):
        x = np.linspace(0, 4, 20)
        SampleSet(x[:, None]).save_csv(tmp_path / "data.csv")
        cfg = write(tmp_path / "fit.txt",
                    "data = %s\nK = 2\nepsilon = 0.8\n" % (tmp_path / "data.csv"))
        assert run_cli("fit", "--config", cfg, "--out", str(tmp_path / "o")) == 2


class TestSeminormCommand:
    def test_divergence_flag_in_summary(self, tmp_path):
        cfg = write(tmp_path / "sem.txt", """\
function.family = piecewise_constant
function.breakpoints = [0, 0.5, 1]
function.values = [1, 0]
s = [0.25, 0.75]
level = 11
""")
        out = str(tmp_path / "o")
        assert run_cli("seminorm", "--config", cfg, "--out", out) == 0
        lines = Path(os.path.join(out, "seminorm.csv")).read_text().splitlines()
        rows = [l.split(",") for l in lines[1:]]
        by_s = {float(r[0]): r for r in rows}
        assert by_s[0.25][2] == "false"
        assert by_s[0.75][2] == "true"
        assert by_s[0.75][1] == "inf"

    def test_zoo_truth_by_name(self, tmp_path):
        cfg = write(tmp_path / "sem.txt", "truth = f2\ns = 0.25\nlevel = 10\n")
        out = str(tmp_path / "o")
        assert run_cli("seminorm", "--config", cfg, "--out", out) == 0

    def test_s_out_of_range(self, tmp_path):
        cfg = write(tmp_path / "sem.txt", "truth = f2\ns = 1.5\n")
        assert run_cli("seminorm", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("value", ["abc", "[]", '"0.5"'], ids=["word", "empty_list", "quoted"])
    def test_s_that_is_not_a_number_in_range(self, tmp_path, value):
        cfg = write(tmp_path / "sem.txt", "truth = f2\ns = %s\nlevel = 7\n" % value)
        out = tmp_path / "o"
        assert run_cli("seminorm", "--config", cfg, "--out", str(out)) == 2
        assert cfgmod.parse_text((out / "error.txt").read_text())["code"].value == 2
        assert not (out / "config_echo.txt").exists()


    @pytest.mark.parametrize("level", [21, 40])
    def test_level_above_the_bound(self, tmp_path, level):
        cfg = write(tmp_path / "sem.txt", "truth = f2\ns = 0.25\nlevel = %d\n" % level)
        out = tmp_path / "o"
        assert run_cli("seminorm", "--config", cfg, "--out", str(out)) == 2
        assert cfgmod.parse_text((out / "error.txt").read_text())["code"].value == 2
        assert not (out / "config_echo.txt").exists()


    @pytest.mark.parametrize("config", [
        "function.family = power\nfunction.alpha = 0.5\nfunction.domain = [0, 1, 2]\n",
        "function.family = bumps\nfunction.centers = [1]\nfunction.heights = [1]\n"
        "function.widths = [0.2]\nfunction.domain = [0]\n",
        "function.family = piecewise_constant\nfunction.breakpoints = [0, 1, 2]\n"
        "function.values = [1, 2]\nfunction.domain = [7, 9]\n",
    ], ids=["three_numbers", "one_number", "not_the_breakpoints"])
    def test_bad_domain_names_the_key(self, tmp_path, config):
        cfg = write(tmp_path / "sem.txt", config + "s = 0.3\nlevel = 7\n")
        out = tmp_path / "o"
        assert run_cli("seminorm", "--config", cfg, "--out", str(out)) == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert record["code"].value == 2 and "function.domain" in record["message"].value
        assert not (out / "config_echo.txt").exists()

    def test_zoo_definitions_are_seminorm_inputs(self, tmp_path):
        assert run_cli("zoo", "--out", str(tmp_path / "zoo")) == 0
        for name in sorted(zoo()):
            cfg = str(tmp_path / "zoo" / ("%s.txt" % name))
            out = tmp_path / name
            assert run_cli("seminorm", "--config", cfg, "--set", "s = 0.3",
                           "--set", "level = 7", "--out", str(out)) == 0
            assert (out / "seminorm.csv").exists()


class TestArguments:
    SEMINORM = "truth = f2\ns = [0.25, 0.75]\nlevel = 7\n"

    def exit_code(self, *argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        return exc.value.code

    def test_options_before_or_after_the_command(self, tmp_path):
        cfg = write(tmp_path / "sem.txt", self.SEMINORM)
        outputs = []
        for i, argv in enumerate((
            ["seminorm", "--config", cfg, "--set", "level = 8"],
            ["--config", cfg, "--set", "level = 8", "seminorm"],
            ["--set", "level = 8", "seminorm", "--config", cfg],
        )):
            out = tmp_path / str(i)
            assert run_cli(*argv, "--out", str(out)) == 0
            outputs.append([(out / name).read_text()
                            for name in ("config_echo.txt", "seminorm.csv")])
        assert "level = 8" in outputs[0][0]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_zoo_needs_no_config(self, tmp_path):
        assert run_cli("zoo", "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("command", ["fit", "sweep", "seminorm", "eigen", "gridsearch"])
    def test_other_commands_need_a_config(self, tmp_path, command):
        out = tmp_path / "o"
        assert self.exit_code(command, "--out", str(out)) == 2
        assert not out.exists()

    def test_a_run_removes_the_error_record_of_an_earlier_one(self, tmp_path):
        cfg = write(tmp_path / "e.txt", "n = 50\nepsilon = 0.5\nm = 4\n")
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2  # no seed
        assert (out / "error.txt").exists()
        assert run_cli("eigen", "--config", cfg, "--out", str(out), "--seed", "1") == 0
        assert sorted(os.listdir(out)) == ["config_echo.txt", "eigen.csv"]
        # and a failed run removes the artifacts of a successful one
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2
        assert os.listdir(out) == ["error.txt"]

    def test_unknown_command(self, tmp_path):
        cfg = write(tmp_path / "sem.txt", self.SEMINORM)
        assert self.exit_code("solve", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one(self, tmp_path, threads):
        cfg = write(tmp_path / "sweep.txt", SWEEP_CONFIG)
        out = tmp_path / "o"
        assert self.exit_code("sweep", "--config", cfg, "--out", str(out),
                              "--threads", threads) == 2
        assert not out.exists()

    @pytest.mark.parametrize("override", [["--set", "bogus=1"], ["--seed", "3"]],
                             ids=["set", "seed"])
    def test_overrides_apply_without_a_config(self, tmp_path, override):
        out = tmp_path / "o"
        assert run_cli("zoo", "--out", str(out), *override) == 2
        assert "unknown key" in (out / "error.txt").read_text()
        assert not (out / "f1.txt").exists()

    def test_error_on_an_override_names_the_override(self, tmp_path, capsys):
        cfg = write(tmp_path / "sem.txt", "# comment\n" + self.SEMINORM)
        assert run_cli("seminorm", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--set", "typo=1") == 2
        message = capsys.readouterr().err
        assert "<override>: unknown key 'typo'" in message and "sem.txt" not in message

    def test_help(self, capsys):
        assert self.exit_code("--help") == 0
        assert "gridsearch" in capsys.readouterr().out


class TestEigenCommand:
    def test_rule_window_constants_default_to_the_data_extent(self, tmp_path, capsys):
        points = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2)) * [3.0, 2.0]
        SampleSet(points).save_csv(tmp_path / "d.csv")
        cfg = write(tmp_path / "e.txt", "data = %s\ntuning.s = 0.45\ntuning.M = 0.3\nm = 8\n"
                    % (tmp_path / "d.csv"))
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 0
        echo = cfgmod.parse_text((out / "config_echo.txt").read_text())
        assert list(echo) == ["data", "kernel.family", "kernel.h", "tuning.s", "tuning.M",
                              "tuning.c0", "tuning.C0", "m"]
        extent = float(np.ptp(points, axis=0).max())  # the longer side, just under 3
        assert echo["tuning.c0"].value == echo["tuning.C0"].value == extent
        _, eps = cli.TuningRule(s=0.45, M=0.3, c0=extent, C0=extent).resolve(200, 2)
        assert "epsilon=%.6g " % eps in capsys.readouterr().out

    def test_coincident_points_need_both_window_constants(self, tmp_path, capsys):
        # the bounding box has zero extent, so c0 and C0 have no default
        (tmp_path / "d.csv").write_text("x1\n" + "1.5\n" * 20)
        rule = "data = %s\ntuning.s = 0.45\ntuning.M = 1\n" % (tmp_path / "d.csv")
        for i, given in enumerate(["", "tuning.c0 = 1\n"]):
            out = tmp_path / ("o%d" % i)
            assert run_cli("eigen", "--config", write(tmp_path / "e.txt", rule + given),
                           "--out", str(out)) == 2
            assert sorted(os.listdir(out)) == ["error.txt"]
            message = (out / "error.txt").read_text()
            assert "zero extent" in message and "tuning.c0 and tuning.C0" in message
        out = tmp_path / "both"
        both = rule + "tuning.c0 = 1\ntuning.C0 = 1\n"
        assert run_cli("eigen", "--config", write(tmp_path / "e.txt", both),
                       "--out", str(out)) == 0
        assert (out / "eigen.csv").exists()

    @pytest.mark.parametrize("command, config", [
        ("eigen", "epsilon = 0.5\nm = 4\n"), ("fit", "K = 3\nepsilon = 0.5\n")])
    def test_a_sample_file_without_a_header_exits_2(self, tmp_path, command, config):
        x = np.linspace(0.0, 4.9, 50)
        path = tmp_path / "d.csv"
        np.savetxt(path, np.column_stack([x, np.sin(x)]), delimiter=",")
        cfg = write(tmp_path / "e.txt", "data = %s\n%s" % (path, config))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        message = cfgmod.parse_text((out / "error.txt").read_text())["message"].value
        assert str(path) in message and "header row" in message
        assert not (out / ("%s.csv" % command)).exists()

    def test_generated_design_lambda1(self, tmp_path):
        cfg = write(tmp_path / "e.txt", """\
n = 300
seed = 8
epsilon = 0.4
m = 10
""")
        out = str(tmp_path / "o")
        assert run_cli("eigen", "--config", cfg, "--out", out) == 0
        lines = Path(os.path.join(out, "eigen.csv")).read_text().splitlines()
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[1]) <= 1e-8

    def test_kernel_of_dimension_m_or_more_exits_0(self, tmp_path, monkeypatch):
        # 32 components at m = 16: the components span the 16-fold zero
        # eigenvalue exactly, so eigen.csv is the same bits whether ARPACK
        # resolves it or stalls until its restart cap
        cfg = write(tmp_path / "e.txt", "n = 800\nseed = 2\nepsilon = 0.02\nm = 16\n")
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 0
        table = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)
        x = experiments.draw_design(2, 800, 0, 0.0, 5.0)
        graph = build_graph(SampleSet(x[:, None]), 0.02, KernelSpec("truncated_gaussian"))
        assert graph.components.component_count == 32 and graph.n > DENSE_LIMIT
        dense = eigensolve(laplacian(graph), 16, "dense")
        assert np.all(table[:, 1] == 0.0) and np.all(dense.values == 0.0)
        np.testing.assert_allclose(table[:, 2:], dense.vectors.T, rtol=0, atol=1e-12)
        assert np.all(table[0, 2:] == 1.0)
        np.testing.assert_array_equal(table[1:, 2:], _kernel_basis(graph, 16)[:, 1:].T)

        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", None, None)

        monkeypatch.setattr(spectral.spla, "eigsh", stalled)
        assert run_cli("eigen", "--config", cfg, "--out", str(tmp_path / "stalled")) == 0
        stalled_table = (tmp_path / "stalled" / "eigen.csv").read_bytes()
        assert stalled_table == (out / "eigen.csv").read_bytes()

    def test_kernel_of_dimension_below_m_exits_0(self, tmp_path):
        # 13 components at m = 16: the kernel basis, then the 3 smallest
        # positive pairs, however many copies of 0 ARPACK returned
        cfg = write(tmp_path / "e.txt", "n = 1150\nseed = 29\nepsilon = 0.0198\nm = 16\n")
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 0
        values = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)[:, 1]
        x = experiments.draw_design(29, 1150, 0, 0.0, 5.0)
        op = laplacian(build_graph(SampleSet(x[:, None]), 0.0198,
                                   KernelSpec("truncated_gaussian")))
        assert op.graph.components.component_count == 13
        assert np.count_nonzero(values == 0.0) == 13
        dense = np.linalg.eigvalsh(op.matrix.toarray())[:16]
        assert np.max(np.abs(values - dense)) <= 1e-10 * 2.0 * op.matrix.diagonal().max()

    @pytest.mark.parametrize("n, solver", [(300, "eigh"), (600, "eigsh")])
    def test_a_failure_inside_the_solver_exits_4(self, tmp_path, monkeypatch, n, solver):
        # the dense LinAlgError, and an ArpackError other than non-convergence
        def broken(*args, **kwargs):
            if solver == "eigh":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            raise spla.ArpackError(-9999)

        monkeypatch.setattr(np.linalg if solver == "eigh" else spectral.spla, solver, broken)
        cfg = write(tmp_path / "e.txt", "n = %d\nseed = 8\nepsilon = 0.4\nm = 10\n" % n)
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 4
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert (record["code"].value, record["kind"].value) == (4, "solver")
        assert sorted(os.listdir(out)) == ["config_echo.txt", "error.txt"]

    def test_design_in_small_units_exits_0(self, tmp_path):
        # at 1e-3 of the default units the eigenvalues grow by 1e9, and so do
        # the residuals (to about 1e-6) and the solver's tolerance
        tables = []
        for i, (high, eps) in enumerate([(5.0, 0.25), (0.005, 0.00025)]):
            cfg = write(tmp_path / ("e%d.txt" % i), "n = 400\nseed = 4\ndesign.high = %r\n"
                        "epsilon = %r\nm = 20\n" % (high, eps))
            out = tmp_path / ("o%d" % i)
            assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 0
            tables.append(np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1))
        np.testing.assert_allclose(tables[1][:, 1] * 1e-9, tables[0][:, 1],
                                   rtol=0, atol=1e-10 * tables[0][-1, 1])

    def test_data_file_input(self, tmp_path):
        x = np.linspace(0, 2, 50)
        SampleSet(x[:, None]).save_csv(tmp_path / "pts.csv")
        cfg = write(tmp_path / "e.txt",
                    "data = %s\nepsilon = 0.5\nm = 4\n" % (tmp_path / "pts.csv"))
        out = str(tmp_path / "o")
        assert run_cli("eigen", "--config", cfg, "--out", out) == 0


    def test_unknown_key_fails_before_the_data_file_is_read(self, tmp_path):
        cfg = write(tmp_path / "e.txt", "data = %s\nepsilon = 0.5\nbogus = 1\n"
                    % (tmp_path / "missing.csv"))
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2
        assert "bogus" in cfgmod.parse_text((out / "error.txt").read_text())["message"].value

    def test_m_above_the_data_files_n_fails_before_the_echo(self, tmp_path):
        SampleSet(np.linspace(0, 2, 10)[:, None]).save_csv(tmp_path / "pts.csv")
        cfg = write(tmp_path / "e.txt", "data = %s\nepsilon = 0.5\nm = 11\n"
                    % (tmp_path / "pts.csv"))
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert "'m' must be at most 10" in record["message"].value
        assert not (out / "config_echo.txt").exists()

    @pytest.mark.parametrize("high", [0.0, 5.0], ids=["reversed", "one-point"])
    def test_design_interval_must_be_non_empty(self, tmp_path, high):
        cfg = write(tmp_path / "e.txt", "n = 50\nseed = 1\nepsilon = 0.5\n"
                    "design.low = 5\ndesign.high = %r\n" % high)
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert "'design.high' must be greater than 5.0" in record["message"].value
        assert sorted(os.listdir(out)) == ["error.txt"]

    def test_m_above_n_fails_before_the_echo(self, tmp_path):
        cfg = write(tmp_path / "e.txt", "n = 20\nseed = 8\nepsilon = 0.5\nm = 21\n")
        out = tmp_path / "o"
        assert run_cli("eigen", "--config", cfg, "--out", str(out)) == 2
        record = cfgmod.parse_text((out / "error.txt").read_text())
        assert "'m' must be at most 20" in record["message"].value
        assert not (out / "config_echo.txt").exists()


@pytest.mark.parametrize("command, config, key", [
    ("eigen", "n = 500\nseed = 1\nepsilon = inf\nm = 4\n", "epsilon"),
    ("eigen", "n = 500\nseed = 1\nepsilon = 1%s\nm = 4\n" % ("0" * 400), "epsilon"),
    ("eigen", "n = 500\nseed = 1\nepsilon = 0.3\nm = 4\nkernel.h = inf\n", "kernel.h"),
    ("sweep", SWEEP_CONFIG.replace("noise_sd = 1.0", "noise_sd = inf"), "noise_sd"),
    ("sweep", SWEEP_CONFIG.replace("[0.5, 1.0]", "[inf]"), "grids.eps"),
    ("sweep", SWEEP_CONFIG.replace("[0.5, 1.0]", "[0.5, nan]"), "grids.eps"),
], ids=["eigen-inf", "eigen-overflow", "kernel-h-inf", "noise-inf", "eps-grid-inf",
        "eps-grid-nan"])
def test_non_finite_number_exits_2_before_the_echo(tmp_path, monkeypatch, command, config, key):
    def forbidden(*args, **kwargs):
        raise AssertionError("job run")

    monkeypatch.setattr(experiments, "run_sweep", forbidden)
    monkeypatch.setattr("fracreg.graph.build_graph", forbidden)
    cfg = write(tmp_path / "c.txt", config)
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out), "--threads", "1") == 2
    record = cfgmod.parse_text((out / "error.txt").read_text())
    assert "%r must be finite" % key in record["message"].value
    assert sorted(os.listdir(out)) == ["error.txt"]


@pytest.mark.parametrize("command", ["fit", "eigen"])
def test_non_finite_response_exits_2(tmp_path, command):
    (tmp_path / "data.csv").write_text("x1,y\n0.0,1.0\n0.5,nan\n1.0,2.0\n1.5,0.5\n")
    cfg = write(tmp_path / "c.txt", "data = %s\nepsilon = 0.6\n%s = 2\n"
                % (tmp_path / "data.csv", "K" if command == "fit" else "m"))
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    record = cfgmod.parse_text((out / "error.txt").read_text())
    assert record["message"].value == "responses must be finite"
    assert not (out / "fit.csv").exists() and not (out / "eigen.csv").exists()


# A small run of each command and every float key it reads.  A list key gets
# the value as its first entry.
_PIECES = "function.breakpoints = [0, 1, 2]\nfunction.domain = [0, 2]\n"
FLOAT_KEY_RUNS = {
    "eigen-drawn": ("eigen", "n = 60\nseed = 1\nepsilon = 0.5\nm = 4\n",
                    ["design.low", "design.high", "kernel.h", "epsilon"]),
    "eigen-rule": ("eigen", "n = 60\nseed = 1\ntuning.s = 0.45\ntuning.M = 1.0\nm = 4\n",
                   ["tuning.s", "tuning.M", "tuning.c0", "tuning.C0"]),
    "eigen-data": ("eigen", "data = {data}\nepsilon = 0.5\nm = 4\n", ["kernel.h", "epsilon"]),
    "eigen-data-rule": ("eigen", "data = {data}\ntuning.s = 0.45\ntuning.M = 1.0\nm = 4\n",
                        ["tuning.s", "tuning.M", "tuning.c0", "tuning.C0"]),
    "fit": ("fit", "data = {data}\nK = 3\nepsilon = 0.8\nmeta.s = 0.45\nmeta.M = 1.0\n",
            ["epsilon", "kernel.h", "meta.s", "meta.M"]),
    "sweep-rule": ("sweep", "truth = f2\nn_grid = [40, 60]\nrepetitions = 1\n"
                   "tuning.s = 0.45\ntuning.M = 1.0\n",
                   ["noise_sd", "design.low", "design.high", "kernel.h",
                    "tuning.s", "tuning.M", "tuning.c0", "tuning.C0"]),
    "sweep-grids": ("sweep", "truth = f2\nn_grid = [40, 60]\nrepetitions = 1\n"
                    "grids.k = [1, 4]\ngrids.eps = [0.5, 1.0]\ntheory_s = 0.45\n",
                    ["noise_sd", "design.low", "design.high", "kernel.h", "grids.eps",
                     "theory_s"]),
    "seminorm-truth": ("seminorm", "truth = f3\ns = 0.3\nlevel = 7\n", ["s"]),
    "seminorm-power": ("seminorm", "function.family = power\nfunction.alpha = 0.5\n"
                       "function.domain = [-1, 1]\ns = 0.3\nlevel = 7\n",
                       ["function.alpha", "function.domain", "s"]),
    "seminorm-constant": ("seminorm", "function.family = piecewise_constant\n" + _PIECES
                          + "function.values = [1, 2]\ns = 0.3\nlevel = 7\n",
                          ["function.breakpoints", "function.domain", "function.values"]),
    "seminorm-polynomial": ("seminorm", "function.family = piecewise_polynomial\n" + _PIECES
                            + "function.coeff_0 = [1, 2]\nfunction.coeff_1 = [0, 1]\n"
                            "s = 0.3\nlevel = 7\n",
                            ["function.breakpoints", "function.coeff_0", "function.coeff_1"]),
    "seminorm-bumps": ("seminorm", "function.family = bumps\nfunction.centers = [1, 2]\n"
                       "function.heights = [1, -1]\nfunction.widths = [0.2, 0.3]\n"
                       "function.domain = [0, 5]\ns = 0.3\nlevel = 7\n",
                       ["function.centers", "function.heights", "function.widths",
                        "function.domain"]),
}


@pytest.mark.parametrize("run", sorted(FLOAT_KEY_RUNS))
def test_no_input_ends_in_a_traceback(tmp_path, run):
    command, config, keys = FLOAT_KEY_RUNS[run]
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0, 5, 40))
    SampleSet(x[:, None], np.sin(x)).save_csv(tmp_path / "data.csv")
    cfg = write(tmp_path / "c.txt", config.format(data=tmp_path / "data.csv"))
    entries = cfgmod.parse_text(Path(cfg).read_text())
    for key in keys:
        for value in ("1e-300", "5e-321", "1e300", "-1e300"):
            given = entries[key].value if key in entries else None
            if isinstance(given, list):
                value = "[%s]" % ", ".join([value] + [str(v) for v in given[1:]])
            out = tmp_path / ("%s=%s" % (key, value))
            code = run_cli(command, "--config", cfg, "--out", str(out), "--threads", "1",
                           "--set", "%s=%s" % (key, value))
            assert code in (0, 2, 3, 4, 5), (key, value)
            assert code == 0 or (out / "error.txt").exists(), (key, value)


@pytest.mark.parametrize("command, config, code", [
    ("eigen", "n = 300\nseed = 1\nepsilon = 1e-300\n", 2),
    ("eigen", "n = 300\nseed = 1\nepsilon = 1e300\n", 2),
    ("sweep", SWEEP_CONFIG.replace("[0.5, 1.0]", "[1e-300]"), 2),
    ("eigen", "n = 500\nseed = 1\ntuning.s = 0.45\ntuning.M = 1e200\n", 3),
    ("eigen", "n = 500\nseed = 1\ntuning.s = 0.45\ntuning.M = 1e154\n", 3),
    ("seminorm", "function.family = piecewise_polynomial\nfunction.breakpoints = [0, 1]\n"
                 "function.coeff_0 = []\ns = 0.3\n", 2),
], ids=["eps-underflow", "eps-overflow", "sweep-eps-underflow", "M-1e200", "M-1e154",
        "empty-piece"])
def test_unformable_inputs_exit_with_their_code(tmp_path, command, config, code):
    cfg = write(tmp_path / "c.txt", config)
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out), "--threads", "1") == code
    record = cfgmod.parse_text((out / "error.txt").read_text())
    assert record["code"].value == code
    assert not (out / "records.csv").exists()


class TestGridsearchCommand:
    def test_surface_and_best(self, tmp_path):
        cfg = write(tmp_path / "g.txt", """\
truth = f2
n = 60
seed = 4
grids.k = [1, 4, 16]
grids.eps = [0.5, 1.0]
""")
        out = str(tmp_path / "o")
        assert run_cli("gridsearch", "--config", cfg, "--out", out) == 0
        surface = Path(os.path.join(out, "surface.csv")).read_text().splitlines()
        assert surface[0] == "K,epsilon,mse"
        assert len(surface) == 1 + 6
        best = cfgmod.parse_text(Path(os.path.join(out, "best.txt")).read_text())
        assert best["best_K"].value in (1, 4, 16)


    def test_k_grid_entries_above_n_are_not_searched(self, tmp_path):
        # as in a sweep job at n = 100: K = 200 is left out of the search
        surfaces = []
        for k_grid in ("[1, 4, 200]", "[1, 4]"):
            cfg = write(tmp_path / "g.txt", "truth = f2\nn = 100\nseed = 4\n"
                        "grids.k = %s\ngrids.eps = [0.5]\n" % k_grid)
            out = tmp_path / ("o" + str(len(surfaces)))
            assert run_cli("gridsearch", "--config", cfg, "--out", str(out)) == 0
            surfaces.append((out / "surface.csv").read_bytes())
        assert surfaces[0] == surfaces[1]

    def test_a_rule_is_searched_as_its_one_cell(self, tmp_path):
        # the cell a sweep job at n searches, scored against the same truth
        rule = "truth = f2\nseed = 4\ntuning.s = 0.45\ntuning.M = 1.0\n"
        cfg = write(tmp_path / "g.txt", rule + "n = 200\n")
        assert run_cli("gridsearch", "--config", cfg, "--out", str(tmp_path / "g")) == 0
        K, eps = TuningRule(s=0.45, M=1.0, c0=5.0, C0=5.0).resolve(200, 1)
        surface = (tmp_path / "g" / "surface.csv").read_text().splitlines()
        assert surface[0] == "K,epsilon,mse" and len(surface) == 2
        assert surface[1].split(",")[:2] == ["%d" % K, "%.17g" % eps]
        sweep = write(tmp_path / "s.txt", rule + "n_grid = [200]\nrepetitions = 1\n")
        assert run_cli("sweep", "--config", sweep, "--out", str(tmp_path / "s"),
                       "--threads", "1") == 0
        best = cfgmod.parse_text((tmp_path / "g" / "best.txt").read_text())
        record = (tmp_path / "s" / "records.csv").read_text().splitlines()[1].split(",")
        assert record[:2] == ["200", "0"]
        assert float(record[4]) == best["best_mse"].value

    @pytest.mark.parametrize("grid, words", [
        ("grids.k = [-1, 4]\ngrids.eps = [0.5]\n",
         "g.txt:3: 'grids.k' entries must be at least 0"),
        ("grids.k = [1, 4]\ngrids.eps = [0.5, 0.0]\n",
         "g.txt:4: 'grids.eps' entries must be greater than 0"),
    ], ids=["k-negative", "eps-zero"])
    def test_bad_grid_names_its_key_and_line(self, tmp_path, grid, words):
        cfg = write(tmp_path / "g.txt", "truth = f2\nn = 60\n" + grid)
        out = tmp_path / "o"
        assert run_cli("gridsearch", "--config", cfg, "--out", str(out)) == 2
        assert words in cfgmod.parse_text((out / "error.txt").read_text())["message"].value
        assert os.listdir(out) == ["error.txt"]


class TestZooCommand:
    def test_definitions_round_trip(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli("zoo", "--out", out) == 0
        for name, fn in zoo().items():
            text = Path(os.path.join(out, "%s.txt" % name)).read_text()
            entries = cfgmod.parse_text(text)
            view = cfgmod.ConfigView(entries)
            parsed = cli.function_from_view(view)
            assert parsed == fn


# One config per command that leans on defaults, so the echo must carry them.
ECHO_RERUN = {
    "sweep": SWEEP_CONFIG + "curve.points = 4\n",
    "gridsearch": "truth = f2\nn = 60\ngrids.k = [1, 4, 16]\ngrids.eps = [0.5, 1.0]\n",
    "fit": "data = {data}\nK = 3\nepsilon = 0.8\nmeta.s = 0.45\n",
    "eigen": "n = 50\nseed = 1\ntuning.s = 0.45\ntuning.M = 1.0\ntuning.C0 = 5.0\n",
    "seminorm": "function.family = bumps\nfunction.centers = [1, 2]\n"
                "function.heights = [1, -1]\nfunction.widths = [0.2, 0.3]\ns = [0.3, 0.6]\n",
    "zoo": None,
}


@pytest.mark.parametrize("command", sorted(ECHO_RERUN))
def test_rerun_from_the_echo_is_byte_identical(tmp_path, command):
    x = np.linspace(0.1, 4.9, 40)
    SampleSet(x[:, None], np.sin(x)).save_csv(tmp_path / "data.csv")
    argv = [command, "--threads", "1"]
    if ECHO_RERUN[command] is not None:
        text = ECHO_RERUN[command].format(data=tmp_path / "data.csv")
        argv += ["--config", write(tmp_path / "in.txt", text)]
    first, second = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(*argv, "--out", str(first)) == 0
    assert run_cli(command, "--threads", "2", "--config", str(first / "config_echo.txt"),
                   "--out", str(second)) == 0
    names = sorted(os.listdir(first))
    assert "config_echo.txt" in names and sorted(os.listdir(second)) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_negative_zero_survives_the_echo(tmp_path):
    # "-0" would read back as the integer 0, and the rerun would echo "0"
    cfg = write(tmp_path / "in.txt", "n = 50\nseed = 1\ndesign.low = -0.0\nepsilon = 0.5\n")
    first, second = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("eigen", "--config", cfg, "--out", str(first)) == 0
    assert run_cli("eigen", "--config", str(first / "config_echo.txt"),
                   "--out", str(second)) == 0
    echo = (first / "config_echo.txt").read_text()
    assert "design.low = -0.0\n" in echo
    assert (second / "config_echo.txt").read_text() == echo


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_config_blocks_are_read_by_sweep(tmp_path):
    text = Path(README).read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```ini\n")[1:]]
    assert len(blocks) == 3
    without_grids = "".join(line + "\n" for line in blocks[0].splitlines()
                    if not line.startswith(("grids.", "theory_s")))
    for i, config in enumerate([blocks[0], without_grids + blocks[1], blocks[2]]):
        out = tmp_path / str(i)
        assert run_cli("sweep", "--config", write(tmp_path / ("%d.txt" % i), config),
                       "--out", str(out), "--threads", "1",
                       "--set", "n_grid = [40, 60]", "--set", "repetitions = 1") == 0
        documented = cfgmod.parse_text(config)
        echoed = cfgmod.parse_text((out / "config_echo.txt").read_text())
        assert set(documented) <= set(echoed)


SRC_DIR = os.path.dirname(os.path.dirname(fracreg.__file__))


def run_subprocess(args, env_extra, cwd):
    env = dict(os.environ, PYTHONPATH=SRC_DIR, **env_extra)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestBlasThreads:
    @pytest.mark.parametrize("command, config", [
        ("eigen", "n = 400\nseed = 1\nepsilon = 0.3\nm = 64\n"),  # dense eigh, n = DENSE_LIMIT
        ("eigen", "n = 4000\nseed = 1000003\nepsilon = 0.25\nm = 64\n"),  # shift-invert
        ("gridsearch", "truth = f2\nn = 500\nseed = 3\n"
                       "grids.k = [1, 4, 16, 32]\ngrids.eps = [0.12, 0.5]\n"),
        ("seminorm", "truth = f2\ns = [0.25, 0.45, 0.75]\nlevel = 12\n"),  # no BLAS pin
    ], ids=["eigen-dense", "eigen-iterative", "gridsearch", "seminorm"])
    def test_outputs_do_not_depend_on_the_blas_environment(self, tmp_path, command, config):
        cfg = write(tmp_path / "c.txt", config)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / ("blas" + threads)
            done = run_subprocess(["-m", "fracreg.cli", command, "--config", cfg,
                                   "--out", str(out)],
                                  {"OPENBLAS_NUM_THREADS": threads}, tmp_path)
            assert done.returncode == 0, done.stderr
            outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
        assert outputs[0] == outputs[1]

    def test_handlers_run_at_one_blas_thread(self, tmp_path, monkeypatch):
        handles = experiments._openblas_handles()
        assert handles
        saved = [get_threads() for _, get_threads in handles]
        seen = {}

        def spying(name, handler):
            def wrapper(args, out_dir, entries):
                seen[name] = [get_threads() for _, get_threads in handles]
                return handler(args, out_dir, entries)
            return wrapper

        for name in ("eigen", "fit", "gridsearch"):
            handler, *rest = cli._COMMANDS[name]
            monkeypatch.setitem(cli._COMMANDS, name, (spying(name, handler), *rest))
        x = np.linspace(0, 4, 30)
        SampleSet(x[:, None], np.sin(x)).save_csv(tmp_path / "data.csv")
        configs = {
            "eigen": "n = 50\nseed = 1\nepsilon = 0.5\nm = 4\n",
            "fit": "data = %s\nK = 3\nepsilon = 0.8\n" % (tmp_path / "data.csv"),
            "gridsearch": "truth = f2\nn = 50\nseed = 1\ngrids.k = [1, 4]\ngrids.eps = [1.0]\n",
        }
        try:
            for set_threads, _ in handles:
                set_threads(2)
            before = [get_threads() for _, get_threads in handles]
            for name, text in configs.items():
                cfg = write(tmp_path / ("%s.txt" % name), text)
                assert run_cli(name, "--config", cfg, "--out", str(tmp_path / name)) == 0
                assert seen[name] == [1] * len(handles)
                assert [get_threads() for _, get_threads in handles] == before
        finally:
            for (set_threads, _), count in zip(handles, saved):
                set_threads(count)


    def test_pin_finds_an_openblas_loaded_after_a_light_command(self, tmp_path):
        # seminorm loads no scipy; the eigen run after it in the same process
        # must still pin the OpenBLAS that its import brings in
        sem = write(tmp_path / "sem.txt", "truth = f2\ns = 0.25\nlevel = 8\n")
        eig = write(tmp_path / "eig.txt", "n = 4000\nseed = 1000003\nepsilon = 0.25\nm = 64\n")
        probe = ("import sys\nfrom fracreg import cli\n"
                 "for argv in sys.argv[1:]:\n"
                 "    assert cli.main(argv.split()) == 0\n")
        done = run_subprocess(["-c", probe, "seminorm --config %s --out %s" % (sem, tmp_path / "s"),
                               "eigen --config %s --out %s" % (eig, tmp_path / "after")],
                              {"OPENBLAS_NUM_THREADS": "2"}, tmp_path)
        assert done.returncode == 0, done.stderr
        done = run_subprocess(["-m", "fracreg.cli", "eigen", "--config", eig,
                               "--out", str(tmp_path / "alone")],
                              {"OPENBLAS_NUM_THREADS": "1"}, tmp_path)
        assert done.returncode == 0, done.stderr
        assert ((tmp_path / "after" / "eigen.csv").read_bytes()
                == (tmp_path / "alone" / "eigen.csv").read_bytes())


def test_light_commands_load_no_scipy(tmp_path):
    sem = write(tmp_path / "sem.txt", "truth = f2\ns = [0.25, 0.75]\nlevel = 8\n")
    probe = """\
import sys

def scipy_loaded(stage):
    print(stage, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

import fracreg
scipy_loaded("package:")
import fracreg.cli
scipy_loaded("cli:")
assert fracreg.cli.main(["seminorm", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert fracreg.cli.main(["zoo", "--out", sys.argv[3]]) == 0
scipy_loaded("commands:")
assert callable(fracreg.fit) and fracreg.graph.build_graph is fracreg.cli.build_graph
"""
    done = run_subprocess(["-c", probe, sem, str(tmp_path / "s"), str(tmp_path / "z")],
                          {}, tmp_path)
    assert done.returncode == 0, done.stderr
    stages = [line for line in done.stdout.splitlines() if line.endswith(": []")]
    assert stages == ["package: []", "cli: []", "commands: []"], done.stdout
    assert (tmp_path / "s" / "seminorm.csv").exists() and (tmp_path / "z" / "f2.txt").exists()


def test_public_names_resolve():
    # a name left in fracreg's export table or in cli's lazy names after its
    # definition is gone would fail only on its first read
    for name in fracreg.__all__:
        getattr(fracreg, name)
    for name in cli._SOLVER_NAMES:
        assert getattr(cli, name) is getattr(fracreg, name)
