import csv

import pytest

import checks
import workloads as wl
from fracreg import cli


def run_op(op, tmp_path, name):
    code, out, _ = wl.run_op(cli, op, tmp_path / name)
    assert code == 0
    return out


def rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def smoke():
    return wl.workloads("smoke")


def test_eigen_check_rejects_perturbed_vector(smoke, tmp_path):
    op = smoke["eigen_large"].op(5, 0)
    out = run_op(op, tmp_path, "eigen")
    assert op.check(str(out)).failed == 0

    def perturb(rows):
        rows[3][10] = repr(float(rows[3][10]) + 1e-6)
    rewrite(out / "eigen.csv", perturb)
    result = op.check(str(out))
    assert result.failed == 1
    assert any("residual" in m for m in result.messages)


def test_eigen_check_rejects_reordered_values(smoke, tmp_path):
    op = smoke["eigen_large"].op(5, 1)
    out = run_op(op, tmp_path, "eigen")
    rewrite(out / "eigen.csv", lambda rows: rows.__setitem__(slice(2, 4), rows[3:1:-1]))
    assert any("ascend" in m for m in op.check(str(out)).messages)


def test_seminorm_check_rejects_flipped_divergence_flag(tmp_path):
    full = wl.workloads("full")["seminorm_zoo"]
    op = full.op(0, 1)  # f2: diverges from s = 0.55 on
    out = run_op(op, tmp_path, "seminorm")
    assert op.check(str(out)).failed == 0

    def flip(rows):
        row = next(r for r in rows[1:] if r[2] == "true")
        row[1], row[2] = "1.5", "false"
    rewrite(out / "seminorm.csv", flip)
    result = op.check(str(out))
    assert result.failed == 1
    assert any("diverged" in m for m in result.messages)


def test_seminorm_check_rejects_changed_value(tmp_path):
    op = wl.workloads("full")["seminorm_zoo"].op(0, 0)
    out = run_op(op, tmp_path, "seminorm")
    rewrite(out / "seminorm.csv", lambda rows: rows[1].__setitem__(1, "0.5"))
    assert op.check(str(out)).failed == 1


def test_sweep_check_rejects_missing_record(smoke, tmp_path):
    op = smoke["sweep_grid"].op(2, 0)
    out = run_op(op, tmp_path, "sweep")
    assert op.check(str(out)).failed == 0
    rewrite(out / "records.csv", lambda rows: rows.pop())
    result = op.check(str(out))
    assert result.failed == 1
    assert any("missing" in m for m in result.messages)


def test_sweep_check_counts_a_failed_job_once(smoke, tmp_path):
    # A failed job is left out of records.csv and listed in failures.csv.
    op = smoke["sweep_grid"].op(2, 0)
    out = run_op(op, tmp_path, "sweep")
    rewrite(out / "records.csv", lambda rows: rows.pop(1))
    with open(out / "failures.csv", "w") as fh:
        fh.write("n,rep,error\n60,0,SolverError: x\n")
    result = op.check(str(out))
    assert result.failed == 1
    assert any("failures.csv" in m for m in result.messages)


def test_sweep_check_fails_duplicate_record_once(smoke, tmp_path):
    op = smoke["sweep_grid"].op(2, 0)
    out = run_op(op, tmp_path, "sweep")
    rewrite(out / "records.csv", lambda rows: rows.append(rows[1]))
    assert op.check(str(out)).failed == 1


def test_sweep_check_compares_with_reference(smoke, tmp_path):
    op = smoke["sweep_grid"].op(2, 0)
    out = run_op(op, tmp_path, "sweep")
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ref = {(int(r["n"]), int(r["rep"])): (int(r["K"]), float(r["epsilon"]), float(r["mse"]))
           for r in rows}
    kwargs = dict(n_grid=(60, 80, 100), repetitions=1, k_grid=(1, 2, 4, 8), eps_grid=(0.5, 1.0))
    assert checks.check_sweep(str(out), reference=ref, **kwargs).failed == 0
    key = next(iter(ref))
    ref[key] = (ref[key][0], ref[key][1], ref[key][2] * (1 + 1e-5))
    assert checks.check_sweep(str(out), reference=ref, **kwargs).failed == 1


def test_exit_code_fails_every_unit():
    result = checks.CheckResult(units=5)
    assert not checks.check_exit(3, result)
    assert result.failed == 5
