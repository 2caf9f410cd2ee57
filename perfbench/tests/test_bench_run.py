import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_unit(workload, trace, tmp_path):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--smoke", "--results", str(tmp_path / "r.jsonl"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith("metric %s %s = " % (workload, m["name"]))
                   and line.split(" = ", 1)[1].split()[1] == m["unit"] for line in lines)
    if trace == "0":
        assert any(" failed_share = 0 " in line for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "seminorm_zoo", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, True)[0] == "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, False)[0] == "within bound"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1, True)[0] \
        == "regression"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", None, True)[0] == "no claim"
