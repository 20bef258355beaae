"""Smoke test: every workload at a tiny size through the benchmark's own code path.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(script, workload, trace, cwd):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = run_bench(os.path.join(HERE, "run.py"), workload, trace, ROOT)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path / "perfbench" / "run.py"), SPEC["workloads"][0]["name"], 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_correction_takes_the_kernel_out():
    sys.path.insert(0, HERE)
    import hostspeed

    with hostspeed.timed() as t:
        sum(i * i for i in range(300_000))
    assert len(t.kernel_samples) >= 2
    assert 0 < t.net_s < t.wall_s
    assert t.corrected_s == pytest.approx(t.net_s * hostspeed.REF_KERNEL_S / t.kernel_s)
