"""Smoke test for the benchmark harness: every workload at a tiny size.

    python3 -m pytest pipebench/test_smoke.py -q

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit and that no output check failed.  No timing assertions.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "pipebench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["ladder", "suite", "oracle", "concave-mc"])  # all of run.py's
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac == 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("suite", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
