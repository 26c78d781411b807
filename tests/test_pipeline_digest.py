"""`tools/pipeline_digest.py`: the same outputs give the same digests."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "pipeline_digest.py"


def test_the_pipeline_digest_repeats_across_runs_and_hash_seeds():
    # two fresh interpreters with different hash seeds: the tool runs itself
    # with PYTHONHASHSEED=0, so every workload's round digests the same
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        cmd = [sys.executable, str(TOOL), "--size", "tiny", "--seeds", "1"]
        runs.append(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
    rows = [line.split() for line in runs[0].splitlines()]
    assert [row[:3] for row in rows] == [[w, "1", "tiny"] for w in ("ladder", "suite", "concave-mc", "oracle")]
    assert all(len(row[3]) == 64 for row in rows)
    assert runs[0] == runs[1]
