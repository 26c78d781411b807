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


# The tool's digests at size tiny, seed 1, over every output of the four
# workloads.  A change that moves any output bit must record the new digests
# here with its reason.
PINNED = {
    "ladder": "cd37563ddce4408d1778956a32c857f9f84dad4040e397bd086e9837fa91e680",
    "suite": "1c341dceb67640913d13c598f7f3e861e6aac1aca88fa1c77d1faa32c0ff323a",
    "concave-mc": "1b0a9d84d33e4ab109763536cb42f5b94dc067eb9ddff1ab13f8b59179021e85",
    "oracle": "8fb0cb77015aa9cfaf4653f4b2194d35c566188bfcef236fea59d5be3743a339",
}


def test_the_tiny_pipeline_digests_are_pinned():
    cmd = [sys.executable, str(TOOL), "--size", "tiny", "--seeds", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"{w} 1 tiny {h}" for w, h in PINNED.items()]
