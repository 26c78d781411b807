"""The runtime dependency is numpy alone (pyproject.toml): a fresh interpreter
that imports banditlp and runs Monte-Carlo calls loads no other third-party
package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
before = set(sys.modules)
import banditlp
from banditlp.bench import gen_integrality_gap
inst = gen_integrality_gap(3)
sol = banditlp.solve_relaxation(inst)
plan = banditlp.make_greedy_plan(banditlp.extract_single_arm_policies(sol, inst), inst)
for reps in (4, 300):  # the scalar loop and the batched runner
    banditlp.monte_carlo_evaluate(inst, plan, sol, reps=reps, seed=1)
# modules without a file (numpy's Cython runtime registers two) are no packages
files = {name.partition(".")[0] for name in set(sys.modules) - before if getattr(sys.modules[name], "__file__", None)}
print(json.dumps(sorted(files - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_third_party_module_loaded():
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["banditlp", "numpy"]
