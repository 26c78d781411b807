#!/usr/bin/env python3
"""One SHA-256 per benchmark workload over every output of the pipeline.

    python3 tools/pipeline_digest.py --seeds 1-3 --size full

Runs one round of each pipebench workload (`make_cases` and `run_case` of
`pipebench/workloads.py`, read-only) on the library in this checkout's
`src/`, and prints one digest per (workload, seed) over the bytes of every
gamma*, every solution's w, x and z, every plan, exact value, Monte-Carlo
report (its `values` array, mean, stderr, mean and max cost and
violations), trace (`trace_to_jsonl`), OPT and policy statistics, twins
included; a float enters as its repr, which round-trips its bits.  Two
revisions that print the same digests computed the same outputs to the bit.
The script runs itself with PYTHONHASHSEED=0, as the benchmark runs its
workers.  Standard library plus banditlp.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ladder", "suite", "concave-mc", "oracle")


def digest(workload: str, seed: int, size: str) -> str:
    import banditlp
    import workloads

    api = types.SimpleNamespace(**{name: getattr(banditlp, name) for name in workloads.ENTRY_POINTS})
    h = hashlib.sha256()
    for case in workloads.make_cases(workload, seed, size):
        out = workloads.run_case(case, api)
        while out is not None:
            sol = out.solution
            h.update(repr((sol.gamma_star, sol.w, sol.x, sol.z, out.plan, out.exact, out.opt, out.stats)).encode())
            mc = out.mc
            if mc is not None:
                h.update(mc.values.tobytes())
                h.update(repr((mc.mean, mc.stderr, mc.mean_cost, mc.max_cost, mc.violations)).encode())
            for trace in out.traces:
                h.update(banditlp.trace_to_jsonl(trace).encode())
            out = out.twin
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1", help="e.g. 1-3 or 1,5")
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)
    seeds = []
    for part in args.seeds.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "pipebench")]
    for workload in WORKLOADS:
        for seed in seeds:
            print(f"{workload} {seed} {args.size} {digest(workload, seed, args.size)}", flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.exit(main())
