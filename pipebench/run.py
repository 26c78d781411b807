#!/usr/bin/env python3
"""Pipeline benchmark for banditlp: one workload per invocation.

    python3 pipebench/run.py --workload ladder --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/`.  Each workload runs in a fresh interpreter with BLAS/OpenMP pinned to
one thread.  With --trace 0 the last stdout line is the end-to-end metrics,
with --trace 1 the per-layer ones, as one JSON object with the keys correct,
attempted, failed and metrics.  Details (tail percentile, sample counts,
versions, thread pins, failed checks) go to pipebench/out/, the traced run's
spans too.  See pipebench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ladder", "suite", "oracle", "concave-mc")  # as in workloads.py, which imports the library
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 8  # extra fresh interpreters that only set up, for setup_s
DEADLINE_S = 175.0  # every child is killed and reaped before this


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC  # this checkout's library, never an installed one
    env["PYTHONHASHSEED"] = "0"  # same dict/set order, hence same float sums, every run
    return env


def run_worker(args, deadline: float, extra: list[str]) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ] + extra
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the smoke test's inputs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "banditlp", "__init__.py")):
        print(f"error: no banditlp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        result = run_worker(args, deadline, ["--spans", stem + "-spans.json"] if args.trace else [])
        details = result.pop("details")
        if not args.trace:
            samples = [details["setup_s"]]
            for _ in range(SETUP_PROBES):
                samples.append(run_worker(args, deadline, ["--setup-only"])["setup_s"])
            result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
            details["setup_samples_s"] = samples
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    details["env"].update({"thread_pins": THREAD_PINS, "pythonhashseed": "0"})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, **result, "details": details}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for fault in details["faults"]:
        print(f"failed check: {fault}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
