#!/usr/bin/env python3
"""Paired benchmark of a change against its parent revision.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload suite --seeds 9101-9110 --label solve

Runs `pipebench/run.py --trace 0` once per seed on each side, for
BENCHMARK.json's run_seconds, from that side's own checkout: the parent
revision, checked out as a temporary `git worktree` that is removed
afterwards, and the working tree (or `--change REV`, checked out the same
way).  The sides alternate which runs first, parent first on the first
seed, so that a drift of the machine hits both.  `BENCH_<label>.json`
records the commits that ran and, for every end-to-end metric that
BENCHMARK.json lists, its value in each pair, each side's median and
quartiles, the change's wins (the pairs in which the change is better in
the metric's direction; a tie counts for neither), whether the change's
median is within the metric's relative bound of the parent's, whether a gain
is resolved (at least 9 wins in 10 pairs and the medians apart by more than
the parent's interquartile range) and whether the parent's own spread is
wider than the bound, which leaves the metric unresolved either way.
Each run also keeps `attempted`, the instances it ran, and the summary prints
each side's median of it: `peak_rss_mb` grows with the rounds a run
completes, so a faster side reads more memory with no change in the library.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'9101-9105,9200' -> [9101, 9102, 9103, 9104, 9105, 9200]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by linear interpolation between the order
    statistics (`statistics.quantiles`' inclusive method)."""
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict[str, dict]:
    """Per metric ({"name", "better", "bound"} as in BENCHMARK.json): each
    side's median and quartiles over the pairs, the change's wins and
    losses, whether the medians differ, in the better direction, by more
    than the parent's interquartile range, whether the change's median is
    worse than the parent's by at most bound times the parent's, whether the
    gain is resolved (wins in at least 9 of 10 pairs and beyond the parent's
    IQR) and whether the parent's IQR is wider than bound times its median,
    so that the pairs cannot tell a move within the bound.  A pair
    is {"parent": {name: value}, "change": {name: value}}; a metric missing
    from either side of a pair is left out of that pair."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        both = [(p["parent"][name], p["change"][name]) for p in pairs if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent, change = (quartiles([pair[k] for pair in both]) for k in (0, 1))
        gain = sign * (change["median"] - parent["median"])
        wins, iqr = sum(sign * (c - p) > 0.0 for p, c in both), parent["q3"] - parent["q1"]
        out[name] = {
            "better": metric["better"],
            "pairs": len(both),
            "parent": parent,
            "change": change,
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0) if parent["median"] else None,
            "wins": wins,
            "losses": sum(sign * (c - p) < 0.0 for p, c in both),
            "parent_iqr": iqr,
            "beyond_parent_iqr": gain > iqr,
            "within_bound": -gain <= metric["bound"] * abs(parent["median"]),
            "resolved": 10 * wins >= 9 * len(both) and gain > iqr,
            "spread_exceeds_bound": iqr > metric["bound"] * abs(parent["median"]),
        }
    return out


def attempted_medians(pairs: list[dict]) -> dict[str, float]:
    """Each side's median of the instances its runs attempted."""
    return {side: statistics.median([p[side]["attempted"] for p in pairs]) for side in ("parent", "change")}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One `pipebench/run.py --trace 0` in the checkout: its metric values and
    `attempted`, the instances it ran."""
    cmd = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{name: m["value"] for name, m in result["metrics"].items()}, "attempted": result["attempted"]}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout.strip()


@contextmanager
def checkout(rev: str | None):
    """A directory holding the revision: the working tree when rev is None,
    else a temporary worktree removed on exit."""
    if rev is None:
        yield ROOT
        return
    path = tempfile.mkdtemp(prefix="bench-pairs-")
    _git("worktree", "add", "--detach", path, rev)
    try:
        yield path
    finally:
        _git("worktree", "remove", "--force", path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--change", help="the change's revision (default: the working tree)")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 9101-9110 or 9101,9105")
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json at the repository root")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.change:
        change = _git("rev-parse", args.change)
    else:
        edited = " with uncommitted changes" if _git("status", "--porcelain", "--untracked-files=no") else ""
        change = f"working tree on {_git('rev-parse', 'HEAD')}{edited}"
    record = {
        "label": args.label,
        "parent": _git("rev-parse", args.parent),
        "change": change,
        "seconds": seconds,
        "seeds": seeds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "workloads": {},
    }
    with ExitStack() as stack:
        dirs = {
            "parent": stack.enter_context(checkout(args.parent)),
            "change": stack.enter_context(checkout(args.change)),
        }
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(pairs, bench["end_to_end"]),
                "attempted_median": attempted_medians(pairs),
            }
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, result in record["workloads"].items():
        attempted = result["attempted_median"]
        print(f"{workload} attempted: {attempted['parent']:.6g} -> {attempted['change']:.6g} (medians)")
        for name, s in result["summary"].items():
            print(f"{workload} {name}: {s['parent']['median']:.6g} -> {s['change']['median']:.6g} "
                  f"({s['wins']} of {s['pairs']} better, parent IQR {s['parent_iqr']:.3g}, "
                  f"{'within' if s['within_bound'] else 'beyond'} its bound, "
                  f"{'resolved' if s['resolved'] else 'not resolved'}"
                  f"{', parent spread beyond its bound: unresolved' if s['spread_exceeds_bound'] else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
