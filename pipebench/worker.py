"""One workload in one fresh interpreter; started by run.py.

Prints one JSON object on its last stdout line.  With --setup-only it only
imports, generates and validates the workload and reports how long that took.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import banditlp  # noqa: E402
from banditlp import validate_instance  # noqa: E402
from banditlp.oracle import estimate_joint_states  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = perf_counter() - _T0
MAX_FAULTS_KEPT = 20


def setup(workload: str, seed: int, size: str, tracer=None):
    """Generate and validate one round; returns (cases, seconds taken)."""
    make, validate = workloads.make_cases, validate_instance
    if tracer is not None:
        make = tracer.wrap("statespace.generate", make)
        validate = tracer.wrap("statespace.validate_instance", validate)
    t0 = perf_counter()
    cases = make(workload, seed, size)
    for inst in workloads.instances(cases):
        diags = validate(inst)
        if diags:
            raise ValueError(f"generated instance is invalid: {diags[0]}")
    return cases, perf_counter() - t0


class Tally:
    """What one measuring phase saw: times, failures, counts, gamma* values."""

    def __init__(self, cases):
        self.cases = cases
        self.times: dict[int, list[float]] = {}  # case index -> pipeline seconds per run
        self.rounds = 0
        self.runs = Counter()  # case index -> runs
        self.failed_runs = Counter()  # case index -> failed runs
        self.faults: list[str] = []
        self.ratios: list[float] = []
        self.gammas: dict[tuple, list[float]] = {}  # (case index, part) -> [min, max]
        self.dp_ran: set[tuple] = set()
        self.counts = Counter()

    def case(self, i: int, part: str):
        return self.cases[i] if part == "main" else self.cases[i].twin

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_runs.values())

    def best_times(self) -> list[float]:
        """Each case's fastest pipeline time over the rounds run.

        Best-of-rounds, as timeit reports: on a shared host the same work runs
        up to 25% slower for tens of seconds at a time, and the fastest of
        several repetitions is what stays put between runs.
        """
        return [min(t) for t in self.times.values()]

    def record(self, i: int, case, out, error: str | None, seconds: float) -> None:
        self.times.setdefault(i, []).append(seconds)
        self.runs[i] += 1
        faults = [error] if error is not None else workloads.check_case(case, out)
        if faults:
            self.failed_runs[i] += 1
            self._keep(f"{case.label}: " + "; ".join(faults))
            return
        ratio = workloads.value_ratio(out)
        if ratio is not None:
            self.ratios.append(ratio)
        parts = [("main", out)] + ([("twin", out.twin)] if out.twin is not None else [])
        for part, part_out in parts:
            g = part_out.solution.gamma_star
            lo_hi = self.gammas.setdefault((i, part), [g, g])
            lo_hi[0], lo_hi[1] = min(lo_hi[0], g), max(lo_hi[1], g)
            if part_out.mc is not None:
                self.counts["mc_traces"] += part_out.mc.reps
                self.counts["mc_violations"] += len(part_out.mc.violations)
            self.counts["traces"] += len(part_out.traces)
            self.counts["guard_skips"] += part_out.guard_skips
            if part_out.opt is not None:
                self.dp_ran.add((i, part))

    def fail_case(self, i: int, fault: str) -> None:
        """Mark every run of case i failed (a check made after the loop)."""
        self.failed_runs[i] = self.runs[i]
        self._keep(f"{self.cases[i].label}: {fault}")

    def _keep(self, fault: str) -> None:
        if len(self.faults) < MAX_FAULTS_KEPT:
            self.faults.append(fault)


def run_round(cases, api, tally: Tally, tracer=None) -> None:
    """Every case once, one after another; only the pipeline is timed."""
    for i, case in enumerate(cases):
        error = out = None
        if tracer is not None:
            tracer.instance = tally.attempted
            tracer.begin("pipeline.instance")
        t0 = perf_counter()
        try:
            out = workloads.run_case(case, api)
        except Exception as exc:  # an instance that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end()
                tracer.instance = None
        tally.record(i, case, out, error, dt)
    tally.rounds += 1


def measure(cases, seconds: float) -> Tally:
    """Closed loop over whole rounds until `seconds` of wall time have passed."""
    tally = Tally(cases)
    api = tracing.plain_api(workloads.ENTRY_POINTS)
    start = perf_counter()
    while True:
        run_round(cases, api, tally)
        if perf_counter() - start >= seconds:
            return tally


def measure_traced(cases, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Untraced and traced rounds in turn, so both see the same machine load.

    Returns (reference, traced); the difference between them is the tracing
    overhead.
    """
    reference, traced = Tally(cases), Tally(cases)
    plain = tracing.plain_api(workloads.ENTRY_POINTS)
    wrapped = tracing.traced_api(tracer, workloads.ENTRY_POINTS)
    start = perf_counter()
    while True:
        run_round(cases, plain, reference)
        with tracing.traced_library(tracer):
            run_round(cases, wrapped, traced, tracer)
        if perf_counter() - start >= seconds:
            return reference, traced


def check_against_highs(tally: Tally) -> None:
    """Every gamma* seen agrees with HiGHS within the relative tolerance."""
    for (i, part), (lo, hi) in sorted(tally.gammas.items()):
        ref = workloads.highs_gamma(tally.case(i, part))
        worst = max(abs(lo - ref), abs(hi - ref))
        if worst > workloads.HIGHS_RTOL * max(1.0, abs(ref)):
            tally.fail_case(i, f"{part} gamma* in [{lo!r}, {hi!r}] but HiGHS gives {ref!r}")


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples beyond it, else the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return 100.0 * (k + 1) / n, ordered[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(tally: Tally, rss_mb: float) -> tuple[dict, dict]:
    best = tally.best_times()
    p, tail_s = tail(best)
    metrics = {
        "instances_per_s": (len(best) / sum(best), "1/s"),
        "instance_p50_s": (statistics.median(best), "s"),
        "instance_tail_s": (tail_s, "s"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "value_ratio_mean": (statistics.fmean(tally.ratios) if tally.ratios else 0.0, "ratio"),
    }
    details = {"instance_tail_percentile": p, "instance_samples": len(best), "rounds": tally.rounds}
    return metrics, details


def per_layer(tracer, tally: Tally, reference: Tally) -> tuple[dict, dict]:
    self_s = tracer.self_times()
    wall = sum(self_s.values())  # = setup spans + pipeline.instance spans
    metrics = {"pipeline.wall_s": (wall, "s"), "pipeline.instances": (tally.attempted, "count")}
    for layer in tracing.LAYERS:
        metrics[f"{layer}_s"] = (self_s[layer], "s")
        metrics[f"{layer}_share"] = (self_s[layer] / wall, "ratio")
    lps = max(tracer.counts["lps"], 1)
    dp_cases = [tally.case(i, part) for i, part in sorted(tally.dp_ran)]
    est = [estimate_joint_states(c.instance, c.variant == "budgeted") for c in dp_cases]
    metrics.update(
        {
            "lp.solves": (tracer.counts["solves"], "count"),
            "lp.errors": (tracer.counts["lp_errors"], "count"),
            "relaxations.lp_vars": (tracer.counts["lp_vars"] / lps, "count"),
            "relaxations.lp_rows": (tracer.counts["lp_rows"] / lps, "count"),
            "relaxations.lp_nnz": (tracer.counts["lp_nnz"] / lps, "count"),
            "policies.mc_traces": (tally.counts["mc_traces"], "count"),
            "policies.mc_traces_per_s": (tally.counts["mc_traces"] / max(self_s["policies.mc"], 1e-12), "1/s"),
            "policies.mc_violations": (tally.counts["mc_violations"], "count"),
            "policies.traces": (tally.counts["traces"], "count"),
            "oracle.est_states": (statistics.fmean(est) if est else 0.0, "count"),
            "oracle.guard_skips": (tally.counts["guard_skips"], "count"),
            "statespace.states": (sum(len(a.states) for x in workloads.instances(tally.cases) for a in x.arms), "count"),
        }
    )
    ref_round = sum(reference.best_times())
    traced_round = sum(tally.best_times())
    metrics["trace.overhead_s"] = ((traced_round - ref_round) * tally.rounds, "s")
    metrics["trace.overhead_frac"] = (traced_round / ref_round - 1.0, "ratio")
    details = {"rounds": tally.rounds, "reference_rounds": reference.rounds, "spans": len(tracer.spans)}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--spans", help="file for the traced run's spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    cases, gen_s = setup(args.workload, args.seed, args.size, tracer)
    setup_s = IMPORT_S + gen_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is None:
        tallies = [measure(cases, args.seconds)]
    else:
        reference, traced = measure_traced(cases, args.seconds, tracer)
        tallies = [reference, traced]
    rss_mb = peak_rss_mb()  # before HiGHS loads scipy

    for t in tallies:  # HiGHS runs only now, after every timed region
        check_against_highs(t)
    import scipy

    if tracer is None:
        metrics, details = end_to_end(tallies[0], rss_mb)
    else:
        metrics, details = per_layer(tracer, traced, reference)
        if args.spans:
            tracer.write(args.spans)

    details.update(
        {
            "setup_s": setup_s,
            "faults": [f for t in tallies for f in t.faults],
            "env": {
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "banditlp": banditlp.__version__,
            },
        }
    )
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "details": details,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
