"""Spans recorded around the library's public functions, from outside it.

A span is ``[name, start, end, parent, instance]``: `parent` is the index of
the enclosing span (None at top level) and `instance` the pipeline run it
belongs to.  Spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import banditlp
import banditlp.relaxations as relaxations
from banditlp import LPSolverError

# span name -> per-layer metric stem; unlisted spans count as pipeline glue
LAYER_OF_SPAN = {
    "statespace.generate": "statespace.generate",
    "statespace.validate_instance": "statespace.validate",
    "relaxations.build_budgeted_lp": "relaxations.build",
    "relaxations.build_lagrangean_lp": "relaxations.build",
    "relaxations.build_concave_lp": "relaxations.build",
    "lp.solve_lp": "lp.solve",
    "relaxations.RelaxationSolution.from_raw": "relaxations.cleanup",
    "relaxations.extract_single_arm_policies": "relaxations.extract",
    "policies.make_greedy_plan": "policies.plan",
    "policies.evaluate_plan_exact": "policies.exact",
    "policies.monte_carlo_evaluate": "policies.mc",
    "policies.execute_greedy_order": "policies.trace",
    "policies.execute_lagrangean_greedy": "policies.trace",
    "policies.execute_concave_greedy": "policies.trace",
    "policies.verify_trace": "policies.trace",
    "oracle.dp_optimal": "oracle.dp",
    "policies.GreedyOrderProcess": "oracle.enumerate",  # the enumeration's input
    "oracle.enumerate_policy_statistics": "oracle.enumerate",
}
GLUE = "pipeline.glue"  # pipeline.instance and solve_relaxation self time
LAYERS = tuple(dict.fromkeys(LAYER_OF_SPAN.values())) + (GLUE,)
_BUILDERS = ("build_budgeted_lp", "build_lagrangean_lp", "build_concave_lp")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._epoch = perf_counter()

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.instance])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def self_times(self) -> Counter:
        """Self time per layer, summed over all closed spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[LAYER_OF_SPAN.get(name, GLUE)] += (end - start) - child[k]
        return out

    def write(self, path: str) -> None:
        """Spans as one JSON document, times in seconds from the tracer's start."""
        rows = [
            [name, start - self._epoch, end - self._epoch, parent, inst]
            for name, start, end, parent, inst in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"], "spans": rows}, fh)


def plain_api(names) -> types.SimpleNamespace:
    return types.SimpleNamespace(**{name: getattr(banditlp, name) for name in names})


def traced_api(tracer: Tracer, modules: dict) -> types.SimpleNamespace:
    """The entry points, each wrapped in a span named module.function."""
    return types.SimpleNamespace(
        **{name: tracer.wrap(f"{module}.{name}", getattr(banditlp, name)) for name, module in modules.items()}
    )


@contextmanager
def traced_library(tracer: Tracer):
    """Wrap what solve_relaxation calls across modules: build, solve, cleanup.

    Patches the names `banditlp.relaxations` looks up at call time and puts
    them back on exit; no library file is changed.  LP sizes, solves and
    solver errors are counted here, outside the spans.
    """
    saved = {name: getattr(relaxations, name) for name in _BUILDERS + ("solve_lp",)}
    saved_from_raw = relaxations.RelaxationSolution.__dict__["from_raw"]

    def counting_builder(name):
        traced = tracer.wrap(f"relaxations.{name}", saved[name])

        def build(*args, **kwargs):
            lp = traced(*args, **kwargs)
            tracer.counts["lps"] += 1
            tracer.counts["lp_vars"] += len(lp.variables)
            tracer.counts["lp_rows"] += len(lp.constraints)
            tracer.counts["lp_nnz"] += sum(len(con.coeffs) for con in lp.constraints)
            return lp

        return build

    traced_solve = tracer.wrap("lp.solve_lp", saved["solve_lp"])

    def solve_lp(*args, **kwargs):
        tracer.counts["solves"] += 1
        try:
            raw = traced_solve(*args, **kwargs)
        except LPSolverError:
            tracer.counts["lp_errors"] += 1
            raise
        if raw.status != "optimal":
            tracer.counts["lp_errors"] += 1
        return raw

    traced_from_raw = tracer.wrap("relaxations.RelaxationSolution.from_raw", saved_from_raw.__func__)

    for name in _BUILDERS:
        setattr(relaxations, name, counting_builder(name))
    relaxations.solve_lp = solve_lp
    relaxations.RelaxationSolution.from_raw = classmethod(traced_from_raw)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(relaxations, name, fn)
        relaxations.RelaxationSolution.from_raw = saved_from_raw
