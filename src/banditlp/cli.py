"""Command-line interface: generate, validate, solve, plan, run, oracle, suite.

All output is machine-readable JSON unless asked for CSV.  A library
ValueError (bad input, such as a missing key, a value of the wrong JSON type
or a number that is NaN or infinite in an instance file, or an unsupported
variant), an instance over the oracle's guard or a solver failure
(LPSolverError) is reported as one JSON object {"error": message} with exit
code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import reprlib
import sys

from . import bench, oracle, policies, relaxations, statespace
from .lp import LPSolverError, format_lp


def _emit(doc) -> None:
    """Print one JSON document; a NaN or infinite number in it is a
    ValueError before anything is printed, since JSON has no such number."""
    sys.stdout.write(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def _pipeline(instance, alpha: float):
    solution = relaxations.solve_relaxation(instance)
    pols = relaxations.extract_single_arm_policies(solution, instance)
    plan = policies.make_greedy_plan(pols, instance, instance.objective.kind, alpha=alpha)
    return solution, pols, plan


def cmd_gen(args) -> int:
    if args.family == "integrality-gap":
        instance = bench.gen_integrality_gap(args.n)
    elif args.family == "adaptivity-gap":
        instance = bench.gen_adaptivity_gap(args.n, depth=args.depth)
    else:
        spec = bench.GeneratorSpec(family=args.family, count=1, max_arms=args.n or 3, seed=args.seed)
        instance = bench.gen_random_suite(spec)[0]
    statespace.save_instance(instance, args.output)
    _emit({"written": args.output, "arms": len(instance.arms), "budget": instance.budget})
    return 0


def cmd_validate(args) -> int:
    instance = statespace.load_instance(args.file)
    diags = bench.validate_instance(instance)
    _emit(
        {
            "file": args.file,
            "valid": not diags,
            "diagnostics": [dataclasses.asdict(d) for d in diags],
        }
    )
    return 0 if not diags else 1


def _apply_variant(instance, variant):
    if variant is None or variant == instance.objective.kind:
        return instance
    if variant == "lagrangean":
        return bench.as_lagrangean(instance)
    raise ValueError(f"cannot reinterpret a {instance.objective.kind} instance as {variant}")


def cmd_solve(args) -> int:
    instance = _apply_variant(statespace.load_instance(args.file), args.variant)
    if args.dump_lp:
        lp, _ = relaxations.build_relaxation(instance)
        with open(args.dump_lp, "w") as fh:
            fh.write(format_lp(lp))
    solution = relaxations.solve_relaxation(instance)
    _emit(
        {
            "status": "optimal",
            "gamma_star": solution.gamma_star,
            "cuts": solution.cuts,
            "duality_gap": solution.duality_gap,
            "master_pivots": solution.master_pivots,
            "master_bland_pivots": solution.master_bland_pivots,
            "values": solution.lp_values(instance),
        }
    )
    return 0


def _effective_alpha(args, instance) -> float:
    if args.alpha is not None:
        return args.alpha
    return instance.objective.alpha


def cmd_plan(args) -> int:
    instance = _apply_variant(statespace.load_instance(args.file), args.variant)
    solution, pols, plan = _pipeline(instance, _effective_alpha(args, instance))
    _emit(
        {
            "variant": plan.variant,
            "alpha": plan.alpha,
            "budget": plan.budget,
            "gamma_star": solution.gamma_star,
            "order": [
                {"arm": r.arm_id, "nu": r.nu, "mu": r.mu, "ratio": None if r.ratio in (float("inf"), float("-inf")) else r.ratio}
                for r in plan.order
            ],
            "stats": [
                {"arm": p.arm_id, "P": p.explore_prob, "R": p.reward, "C": p.cost} for p in pols
            ],
        }
    )
    return 0


def cmd_run(args) -> int:
    instance = _apply_variant(statespace.load_instance(args.file), args.variant)
    solution, _, plan = _pipeline(instance, _effective_alpha(args, instance))
    kind = instance.objective.kind
    if args.reps:
        report = policies.monte_carlo_evaluate(
            instance, plan, solution, args.reps, args.seed, rule=args.rule
        )
        _emit(
            {
                "variant": kind,
                "reps": report.reps,
                "mean": report.mean,
                "stderr": report.stderr,
                "mean_cost": report.mean_cost,
                "max_cost": report.max_cost,
                "violations": report.violations,
            }
        )
        return 0
    if kind == "budgeted":
        runner = (
            policies.execute_greedy_violate if args.rule == "violate" else policies.execute_greedy_order
        )
        trace = runner(instance, plan, solution, args.seed)
    elif kind == "lagrangean":
        trace = policies.execute_lagrangean_greedy(instance, plan, solution, args.seed)
    else:
        trace = policies.execute_concave_greedy(instance, plan, solution, args.seed)
    sys.stdout.write(policies.trace_to_jsonl(trace))
    return 0


def cmd_oracle(args) -> int:
    instance = _apply_variant(statespace.load_instance(args.file), args.variant)
    opt, _ = oracle.dp_optimal(instance, limits=args.limit)
    solution = relaxations.solve_relaxation(instance)
    _emit(
        {
            "opt": opt,
            "gamma_star": solution.gamma_star,
            "ratio": solution.gamma_star / opt if opt > 0 else None,
        }
    )
    return 0


def _check_spec(doc, known: set[str], what: str) -> None:
    """Refuse, saying where, a spec that is not an object, an unknown key, or
    a value not of its JSON type: family, variant and rule are strings, B,
    epsilon and alpha finite numbers, options an object, and every other
    value an integer (n and budget_cap may be null); a boolean is none of
    these."""
    statespace._typed(doc, dict, "an object", what)
    for key, value in doc.items():
        where = f"{what}: {key}"
        if key not in known:
            raise ValueError(f"unknown key {key!r} in the {what}; expected one of {sorted(known)}")
        if key in ("family", "variant", "rule"):
            statespace._typed(value, str, "a string", where)
        elif key in ("B", "epsilon", "alpha"):
            statespace._number(value, where)
        elif key != "options" and not (value is None and key in ("n", "budget_cap")):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{where}: expected an integer, got {reprlib.repr(value)}")


def cmd_suite(args) -> int:
    with open(args.spec) as fh:
        doc = json.load(fh)
    spec_fields = {f.name for f in dataclasses.fields(bench.GeneratorSpec)}
    opt_fields = {f.name for f in dataclasses.fields(bench.SuiteOptions)}
    _check_spec(doc, spec_fields | {"variant", "B", "epsilon", "options"}, "suite spec")
    _check_spec(doc.get("options", {}), opt_fields, "suite options")
    spec = bench.GeneratorSpec(**{k: v for k, v in doc.items() if k in spec_fields})
    suite = bench.gen_random_suite(spec)
    variant = doc.get("variant", "budgeted")
    if variant == "lagrangean":
        suite = [bench.as_lagrangean(i) for i in suite]
    elif variant == "concave":
        suite = [
            bench.as_concave(i, doc.get("B", 1.0), doc.get("epsilon", 0.25)) for i in suite
        ]
    options = bench.SuiteOptions(**doc.get("options", {}))
    report = bench.run_guarantee_suite(suite, variant, options)
    doc_out = report.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc_out, fh, indent=1)
    if args.format == "csv":
        sys.stdout.write(bench.rows_to_csv(doc_out["rows"]))
    else:
        _emit(doc_out)
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    with open(args.file) as fh:
        doc = json.load(fh)
    if args.format == "json":
        _emit(doc)
        return 0
    sys.stdout.write(bench.rows_to_csv(doc.get("rows", [])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="banditlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True,
                   choices=["integrality-gap", "adaptivity-gap", "random-two-level", "random-beta"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="model diagnostics for an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the instance's LP relaxation")
    p.add_argument("file")
    p.add_argument("--variant", choices=["budgeted", "lagrangean", "concave"], default=None)
    p.add_argument("--dump-lp", default=None, help="write the LP in text interchange format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("plan", help="print the greedy ordering and per-arm statistics")
    p.add_argument("file")
    p.add_argument("--variant", choices=["budgeted", "lagrangean", "concave"], default=None)
    p.add_argument("--alpha", type=float, default=None, help="bicriteria budget factor (defaults to the instance file's alpha)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute the rounded policy (trace or Monte-Carlo)")
    p.add_argument("file")
    p.add_argument("--variant", choices=["budgeted", "lagrangean", "concave"], default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None, help="bicriteria budget factor (defaults to the instance file's alpha)")
    p.add_argument("--rule", choices=["order", "violate"], default="order")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="exact DP optimum vs gamma*")
    p.add_argument("file")
    p.add_argument("--variant", choices=["budgeted", "lagrangean"], default=None)
    p.add_argument("--limit", type=int, default=oracle.ORACLE_GUARD)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("suite", help="generate a suite and run the guarantee checks")
    p.add_argument("--spec", required=True, help="JSON file with GeneratorSpec fields + variant/options")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("report", help="re-emit a saved suite report")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, oracle.OracleGuardError, LPSolverError) as exc:
        _emit({"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
