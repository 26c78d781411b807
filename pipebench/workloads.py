"""Seeded inputs, the per-instance pipeline and its output checks.

A workload is a list of `Case`s, one *round*.  The measuring loop runs the
round again and again in a closed loop, one case at a time, so every round
does the same work.  Instances come only from the library's public builders
and generators; the pipeline calls only the library's public entry points,
through an `api` namespace that the traced run swaps for wrapped functions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from banditlp import (
    BanditInstance,
    GeneratorSpec,
    Objective,
    OracleGuardError,
    as_concave,
    as_lagrangean,
    build_beta_bernoulli_arm,
    build_two_level_arm,
    check_feasibility,
    gen_random_suite,
)
from banditlp.lp import objective_value
from banditlp.oracle import ORACLE_GUARD
from banditlp.relaxations import build_budgeted_lp, build_concave_lp, build_lagrangean_lp

WORKLOADS = ("ladder", "suite", "oracle", "concave-mc")
SIZES = ("full", "tiny")

# the relaxation builder of each variant, for the HiGHS reference solve
BUILDERS = {
    "budgeted": build_budgeted_lp,
    "lagrangean": build_lagrangean_lp,
    "concave": build_concave_lp,
}
EXECUTORS = {
    "budgeted": "execute_greedy_order",
    "lagrangean": "execute_lagrangean_greedy",
    "concave": "execute_concave_greedy",
}
# public entry points the pipeline calls, with the module that defines each
ENTRY_POINTS = {
    "solve_relaxation": "relaxations",
    "extract_single_arm_policies": "relaxations",
    "make_greedy_plan": "policies",
    "evaluate_plan_exact": "policies",
    "monte_carlo_evaluate": "policies",
    "execute_greedy_order": "policies",
    "execute_lagrangean_greedy": "policies",
    "execute_concave_greedy": "policies",
    "verify_trace": "policies",
    "GreedyOrderProcess": "policies",
    "dp_optimal": "oracle",
    "enumerate_policy_statistics": "oracle",
}

TOL = 1e-6  # guarantee and OPT <= gamma* slack, as in the acceptance gate
ENUM_TOL = 1e-9  # exact plan value vs. joint-state enumeration
HIGHS_RTOL = 1e-6  # gamma* vs. HiGHS, relative
RAISED_LIMIT = 10**9  # oracle guard for the deep budgeted ladders


@dataclass(frozen=True)
class Case:
    """One instance and how far the pipeline takes it."""

    label: str
    instance: BanditInstance
    variant: str  # budgeted | lagrangean | concave
    mc_reps: int = 0  # Monte-Carlo replications (0: none)
    mc_seed: int = 0  # Monte-Carlo seed; trace k uses mc_seed + k
    traces: int = 0  # recorded traces audited by verify_trace
    oracle_limit: int | None = None  # dp_optimal guard; None: no oracle
    twin: "Case | None" = None  # budgeted case on the same arms (concave only)


@dataclass
class Outcome:
    """Everything one pipeline run produced, kept until its checks ran."""

    solution: object
    plan: object
    exact: float | None = None
    mc: object = None
    traces: list = field(default_factory=list)
    trace_faults: list = field(default_factory=list)
    opt: float | None = None
    stats: object = None
    guard_skips: int = 0
    twin: "Outcome | None" = None

    @property
    def value(self) -> float:
        """Plan value: exact where an exact evaluator exists, else the MC mean."""
        return self.exact if self.exact is not None else self.mc.mean


# ---------------------------------------------------------------------------
# Inputs


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _distinct_ladder(rng: np.random.Generator, n: int, d: int, kind: str) -> BanditInstance:
    """n Beta-Bernoulli arms of depth d, unit play cost, budget n*d//2.

    Every arm gets its own (prior, switch cost) pair and exactly n//2 arms pay
    a switch cost, so no two arms are interchangeable and the oracle's
    symmetry reduction, hence its work, does not depend on the seed.
    """
    priors = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    picks = rng.choice(len(priors), size=n, replace=n > len(priors))
    switch = np.zeros(n, dtype=int)
    switch[rng.choice(n, size=n // 2, replace=False)] = 1
    arms = tuple(
        build_beta_bernoulli_arm(
            priors[picks[i]][0], priors[picks[i]][1], d, play_cost=1, switch_cost=int(switch[i]), arm_id=f"a{i}"
        )
        for i in range(n)
    )
    budget = float(n * d // 2) if kind == "budgeted" else None
    return BanditInstance(arms=arms, budget=budget, objective=Objective(kind))


def _shape(inst: BanditInstance) -> tuple[int, ...]:
    """The instance's arms' state counts, sorted."""
    return tuple(sorted(len(arm.states) for arm in inst.arms))


def _acceptance_mix(seed: int, per_family: int) -> list[BanditInstance]:
    """The acceptance gate's tiny random two-level and Beta instances,
    stratified by shape.

    `gen_random_suite` with the fixed reference seed 0 sets how many
    instances of each shape (the arms' state counts) a family gets.  The
    workload seed's own draws then fill those quotas in the order drawn, and
    an instance whose shape is full is passed over.  Without the quotas, the
    shapes drawn move one round's work by about +-6% between seeds.
    """
    out = []
    for tag, family in enumerate(("random-two-level", "random-beta")):
        reference = GeneratorSpec(family=family, count=per_family, seed=0, budget_cap=5)
        quota = Counter(_shape(inst) for inst in gen_random_suite(reference))
        chunk = 0
        while quota.total():
            spec = GeneratorSpec(
                family=family, count=per_family, seed=_subseed(seed, 1000 * chunk + tag), budget_cap=5
            )
            for inst in gen_random_suite(spec):
                if quota[_shape(inst)] > 0:
                    quota[_shape(inst)] -= 1
                    out.append(inst)
            chunk += 1
    return out


def _roadmap_ladder(n: int, d: int) -> BanditInstance:
    """The ROADMAP's baseline ladder instance, the same for every seed.

    Arm i is Beta(1 + i%3, 1 + 7i%3) with depth d, unit play cost, switch cost
    i%2, budget n*d//2.  Drawing priors or reordering arms from the seed moves
    the tableau simplex's pivot count, and with it the solve time of one 10x6
    instance, by up to +-25%.  Even seeded arm names move it: they change the
    solver's set iteration order, and the 4x4 solve then varies by up to 40%.
    """
    arms = tuple(
        build_beta_bernoulli_arm(1 + i % 3, 1 + (i * 7) % 3, d, play_cost=1, switch_cost=i % 2, arm_id=f"a{i}")
        for i in range(n)
    )
    return BanditInstance(arms=arms, budget=float(n * d // 2), objective=Objective("budgeted"))


def _ladder(seed: int, size: str) -> list[Case]:
    """The seed draws the Monte-Carlo audit's and the traces' streams."""
    shapes = [(5, 4), (6, 4), (7, 4)] if size == "full" else [(3, 2), (4, 2)]
    return [
        Case(
            label=f"budgeted {n}x{d}",
            instance=_roadmap_ladder(n, d),
            variant="budgeted",
            mc_reps=200,
            mc_seed=_subseed(seed, 100 + k),
            traces=2,
            oracle_limit=ORACLE_GUARD,  # the default guard: these are skipped
        )
        for k, (n, d) in enumerate(shapes)
    ]


def _suite(seed: int, size: str) -> list[Case]:
    cases = []
    for k, inst in enumerate(_acceptance_mix(seed, 100 if size == "full" else 3)):
        for variant, variant_inst in (("budgeted", inst), ("lagrangean", as_lagrangean(inst))):
            cases.append(
                Case(
                    label=f"{variant} #{k}",
                    instance=variant_inst,
                    variant=variant,
                    mc_reps=4,
                    mc_seed=_subseed(seed, 1000 + k),
                    traces=1,
                    oracle_limit=ORACLE_GUARD,
                )
            )
    return cases


def _oracle(seed: int, size: str) -> list[Case]:
    rng = np.random.default_rng(_subseed(seed, 20))
    shapes = (
        [("budgeted", 4, 5), ("budgeted", 7, 2), ("lagrangean", 4, 3)]
        if size == "full"
        else [("budgeted", 3, 2), ("lagrangean", 3, 2)]
    )
    return [
        Case(
            label=f"{kind} {n}x{d}",
            instance=_distinct_ladder(rng, n, d, kind),
            variant=kind,
            mc_reps=200,
            mc_seed=_subseed(seed, 200 + k),
            traces=2,
            oracle_limit=RAISED_LIMIT,
        )
        for k, (kind, n, d) in enumerate(shapes)
    ]


CONCAVE_PER_CAPACITY = 12  # slots with B = 1, then as many with B = 2


def _concave_base(rng: np.random.Generator, k: int) -> BanditInstance:
    """Slot k's budgeted base instance: a fixed shape, seeded contents.

    The shape depends on k alone and stays in the acceptance mix's ranges:
    1-3 arms, two-level arms with 2-4 leaves or Beta-Bernoulli arms of depth
    1-2, play cost 1-3, switch cost 0-1, budget at most 5.  The seed draws the
    leaf values and probabilities and the Beta priors.  Drawing the arm counts
    and depths from the seed as well moved one round's Monte-Carlo work by
    about +-10% between seeds.
    """
    n = 1 + k % 3
    two_level = (k // 3) % 2 == 0
    arms = []
    for i in range(n):
        cost, switch, arm_id = 1 + (k + i) % 3, (k + i) % 2, f"a{i}"
        if two_level:
            m = 2 + (k // 6 + i) % 3
            raw = rng.random(m) + 0.1
            probs = raw / raw.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            values = [float(v) for v in rng.random(m)]
            arms.append(build_two_level_arm(values, [float(p) for p in probs], cost, switch, arm_id))
        else:
            a1, a2 = (int(v) for v in rng.integers(1, 4, size=2))
            arms.append(build_beta_bernoulli_arm(a1, a2, 1 + (k // 6) % 2, cost, switch, arm_id))
    first = min(a.first_play_cost() for a in arms)
    total = sum(a.max_exploration_cost() for a in arms)
    budget = min(5.0, max(first, float(int(total) // 2)))
    return BanditInstance(arms=tuple(arms), budget=budget, objective=Objective("budgeted"))


def _concave_mc(seed: int, size: str) -> list[Case]:
    rng = np.random.default_rng(_subseed(seed, 30))
    cases = []
    for k in range(2 * CONCAVE_PER_CAPACITY if size == "full" else 4):
        base = _concave_base(rng, k)
        twin = Case(label=f"budgeted twin #{k}", instance=base, variant="budgeted", oracle_limit=ORACLE_GUARD)
        cases.append(
            Case(
                label=f"concave #{k}",
                instance=as_concave(base, capacity=1.0 + k // CONCAVE_PER_CAPACITY, epsilon=0.25),
                variant="concave",
                mc_reps=800 if size == "full" else 100,
                mc_seed=_subseed(seed, 3000 + k),
                traces=5,
                twin=twin,
            )
        )
    return cases


def make_cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    """One round of the workload, deterministic in the seed."""
    makers = {"ladder": _ladder, "suite": _suite, "oracle": _oracle, "concave-mc": _concave_mc}
    return makers[workload](seed, size)


def instances(cases: list[Case]) -> list[BanditInstance]:
    """Every instance a round touches, twins included."""
    out = []
    for case in cases:
        out.append(case.instance)
        if case.twin is not None:
            out.append(case.twin.instance)
    return out


# ---------------------------------------------------------------------------
# Pipeline


def run_case(case: Case, api) -> Outcome:
    """solve -> extract -> plan -> evaluate -> audit traces -> oracle."""
    inst = case.instance
    solution = api.solve_relaxation(inst)
    policies = api.extract_single_arm_policies(solution, inst)
    plan = api.make_greedy_plan(policies, inst, case.variant)
    out = Outcome(solution=solution, plan=plan)
    if case.variant != "concave":
        out.exact, _ = api.evaluate_plan_exact(inst, plan, solution)
    if case.mc_reps:
        out.mc = api.monte_carlo_evaluate(inst, plan, solution, case.mc_reps, case.mc_seed)
    execute = getattr(api, EXECUTORS[case.variant])
    for k in range(case.traces):
        trace = execute(inst, plan, solution, rng_seed=case.mc_seed + k)
        out.traces.append(trace)
        out.trace_faults += api.verify_trace(trace, inst, plan)
    if case.oracle_limit is not None:
        table = None
        try:
            out.opt, table = api.dp_optimal(inst, limits=case.oracle_limit)
        except OracleGuardError:
            out.guard_skips += 1
        # the budgeted plan's own joint-state process cross-checks the exact
        # evaluator; lagrangean plans have none, so walk the DP's policy
        policy = api.GreedyOrderProcess(inst, plan, solution) if case.variant == "budgeted" else table
        if policy is not None:
            try:
                out.stats = api.enumerate_policy_statistics(inst, policy, limits=case.oracle_limit)
            except OracleGuardError:
                out.guard_skips += 1
    if case.twin is not None:
        out.twin = run_case(case.twin, api)
    return out


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)


def check_case(case: Case, out: Outcome) -> list[str]:
    """Failed output checks of one pipeline run; empty when it is correct."""
    inst = case.instance
    gamma = out.solution.gamma_star
    faults = [f"invariant: {m}" for m in out.solution.check_invariants(inst)]
    if case.variant == "budgeted" and out.exact < gamma / 4.0 - TOL:
        faults.append(f"exact value {out.exact:.6g} < gamma*/4 = {gamma / 4.0:.6g}")
    if case.variant == "lagrangean" and out.exact < gamma / 2.0 - TOL:
        faults.append(f"exact profit {out.exact:.6g} < gamma*/2 = {gamma / 2.0:.6g}")
    if case.variant == "concave":
        eps = inst.objective.concave.epsilon
        bound = (1.0 - eps) * gamma / 8.0
        if out.mc.mean - 3.0 * out.mc.stderr < bound - TOL:
            faults.append(f"MC mean - 3se {out.mc.mean - 3.0 * out.mc.stderr:.6g} < (1-eps)gamma*/8 = {bound:.6g}")
        faults += _packing_faults(inst, out.traces)
    if out.mc is not None:
        faults += [f"MC: {v}" for v in out.mc.violations]
    faults += [f"trace: {v}" for v in out.trace_faults]
    if out.opt is not None and out.opt > gamma + TOL:
        faults.append(f"OPT {out.opt:.9g} > gamma* {gamma:.9g}")
    if out.stats is not None:
        faults += _enumeration_faults(case, out)
    if out.twin is not None:
        faults += [f"twin: {m}" for m in check_case(case.twin, out.twin)]
        # unit sizes and linear utilities with B >= 1: the concave LP relaxes
        # the budgeted one on the same arms
        if out.twin.solution.gamma_star > gamma + TOL:
            faults.append(f"budgeted gamma* {out.twin.solution.gamma_star:.9g} > concave gamma* {gamma:.9g}")
    return faults


def _packing_faults(inst: BanditInstance, traces) -> list[str]:
    """Halved grid weights pack within B, in exact arithmetic."""
    prob = inst.objective.concave
    out = []
    for trace in traces:
        packed = sum(
            Fraction(prob.sigmas[a]) * Fraction(n, 2 * trace.grid) for a, n in trace.weight_numerators.items()
        )
        if packed > Fraction(prob.capacity):
            out.append(f"trace {trace.seed}: packed weight {float(packed):.6g} > B")
    return out


def _enumeration_faults(case: Case, out: Outcome) -> list[str]:
    if case.variant == "budgeted":
        if abs(out.stats.expected_reward - out.exact) > ENUM_TOL:
            return [f"enumerated value {out.stats.expected_reward!r} != exact value {out.exact!r}"]
        return []
    # lagrangean: the DP policy's occupancies satisfy the LP rows, and their LP
    # objective (switch cost charged once per arm) lies between OPT and gamma*
    lp = build_lagrangean_lp(case.instance)
    values = out.stats.as_lp_values()
    faults = [f"DP occupancy violates {what} by {by:.3g}" for what, by in check_feasibility(lp, values, tol=TOL)]
    lp_value = objective_value(lp, values)
    if not out.opt - ENUM_TOL <= lp_value <= out.solution.gamma_star + TOL:
        faults.append(f"DP occupancy objective {lp_value:.9g} outside [OPT, gamma*]")
    return faults


def value_ratio(out: Outcome) -> float | None:
    gamma = out.solution.gamma_star
    return out.value / gamma if gamma > 1e-12 else None


def highs_gamma(case: Case) -> float:
    """gamma* of the case's relaxation by HiGHS (scipy), the reference solver."""
    from scipy.optimize import linprog

    lp = BUILDERS[case.variant](case.instance)
    index = {name: i for i, (name, _, _) in enumerate(lp.variables)}
    c = np.zeros(len(index))
    for name, coef in lp.objective.items():
        c[index[name]] = -coef
    rows = {"<=": ([], []), "==": ([], [])}
    for con in lp.constraints:
        row = np.zeros(len(index))
        for name, coef in con.coeffs.items():
            row[index[name]] = coef
        rows[con.relation][0].append(row)
        rows[con.relation][1].append(con.rhs)

    def stack(rel):
        a, b = rows[rel]
        return (np.array(a), np.array(b)) if a else (None, None)

    a_ub, b_ub = stack("<=")
    a_eq, b_eq = stack("==")
    bounds = [(lb, ub if math.isfinite(ub) else None) for _, lb, ub in lp.variables]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -float(res.fun)
