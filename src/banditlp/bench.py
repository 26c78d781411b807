"""Instance generators, guarantee-suite driver, and the adaptivity demo.

Canonical families:

* integrality gap - n identical two-level arms (reward-1 leaf w.p. 1/n,
  unit play cost, budget n); LP value 1, optimal adaptive value
  1 - (1 - 1/n)^n.
* adaptivity gap  - three hidden reward models per arm (always 0, always
  tiny, or mostly tiny with a rare 1); beliefs collapse to point masses or a
  thinning mixture chain, encoded as a depth-truncated DAG.
* random two-level / beta suites - small seeded instances sized for the DP
  oracle, with budgets that make exploration partially affordable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .oracle import OracleGuardError, dp_optimal
from .policies import evaluate_plan_exact, make_greedy_plan
from .relaxations import extract_single_arm_policies, solve_relaxation
from .statespace import (
    ArmStateSpace,
    BanditInstance,
    BeliefState,
    Objective,
    build_beta_bernoulli_arm,
    build_two_level_arm,
    make_concave_problem,
    validate_instance,
)


# ---------------------------------------------------------------------------
# Canonical families


def gen_integrality_gap(n: int) -> BanditInstance:
    """n identical star arms whose LP value is 1 but OPT is 1 - (1-1/n)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    arms = tuple(
        build_two_level_arm([0.0, 1.0], [1.0 - 1.0 / n, 1.0 / n], play_cost=1.0, switch_cost=0.0, arm_id=f"a{i}")
        for i in range(n)
    )
    return BanditInstance(arms=arms, budget=float(n), objective=Objective("budgeted"))


def _mix_posterior(k: int, q: float, a2: float) -> tuple[float, float]:
    """(P[R3], posterior mean) after k consecutive tiny-value observations."""
    odds2 = q * (1.0 - q)
    odds3 = q * q * (1.0 - q) ** k
    b3 = odds3 / (odds2 + odds3)
    mean3 = q + (1.0 - q) * a2
    return b3, (1.0 - b3) * a2 + b3 * mean3


def gen_adaptivity_gap(n: int, depth: int | None = None) -> BanditInstance:
    """Belief-state encoding of the sqrt(n) adaptivity-gap instance.

    Each arm hides one of three reward models: always 0 (mass 1-q), always
    a2 = n^-9 (mass q(1-q)), or 1 w.p. q else a2 (mass q^2), with q = 1/sqrt(n).
    Observing 0 or 1 collapses the belief; a run of tiny values thins the
    rare-model mass.  Unit play costs, budget 5n, depth truncated at the
    budget unless overridden.
    """
    m = math.isqrt(n)
    if m * m != n or n < 4:
        raise ValueError("n must be a perfect square >= 4")
    if n > 1000:
        raise ValueError("n > 1000 underflows the tiny reward value")
    q = 1.0 / m
    a2 = float(n) ** -9.0
    budget = 5 * n
    D = budget if depth is None else depth
    if D < 1:
        raise ValueError("depth must be >= 1")
    mean3 = q + (1.0 - q) * a2

    states: dict[str, BeliefState] = {}

    def put(sid: str, reward: float, d: int, transitions) -> str:
        cost = 1.0 if d < D else 0.0
        states[sid] = BeliefState(
            id=sid, reward=reward, play_cost=cost, transitions=tuple(transitions) if d < D else ()
        )
        return sid

    for d in range(1, D + 1):
        put(f"d{d}:R1", 0.0, d, [(f"d{d + 1}:R1", 1.0)])
        put(f"d{d}:R3", mean3, d, [(f"d{d + 1}:R3", 1.0)])
        b3, mean = _mix_posterior(d, q, a2)
        p3 = b3 * q
        put(f"d{d}:mix", mean, d, [(f"d{d + 1}:mix", 1.0 - p3), (f"d{d + 1}:R3", p3)])

    b3_root = q * q
    root_mean = q * (1.0 - q) * a2 + b3_root * mean3
    p_a1 = 1.0 - q
    p_a3 = b3_root * q
    p_a2 = 1.0 - p_a1 - p_a3
    put("d0", root_mean, 0, [("d1:R1", p_a1), ("d1:mix", p_a2), ("d1:R3", p_a3)])

    arms = tuple(
        ArmStateSpace(arm_id=f"a{i}", root="d0", states=states, switch_cost=0.0) for i in range(n)
    )
    return BanditInstance(arms=arms, budget=float(budget), objective=Objective("budgeted"))


# ---------------------------------------------------------------------------
# Random suites


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a seeded random suite."""

    family: str  # integrality-gap | adaptivity-gap | random-two-level | random-beta
    count: int = 1
    n: int | None = None  # family size for the canonical families
    max_arms: int = 3
    max_leaves: int = 4
    max_depth: int = 2
    cost_lo: int = 1
    cost_hi: int = 3
    switch_hi: int = 1
    budget_cap: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.family not in (
            "integrality-gap",
            "adaptivity-gap",
            "random-two-level",
            "random-beta",
        ):
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 1 or self.max_arms < 1 or self.max_leaves < 2 or self.max_depth < 1:
            raise ValueError("generator parameters out of range")
        if self.cost_lo < 0 or self.cost_hi < self.cost_lo:
            raise ValueError("bad cost range")


def _draw_two_level_arm(rng: np.random.Generator, spec: GeneratorSpec, arm_id: str) -> ArmStateSpace:
    m = int(rng.integers(2, spec.max_leaves + 1))
    values = [float(v) for v in rng.random(m)]
    raw = rng.random(m) + 0.1
    probs = raw / raw.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    c = int(rng.integers(spec.cost_lo, spec.cost_hi + 1))
    h = int(rng.integers(0, spec.switch_hi + 1))
    return build_two_level_arm(values, [float(p) for p in probs], play_cost=c, switch_cost=h, arm_id=arm_id)


def _draw_beta_arm(rng: np.random.Generator, spec: GeneratorSpec, arm_id: str) -> ArmStateSpace:
    a1 = int(rng.integers(1, 4))
    a2 = int(rng.integers(1, 4))
    depth = int(rng.integers(1, spec.max_depth + 1))
    c = int(rng.integers(spec.cost_lo, spec.cost_hi + 1))
    h = int(rng.integers(0, spec.switch_hi + 1))
    return build_beta_bernoulli_arm(a1, a2, depth, play_cost=c, switch_cost=h, arm_id=arm_id)


def gen_random_suite(spec: GeneratorSpec) -> list[BanditInstance]:
    """Deterministic-in-seed list of instances for the given family."""
    spec.validate()
    if spec.family == "integrality-gap":
        return [gen_integrality_gap(spec.n or 4) for _ in range(spec.count)]
    if spec.family == "adaptivity-gap":
        return [gen_adaptivity_gap(spec.n or 4) for _ in range(spec.count)]
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.count):
        n_arms = int(rng.integers(1, spec.max_arms + 1))
        arms = []
        for i in range(n_arms):
            if spec.family == "random-two-level":
                arms.append(_draw_two_level_arm(rng, spec, f"a{i}"))
            else:
                arms.append(_draw_beta_arm(rng, spec, f"a{i}"))
        first = min(a.first_play_cost() for a in arms)
        total = sum(a.max_exploration_cost() for a in arms)
        hi = max(int(first), int(total) // 2)
        if spec.budget_cap is not None:
            hi = min(hi, spec.budget_cap)
        hi = max(hi, int(first))
        budget = int(rng.integers(int(first), hi + 1))
        out.append(
            BanditInstance(arms=tuple(arms), budget=float(budget), objective=Objective("budgeted"))
        )
    return out


def as_lagrangean(instance: BanditInstance) -> BanditInstance:
    return BanditInstance(arms=instance.arms, budget=None, objective=Objective("lagrangean"))


def as_concave(
    instance: BanditInstance,
    capacity: float,
    epsilon: float,
    sigmas=None,
    value_tables=None,
) -> BanditInstance:
    prob = make_concave_problem(instance.arms, capacity, epsilon, sigmas, value_tables)
    return BanditInstance(
        arms=instance.arms, budget=instance.budget, objective=Objective("concave", concave=prob)
    )


def corrupt_instance(
    instance: BanditInstance, seed: int, magnitude: float = 1e-3
) -> BanditInstance:
    """Perturb one martingale reward or one transition row by `magnitude`."""
    rng = np.random.default_rng(seed)
    arm_idx = int(rng.integers(0, len(instance.arms)))
    arm = instance.arms[arm_idx]
    internal = [s for s in arm.topo_order() if not arm.states[s].is_leaf]
    sid = internal[int(rng.integers(0, len(internal)))]
    st = arm.states[sid]
    states = dict(arm.states)
    if rng.random() < 0.5:
        states[sid] = BeliefState(st.id, st.reward + magnitude, st.play_cost, st.transitions)
    else:
        child, p = st.transitions[0]
        perturbed = ((child, p + magnitude),) + st.transitions[1:]
        states[sid] = BeliefState(st.id, st.reward, st.play_cost, perturbed)
    new_arm = ArmStateSpace(arm.arm_id, arm.root, states, arm.switch_cost)
    arms = list(instance.arms)
    arms[arm_idx] = new_arm
    return BanditInstance(arms=tuple(arms), budget=instance.budget, objective=instance.objective)


# ---------------------------------------------------------------------------
# Guarantee suite


# A suite row passes when the plan's exact value is at least its bound times
# gamma* less SUITE_SLACK, and gamma* at least OPT less SUITE_SLACK: the
# acceptance gate's slack.  A spec cannot widen it.
SUITE_SLACK = 1e-6
# The DP oracle's joint-state limit in a suite: it runs on every budgeted and
# Lagrangean instance with alpha 1 within it.  A spec cannot change it.
SUITE_ORACLE_LIMIT = 2_000_000


@dataclass
class SuiteOptions:
    """How a suite runs: the bicriteria alpha and the budgeted rule.  No
    option skips the oracle or loosens a bound."""

    alpha: float = 1.0
    rule: str = "order"


@dataclass
class SuiteRow:
    instance: int
    gamma_star: float
    value: float
    cost: float
    bound: float
    opt: float | None
    ok: bool
    flags: list[str] = field(default_factory=list)
    cuts: int = 0  # the solve's statistics, as in RelaxationSolution
    master_pivots: int = 0
    duality_gap: float | None = None

    @property
    def lp_ratio(self) -> float:
        return self.value / self.gamma_star if self.gamma_star > 0 else math.inf


@dataclass
class EvaluationReport:
    variant: str
    rows: list[SuiteRow]
    options: SuiteOptions

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> dict:
        ratios = [r.lp_ratio for r in self.rows if math.isfinite(r.lp_ratio)]
        return {
            "variant": self.variant,
            "instances": len(self.rows),
            "all_ok": self.ok,
            "min_lp_ratio": min(ratios) if ratios else None,
            "violations": sum(1 for r in self.rows if not r.ok),
        }

    def to_json(self) -> dict:
        return {
            "summary": self.summary(),
            "rows": [
                {
                    "instance": r.instance,
                    "gamma_star": r.gamma_star,
                    "opt": r.opt,
                    "value": r.value,
                    "cost": r.cost,
                    "bound": r.bound,
                    "lp_ratio": r.lp_ratio if math.isfinite(r.lp_ratio) else None,
                    "opt_ratio": (r.value / r.opt) if r.opt else None,
                    "ok": r.ok,
                    "flags": r.flags,
                    "cuts": r.cuts,
                    "master_pivots": r.master_pivots,
                    "duality_gap": r.duality_gap,
                }
                for r in self.rows
            ],
        }


_CSV_COLUMNS = ("instance", "gamma_star", "opt", "value", "cost", "bound", "lp_ratio", "ok", "flags",
                "cuts", "master_pivots", "duality_gap")


def rows_to_csv(rows: list[dict]) -> str:
    """Suite rows in their JSON form (`EvaluationReport.to_json`) as CSV, the one
    writer of `banditlp suite` and `banditlp report`: None is an empty field,
    ok is 1 or 0 and the flags are joined by ';'."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows({**row, "ok": int(row["ok"]), "flags": ";".join(row["flags"])} for row in rows)
    return buf.getvalue()


def _bound_factor(variant: str, options: SuiteOptions, instance: BanditInstance) -> float:
    if variant == "budgeted":
        a = options.alpha
        return a / (2.0 * (1.0 + a)) if a > 1.0 else 0.25
    if variant == "lagrangean":
        return 0.5
    if variant == "concave":
        return (1.0 - instance.objective.concave.epsilon) / 8.0
    raise ValueError(variant)


def run_guarantee_suite(
    suite: Sequence[BanditInstance], variant: str, options: SuiteOptions | None = None
) -> EvaluationReport:
    """Per-instance guarantee-bound verification table.

    Each row reports gamma*, the rounded policy's exact value and cost, the
    variant's guarantee threshold, the DP optimum where the oracle fits, any
    invariant flags, and the solve's cuts, master pivots and duality gap.  A
    row fails when the policy value drops below its bound or gamma* falls
    below OPT.
    """
    options = options or SuiteOptions()
    rows: list[SuiteRow] = []
    for idx, instance in enumerate(suite):
        diags = validate_instance(instance)
        if diags:
            raise ValueError(f"instance {idx} is invalid: {diags[0]}")
        if instance.objective.kind != variant:
            raise ValueError(f"instance {idx} has objective {instance.objective.kind!r}, expected {variant!r}")
        flags: list[str] = []
        solution = solve_relaxation(instance)
        policies = extract_single_arm_policies(solution, instance)
        plan = make_greedy_plan(policies, instance, variant, alpha=options.alpha)
        bound = _bound_factor(variant, options, instance) * solution.gamma_star - SUITE_SLACK

        if variant == "lagrangean":
            for pol in policies:
                if pol.reward - pol.cost < -1e-7:
                    flags.append(f"arm {pol.arm_id}: R - C = {pol.reward - pol.cost:.3g} < 0")

        value, cost = evaluate_plan_exact(instance, plan, solution, rule=options.rule)

        opt = None
        if variant in ("budgeted", "lagrangean") and options.alpha == 1.0:
            try:
                opt, _ = dp_optimal(instance, limits=SUITE_ORACLE_LIMIT)
                if solution.gamma_star < opt - SUITE_SLACK:
                    flags.append(f"gamma* {solution.gamma_star:.6g} < OPT {opt:.6g}")
            except (OracleGuardError, ValueError):
                opt = None

        ok = value >= bound and not flags
        rows.append(
            SuiteRow(
                instance=idx,
                gamma_star=solution.gamma_star,
                value=value,
                cost=cost,
                bound=bound,
                opt=opt,
                ok=ok,
                flags=flags,
                cuts=solution.cuts,
                master_pivots=solution.master_pivots,
                duality_gap=solution.duality_gap,
            )
        )
    return EvaluationReport(variant=variant, rows=rows, options=options)


# ---------------------------------------------------------------------------
# Adaptivity-gap demo (two-phase adaptive strategy vs. uniform allocation)


def _model_matrix(n: int, q: float, rng: np.random.Generator, reps: int) -> np.ndarray:
    """Hidden model per (rep, arm): 0 = always 0, 1 = always tiny, 2 = rare hit."""
    u = rng.random((reps, n))
    models = np.zeros((reps, n), dtype=np.int8)
    models[u >= 1.0 - q] = 1
    models[u >= 1.0 - q + q * (1.0 - q)] = 2
    return models


def simulate_adaptive_strategy(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Exploitation value of the two-phase strategy, one entry per replication.

    Phase 1 plays every arm once and keeps up to 2*sqrt(n) non-zero observers
    (lowest ids); phase 2 replays each survivor 2*sqrt(n) times; any arm that
    showed the rare value is selected, otherwise the best posterior mean.
    """
    m = math.isqrt(n)
    q = 1.0 / m
    a2 = float(n) ** -9.0
    mean3 = q + (1.0 - q) * a2
    cap = 2 * m
    plays = 2 * m

    models = _model_matrix(n, q, rng, reps)
    bern1 = rng.random((reps, n))
    survived = models >= 1
    revealed1 = (models == 2) & (bern1 < q)
    selected = survived & (np.cumsum(survived, axis=1) <= cap)
    p_reveal2 = 1.0 - (1.0 - q) ** plays
    revealed2 = selected & (models == 2) & (rng.random((reps, n)) < p_reveal2)
    revealed = (revealed1 | revealed2).any(axis=1)

    _, pm_short = _mix_posterior(1, q, a2)  # survivor not re-tested
    _, pm_long = _mix_posterior(1 + plays, q, a2)  # survivor re-tested, no hit
    skipped = (survived & ~selected).any(axis=1)
    any_selected = selected.any(axis=1)
    values = np.where(
        revealed, mean3, np.where(skipped, pm_short, np.where(any_selected, pm_long, 0.0))
    )
    return values


def simulate_uniform_strategy(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Non-adaptive baseline: the budget 5n spread as 5 plays per arm."""
    m = math.isqrt(n)
    q = 1.0 / m
    a2 = float(n) ** -9.0
    mean3 = q + (1.0 - q) * a2
    plays = 5

    models = _model_matrix(n, q, rng, reps)
    p_reveal = 1.0 - (1.0 - q) ** plays
    revealed = ((models == 2) & (rng.random((reps, n)) < p_reveal)).any(axis=1)
    _, pm = _mix_posterior(plays, q, a2)
    any_tiny = (models >= 1).any(axis=1)
    return np.where(revealed, mean3, np.where(any_tiny, pm, 0.0))


def adaptivity_gap_demo(
    ns: Sequence[int] = (16, 64, 256), reps: int = 10_000, seed: int = 0
) -> list[dict]:
    """Adaptive-over-uniform value ratios; grows with n on the gap family."""
    out = []
    for n in ns:
        rng_a = np.random.default_rng(np.random.SeedSequence((seed, n, 0)))
        rng_u = np.random.default_rng(np.random.SeedSequence((seed, n, 1)))
        adaptive = simulate_adaptive_strategy(n, reps, rng_a)
        uniform = simulate_uniform_strategy(n, reps, rng_u)
        out.append(
            {
                "n": n,
                "adaptive": float(adaptive.mean()),
                "adaptive_se": float(adaptive.std(ddof=1) / math.sqrt(reps)),
                "uniform": float(uniform.mean()),
                "uniform_se": float(uniform.std(ddof=1) / math.sqrt(reps)),
                "ratio": float(adaptive.mean() / uniform.mean()),
            }
        )
    return out
