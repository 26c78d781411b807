import math
from itertools import product

import pytest

from banditlp.bench import as_lagrangean, gen_integrality_gap, gen_random_suite, GeneratorSpec
from banditlp.lp import check_feasibility, objective_value
from banditlp.oracle import (
    JointState,
    OracleGuardError,
    dp_optimal,
    enumerate_policy_statistics,
    estimate_joint_states,
)
from banditlp.policies import GreedyOrderProcess, evaluate_plan_exact, make_greedy_plan
from banditlp.relaxations import build_budgeted_lp, extract_single_arm_policies, solve_relaxation
from banditlp.statespace import (
    ArmStateSpace,
    BanditInstance,
    BeliefState,
    Objective,
    build_beta_bernoulli_arm,
    build_two_level_arm,
)


def test_gap_instance_closed_form():
    for n in (2, 4):
        opt, _ = dp_optimal(gen_integrality_gap(n))
        assert opt == pytest.approx(1 - (1 - 1 / n) ** n, abs=1e-12)


def test_budget_zero_is_best_root():
    arms = (
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a0"),
        build_two_level_arm([0.6], [1.0], play_cost=1, arm_id="a1"),
    )
    inst = BanditInstance(arms=arms, budget=0.0, objective=Objective("budgeted"))
    opt, table = dp_optimal(inst)
    assert opt == pytest.approx(0.6, abs=1e-12)
    start = JointState(("root", "root"), 0, None)
    assert table.decide(start) == ("stop",)


def test_budget_monotonicity():
    suite = gen_random_suite(GeneratorSpec(family="random-beta", count=8, seed=21, budget_cap=4))
    for inst in suite:
        prev = None
        for budget in range(0, int(inst.budget) + 2):
            opt, _ = dp_optimal(
                BanditInstance(inst.arms, float(budget), Objective("budgeted"))
            )
            if prev is not None:
                assert opt >= prev - 1e-12
            prev = opt


def _exhaustive_single_arm_lagrangean(arm) -> float:
    """Best deterministic stopping rule by brute force (independent oracle)."""
    internal = [s for s in arm.topo_order() if not arm.states[s].is_leaf]
    best = -math.inf
    for bits in product([False, True], repeat=len(internal)):
        play = dict(zip(internal, bits))

        def val(sid: str, first: bool) -> float:
            st = arm.states[sid]
            if st.is_leaf or not play[sid]:
                return st.reward
            c = st.play_cost + (arm.switch_cost if first else 0.0)
            return -c + sum(p * val(ch, False) for ch, p in st.transitions)

        best = max(best, val(arm.root, True))
    return best


def test_single_arm_lagrangean_equals_optimal_stopping():
    arms = [
        build_beta_bernoulli_arm(1, 1, 2, play_cost=0.05, arm_id="b"),
        build_beta_bernoulli_arm(2, 1, 2, play_cost=0.2, switch_cost=0.1, arm_id="b"),
        build_two_level_arm([0.0, 0.9, 0.3], [0.3, 0.2, 0.5], play_cost=0.1, arm_id="t"),
    ]
    for arm in arms:
        inst = BanditInstance(arms=(arm,), budget=None, objective=Objective("lagrangean"))
        opt, _ = dp_optimal(inst)
        assert opt == pytest.approx(_exhaustive_single_arm_lagrangean(arm), abs=1e-12)


def test_lagrangean_oracle_bounded_by_gamma():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=10, seed=33, budget_cap=5))
    for inst in suite:
        lag = as_lagrangean(inst)
        opt, _ = dp_optimal(lag)
        gamma = solve_relaxation(lag).gamma_star
        assert opt <= gamma + 1e-6


def test_oracle_guard():
    inst = gen_integrality_gap(6)
    with pytest.raises(OracleGuardError):
        dp_optimal(inst, limits=10)


def test_non_integer_costs_rejected():
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.5, arm_id="a")
    inst = BanditInstance(arms=(arm,), budget=1.0, objective=Objective("budgeted"))
    with pytest.raises(ValueError):
        dp_optimal(inst)


def test_symmetry_estimate_counts_multisets():
    inst = gen_integrality_gap(16)
    # 16 interchangeable arms with 3 states each: C(18,2) multisets x 17 budgets
    assert estimate_joint_states(inst, with_budget=True) == math.comb(18, 2) * 17


def test_dp_statistics_feasible_for_lp():
    inst = gen_integrality_gap(2)
    sol = solve_relaxation(inst)
    opt, table = dp_optimal(inst)
    assert opt == pytest.approx(0.75, abs=1e-12)
    stats = enumerate_policy_statistics(inst, table)
    assert stats.expected_reward == pytest.approx(opt, abs=1e-12)
    lp = build_budgeted_lp(inst)
    values = stats.as_lp_values()
    assert check_feasibility(lp, values, tol=1e-9) == []
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in values.values())
    assert objective_value(lp, values) <= sol.gamma_star + 1e-6


class _NeverPlay:
    def __init__(self, arm_id):
        self.arm_id = arm_id

    def decide(self, joint):
        return ("stop", self.arm_id)


def test_never_play_policy_statistics():
    inst = gen_integrality_gap(2)
    stats = enumerate_policy_statistics(inst, _NeverPlay("a0"))
    assert all(v == 0.0 for v in stats.z.values())
    assert stats.x[("a0", "root")] == 1.0
    assert stats.expected_reward == pytest.approx(0.5, abs=1e-12)  # root reward 1/n


def test_greedy_process_statistics_match_exact_evaluation():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=6, seed=5, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=6, seed=6, budget_cap=5))
    for inst in suite:
        sol = solve_relaxation(inst)
        pols = extract_single_arm_policies(sol, inst)
        plan = make_greedy_plan(pols, inst, "budgeted")
        value, cost = evaluate_plan_exact(inst, plan, sol)
        stats = enumerate_policy_statistics(inst, GreedyOrderProcess(inst, plan, sol))
        assert stats.expected_reward == pytest.approx(value, abs=1e-9)
        # a budget-feasible sequential policy also satisfies the LP rows
        lp = build_budgeted_lp(inst)
        values = stats.as_lp_values()
        assert check_feasibility(lp, values, tol=1e-7) == []
        assert all(0.0 <= v <= 1.0 + 1e-7 for v in values.values())


def test_symmetry_reduction_matches_distinct_arm_encoding():
    # identical arms collapse into one canonicalization class; renaming the
    # states of one copy makes the arms structurally distinct and disables
    # the reduction, so equal values certify it
    def renamed(arm, tag):
        mapping = {sid: f"{tag}{sid}" for sid in arm.states}
        states = {
            mapping[s.id]: BeliefState(
                mapping[s.id],
                s.reward,
                s.play_cost,
                tuple((mapping[c], p) for c, p in s.transitions),
            )
            for s in arm.states.values()
        }
        return ArmStateSpace(arm.arm_id, mapping[arm.root], states, arm.switch_cost)

    for h in (0.0, 1.0):
        arm = build_two_level_arm([0.0, 0.8, 0.3], [0.5, 0.25, 0.25], play_cost=1, switch_cost=h, arm_id="a0")
        twins = (arm, ArmStateSpace("a1", arm.root, arm.states, h), ArmStateSpace("a2", arm.root, arm.states, h))
        sym = BanditInstance(arms=twins, budget=2.0, objective=Objective("budgeted"))
        distinct = BanditInstance(
            arms=(twins[0], renamed(twins[1], "b:"), renamed(twins[2], "c:")),
            budget=2.0,
            objective=Objective("budgeted"),
        )
        v_sym, _ = dp_optimal(sym)
        v_distinct, _ = dp_optimal(distinct)
        assert v_sym == pytest.approx(v_distinct, abs=1e-12), f"h={h}"
        assert estimate_joint_states(sym, True) < estimate_joint_states(distinct, True)


def test_switch_cost_charged_on_first_play():
    # one arm, switch cost 1, play cost 1, budget 1: the first play costs 2,
    # so with budget 1 no play is feasible and OPT is the root reward
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, switch_cost=1, arm_id="a")
    inst = BanditInstance(arms=(arm,), budget=1.0, objective=Objective("budgeted"))
    opt, _ = dp_optimal(inst)
    assert opt == pytest.approx(0.5, abs=1e-12)
    inst2 = BanditInstance(arms=(arm,), budget=2.0, objective=Objective("budgeted"))
    opt2, _ = dp_optimal(inst2)
    assert opt2 == pytest.approx(0.5, abs=1e-12)  # exploring adds no value here
    # with an asymmetric fallback arm exploration pays once affordable
    fallback = build_two_level_arm([0.4], [1.0], play_cost=1, arm_id="b")
    inst3 = BanditInstance(arms=(arm, fallback), budget=2.0, objective=Objective("budgeted"))
    opt3, _ = dp_optimal(inst3)
    assert opt3 == pytest.approx(0.5 * 1.0 + 0.5 * 0.4, abs=1e-12)
