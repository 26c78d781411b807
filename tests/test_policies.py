import copy
import dataclasses
import functools
import itertools
import math
import pickle
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from banditlp.bench import (
    GeneratorSpec,
    as_concave,
    as_lagrangean,
    gen_integrality_gap,
    gen_random_suite,
)
from banditlp import batched, oracle, policies
from banditlp.policies import (
    ExecutionTrace,
    GreedyPlan,
    RankedArm,
    evaluate_plan_exact,
    execute_concave_greedy,
    execute_greedy_order,
    execute_greedy_violate,
    execute_lagrangean_greedy,
    make_greedy_plan,
    monte_carlo_evaluate,
    nonadaptive_two_level,
    trace_to_jsonl,
    verify_trace,
)
from banditlp.lp import solve_lp
from banditlp.relaxations import (
    RelaxationSolution,
    SingleArmPolicy,
    build_relaxation,
    extract_single_arm_policies,
    solve_relaxation,
)
from banditlp.statespace import (
    ArmStateSpace,
    BanditInstance,
    BeliefState,
    Objective,
    build_beta_bernoulli_arm,
    build_two_level_arm,
    validate_instance,
)
import reference_exact
# budgeted instances of 1-3 arms with integer costs; instances of one variant on them
from test_decomposition import _concave, bases, instances


def _policy(arm_id, P, R, C):
    return SingleArmPolicy(arm_id=arm_id, explore_prob=P, reward=R, cost=C)


def _pipeline(instance, variant=None, alpha=1.0):
    solution = solve_relaxation(instance)
    policies = extract_single_arm_policies(solution, instance)
    plan = make_greedy_plan(policies, instance, variant or instance.objective.kind, alpha=alpha)
    return solution, plan


# ---------------------------------------------------------------------------
# Plans


def test_plan_symmetric_arms_tie_break():
    inst = gen_integrality_gap(4)
    _, plan = _pipeline(inst)
    assert [r.arm_id for r in plan.order] == ["a0", "a1", "a2", "a3"]


def test_plan_ratio_arithmetic():
    inst = BanditInstance(
        arms=(
            build_two_level_arm([0.5], [1.0], play_cost=1, arm_id="x"),
            build_two_level_arm([0.5], [1.0], play_cost=1, arm_id="y"),
        ),
        budget=1.0,
        objective=Objective("budgeted"),
    )
    pols = [_policy("x", 0.5, 0.6, 0.5), _policy("y", 0.1, 0.3, 0.1)]
    plan = make_greedy_plan(pols, inst, "budgeted")
    assert [r.arm_id for r in plan.order] == ["y", "x"]  # ratios 1.5 vs 0.6
    assert plan.order[0].ratio == pytest.approx(1.5)
    assert plan.order[1].ratio == pytest.approx(0.6)


def test_plan_lagrangean_infinite_ratio_first_and_dead_last():
    inst = BanditInstance(
        arms=tuple(build_two_level_arm([0.5], [1.0], play_cost=1, arm_id=a) for a in "abc"),
        budget=None,
        objective=Objective("lagrangean"),
    )
    pols = [_policy("a", 0.5, 0.4, 0.1), _policy("b", 0.0, 0.2, 0.0), _policy("c", 0.0, 0.0, 0.0)]
    plan = make_greedy_plan(pols, inst, "lagrangean")
    assert [r.arm_id for r in plan.order] == ["b", "a", "c"]
    assert plan.order[0].ratio == math.inf
    assert plan.order[-1].ratio == -math.inf


def test_plan_alpha_below_one_rejected():
    inst = gen_integrality_gap(2)
    sol = solve_relaxation(inst)
    pols = extract_single_arm_policies(sol, inst)
    with pytest.raises(ValueError):
        make_greedy_plan(pols, inst, "budgeted", alpha=0.5)


def test_make_greedy_plan_refuses_a_bad_variant_or_budget_up_front():
    # with no policies, variant "bogus" returned a plan, since the check ran
    # only in the per-policy loop; a budgeted variant on a Lagrangean
    # instance ended in "TypeError: unsupported operand type(s) for *:
    # 'float' and 'NoneType'", and a concave one in an AttributeError
    inst = gen_integrality_gap(2)
    with pytest.raises(ValueError, match="unknown plan variant 'bogus'"):
        make_greedy_plan([], inst, "bogus")
    lagrangean = as_lagrangean(inst)
    pols = extract_single_arm_policies(solve_relaxation(lagrangean), lagrangean)
    with pytest.raises(ValueError, match=re.escape("budgeted objective requires a finite budget >= 0, got None")):
        make_greedy_plan(pols, lagrangean, "budgeted")
    with pytest.raises(ValueError, match="a concave plan needs an instance with concave data"):
        make_greedy_plan(pols, lagrangean, "concave")
    concave = dataclasses.replace(as_concave(inst, capacity=1.0, epsilon=0.5), budget=math.inf)
    with pytest.raises(ValueError, match=re.escape("concave objective requires a finite budget >= 0, got inf")):
        make_greedy_plan(pols, concave, "concave", alpha=1.0)


def test_plan_order_invariant_under_reward_scaling():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=8, seed=77, budget_cap=5))
    for inst in suite:
        _, plan = _pipeline(inst)
        scaled_arms = tuple(
            build_two_level_arm(
                [3.0 * inst.arms[i].states[c].reward for c, _ in inst.arms[i].states[inst.arms[i].root].transitions],
                [p for _, p in inst.arms[i].states[inst.arms[i].root].transitions],
                play_cost=inst.arms[i].states[inst.arms[i].root].play_cost,
                switch_cost=inst.arms[i].switch_cost,
                arm_id=inst.arms[i].arm_id,
            )
            for i in range(len(inst.arms))
        )
        scaled = BanditInstance(scaled_arms, inst.budget, inst.objective)
        _, plan2 = _pipeline(scaled)
        assert [r.arm_id for r in plan2.order] == [r.arm_id for r in plan.order]


# ---------------------------------------------------------------------------
# GreedyOrder / GreedyViolate executors


def test_order_gap_instance_full_budget():
    inst = gen_integrality_gap(4)
    sol, plan = _pipeline(inst)
    for seed in range(25):
        trace = execute_greedy_order(inst, plan, sol, rng_seed=seed)
        assert verify_trace(trace, inst, plan, rule="order") == []
        assert trace.total_cost <= 4.0
        hit = any(e.action == "stop-exploit" for e in trace.events)
        assert (trace.value == 1.0) == hit
        if not hit:
            # all four arms played once at unit cost
            assert trace.total_cost == 4.0
            assert [e.arm for e in trace.events if e.action == "play"] == ["a0", "a1", "a2", "a3"]


def test_order_budget_zero_exploits_best_prior():
    arms = (
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a0"),
        build_two_level_arm([0.6], [1.0], play_cost=1, arm_id="a1"),
    )
    inst = BanditInstance(arms=arms, budget=0.0, objective=Objective("budgeted"))
    sol, plan = _pipeline(inst)
    trace = execute_greedy_order(inst, plan, sol, rng_seed=11)
    assert trace.events == []
    assert trace.exploited == ("a1", "root")
    assert trace.value == 0.6 and trace.total_cost == 0.0
    assert evaluate_plan_exact(inst, plan, sol) == (0.6, 0.0)


def _manual_beta_solution(inst, always_play=True):
    """Hand-built thresholds: play with probability w everywhere, exploit leaves."""
    arm = inst.arms[0]
    w, x, z = {}, {}, {}
    for sid in arm.topo_order():
        st = arm.states[sid]
        key = (arm.arm_id, sid)
        if sid == arm.root:
            w[key] = 1.0
        else:
            parents = [
                (p, pr)
                for p in arm.states
                for c, pr in arm.states[p].transitions
                if c == sid
            ]
            w[key] = sum(z[(arm.arm_id, p)] * pr for p, pr in parents)
        if st.is_leaf:
            z[key] = 0.0
            x[key] = (0.0, w[key])
        else:
            z[key] = w[key] if always_play else 0.0
            x[key] = (0.0, 0.0)
    return RelaxationSolution(gamma_star=0.0, w=w, x=x, z=z, grid=None)


def test_order_forced_single_play_path():
    # manual thresholds: always play the root, exploit whichever child appears
    arm = build_beta_bernoulli_arm(1, 1, 1, play_cost=1, arm_id="b")
    inst = BanditInstance(arms=(arm,), budget=1.0, objective=Objective("budgeted"))
    sol = _manual_beta_solution(inst)
    plan = GreedyPlan("budgeted", (RankedArm("b", 0.5, 1.0, 0.5),), budget=1.0)
    for seed in (0, 1, 2, 3):
        trace = execute_greedy_order(inst, plan, sol, rng_seed=seed)
        plays = [e for e in trace.events if e.action == "play"]
        assert len(plays) == 1
        assert trace.exploited[1] in ("B(2,1)", "B(1,2)")
        assert trace.value in (pytest.approx(2 / 3), pytest.approx(1 / 3))
        assert trace.total_cost == 1.0


def test_violate_cost_bound_three_play_arm():
    # an always-play depth-3 chain overshoots C = 2 but stays within C + c_max
    arm = build_beta_bernoulli_arm(1, 1, 3, play_cost=1, arm_id="b")
    inst = BanditInstance(arms=(arm,), budget=2.0, objective=Objective("budgeted"))
    sol = _manual_beta_solution(inst)
    plan = GreedyPlan("budgeted", (RankedArm("b", 0.5, 1.0, 0.5),), budget=2.0)
    c_max = inst.max_single_arm_cost()
    assert c_max == 3.0
    for seed in range(10):
        trace = execute_greedy_violate(inst, plan, sol, rng_seed=seed)
        assert trace.total_cost == 3.0  # runs the arm to its leaf
        assert trace.total_cost <= 2.0 + c_max
        assert verify_trace(trace, inst, plan, rule="violate") == []
        assert trace.exploited[0] == "b"
        assert all(e.action != "budget-stop" for e in trace.events)  # the leaf exploit ends the run
    # with dead stops at the leaves, the overshoot itself ends the run
    dead = dataclasses.replace(sol, x={key: (0.0, 0.0) for key in sol.x})
    for seed in range(10):
        trace = execute_greedy_violate(inst, plan, dead, rng_seed=seed)
        assert trace.total_cost == 3.0
        assert [e.action for e in trace.events][-2:] == ["stop-null", "budget-stop"]
        assert sum(e.action == "budget-stop" for e in trace.events) == 1
        assert trace.exploited == ("b", trace.events[-1].state)
        assert verify_trace(trace, inst, plan, rule="violate") == []


def _dead_stop_solution(arms):
    """Thresholds of two-level arms: play each root, stop dead at every leaf."""
    w, x, z = {}, {}, {}
    for arm in arms:
        for sid in arm.states:
            key = (arm.arm_id, sid)
            w[key], x[key], z[key] = 1.0, (0.0, 0.0), 1.0 if sid == arm.root else 0.0
    return RelaxationSolution(gamma_star=0.0, w=w, x=x, z=z, grid=None)


@pytest.mark.parametrize(
    "play_cost, switch_cost, n_arms",
    [(0.1, 0.0, 3), (0.2, 0.1, 1)],  # 0.1 + 0.1 + 0.1 > 0.3 and 0.2 + 0.1 > 0.3 in floats
)
def test_fractional_costs_are_not_decided_by_rounding(play_cost, switch_cost, n_arms):
    # the plays spend the budget 0.3 exactly in real numbers: every run plays
    # every arm once, stopping dead at its leaf, under either budget rule
    arms = tuple(
        build_two_level_arm([0.5], [1.0], play_cost=play_cost, switch_cost=switch_cost, arm_id=f"a{i}")
        for i in range(n_arms)
    )
    inst = BanditInstance(arms=arms, budget=0.3, objective=Objective("budgeted"))
    sol = _dead_stop_solution(arms)
    plan = GreedyPlan("budgeted", tuple(RankedArm(a.arm_id, 1.0, 1.0, 1.0) for a in arms), budget=0.3)
    for rule, execute in (("order", execute_greedy_order), ("violate", execute_greedy_violate)):
        for seed in range(5):
            trace = execute(inst, plan, sol, rng_seed=seed)
            assert [e.action for e in trace.events if e.action in ("play", "budget-stop")] == ["play"] * n_arms
            assert verify_trace(trace, inst, plan, rule=rule) == []
        mc = monte_carlo_evaluate(inst, plan, sol, reps=200, seed=0, rule=rule)
        assert mc.violations == []
        assert mc.max_cost > 0.3 - 1e-9


def test_a_violate_run_within_the_slack_keeps_its_best_dead_stop():
    # three plays at 0.1 leave 0.09999999999999998 of the budget 0.3 before
    # the third arm: within the slack, so under either rule every run goes on
    # past the third arm's dead stop (reward 0.2) and exploits the first
    # arm's leaf (0.9); read as a violate overshoot, it would exploit 0.2
    arms = tuple(
        build_two_level_arm([r], [1.0], play_cost=0.1, arm_id=f"a{i}") for i, r in enumerate((0.9, 0.5, 0.2))
    )
    inst = BanditInstance(arms=arms, budget=0.3, objective=Objective("budgeted"))
    sol = _dead_stop_solution(arms)
    plan = GreedyPlan("budgeted", tuple(RankedArm(a.arm_id, 1.0, 1.0, 1.0) for a in arms), budget=0.3)
    for rule in ("order", "violate"):
        for reps in (4, 200):
            scalar, batch = _mc_both(inst, sol, plan, reps, seed=0, rule=rule)
            assert batch.values.tobytes() == scalar.values.tobytes() == np.full(reps, 0.9).tobytes()


def test_a_leaf_never_plays_even_on_a_zero_draw():
    # every draw is 0: the root plays (q = 0 <= z = 1), then at the leaf q = 0
    # is not above z = 0; the walk used to play the leaf there and fail
    # choosing a child from its empty child list.  Both walks stop dead at the leaf.
    class Zeros:
        def random(self):
            return 0.0

    arm = build_two_level_arm([0.2, 0.8], [0.5, 0.5], play_cost=1, arm_id="a")
    inst = BanditInstance((arm,), 1.0, Objective("budgeted"))
    tab = policies._tables(inst, _dead_stop_solution((arm,)))["a"]
    run = policies._Run(False)
    leaf, level = policies._walk_arm(tab, Zeros(), run, None)
    assert (tab.ca.sids[leaf], level, run.spent) == (arm.states[arm.root].transitions[0][0], 0, 1.0)
    arr = batched._ArmArrays(tab)
    ptr, spent = np.zeros(1, dtype=np.intp), np.zeros(1)
    state, levels = batched._walk_lockstep(arr, np.arange(1), np.zeros((1, tab.ca.draws)), ptr, spent, None)
    assert (state[0], levels[0], spent[0]) == (leaf, 0, 1.0)


def test_a_leaf_cuts_from_zero_whatever_play_mass_it_is_given():
    # a hand-built solution may give a leaf play mass, which it cannot use:
    # its cuts start at 0 and its play probability is 0
    arm = build_two_level_arm([0.2, 0.8], [0.5, 0.5], play_cost=1, arm_id="a")
    inst = BanditInstance((arm,), 1.0, Objective("budgeted"))
    sol = _dead_stop_solution((arm,))
    leaves = [("a", leaf) for leaf, _ in arm.states[arm.root].transitions]
    sol = dataclasses.replace(sol, z={**sol.z, **dict.fromkeys(leaves, 0.5)}, x={**sol.x, **dict.fromkeys(leaves, (0.0, 0.5))})
    tab = policies._tables(inst, sol)["a"]
    assert [(tab.cuts[u], tab.pz[u], tab.px[u], tab.pn[u]) for u in (1, 2)] == [((0.0, 0.5), 0.0, (0.5,), 0.5)] * 2


def test_order_all_dead_stops_exploit_best_final_state():
    # every arm plays its root once and stops dead at its single leaf; the
    # run then exploits the best final state, and of the tied leaves of a0 and
    # a2 it takes a0, the first in instance order, although a2 ran first
    arms = tuple(
        build_two_level_arm([r], [1.0], play_cost=1, arm_id=f"a{i}") for i, r in enumerate((0.6, 0.3, 0.6))
    )
    inst = BanditInstance(arms=arms, budget=3.0, objective=Objective("budgeted"))
    sol = _dead_stop_solution(arms)
    plan = GreedyPlan("budgeted", tuple(RankedArm(a, 1.0, 1.0, 1.0) for a in ("a2", "a1", "a0")), budget=3.0)
    for seed in range(5):
        trace = execute_greedy_order(inst, plan, sol, rng_seed=seed)
        assert [e.action for e in trace.events] == ["switch", "play", "stop-null"] * 3
        assert trace.visited == ["a2", "a1", "a0"]
        assert trace.exploited == ("a0", "v0")
        assert trace.value == 0.6 and trace.total_cost == 3.0
        assert verify_trace(trace, inst, plan) == []
    assert evaluate_plan_exact(inst, plan, sol) == (0.6, 3.0)


def test_order_and_violate_identical_without_budget_pressure():
    inst = gen_integrality_gap(3)
    big = BanditInstance(inst.arms, budget=50.0, objective=inst.objective)
    sol, plan = _pipeline(big)
    for seed in range(20):
        a = execute_greedy_order(big, plan, sol, rng_seed=seed)
        b = execute_greedy_violate(big, plan, sol, rng_seed=seed)
        assert a.events == b.events
        assert a.value == b.value and a.total_cost == b.total_cost


def test_order_and_violate_same_expected_reward():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=10, seed=3, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=10, seed=4, budget_cap=5))
    for inst in suite:
        sol, plan = _pipeline(inst)
        v_order, _ = evaluate_plan_exact(inst, plan, sol, rule="order")
        v_violate, _ = evaluate_plan_exact(inst, plan, sol, rule="violate")
        assert v_order == pytest.approx(v_violate, abs=1e-9)


def test_gap_monte_carlo_matches_closed_form():
    inst = gen_integrality_gap(4)
    sol, plan = _pipeline(inst)
    mc = monte_carlo_evaluate(inst, plan, sol, reps=100_000, seed=2)
    assert abs(mc.mean - 175 / 256) <= 3.0 * mc.stderr
    assert mc.violations == []


def test_order_violate_paired_simulation_under_budget_pressure():
    # a tight budget forces the executors to diverge mid-arm; their realized
    # reward distributions still agree (martingale argument)
    arms = (
        build_beta_bernoulli_arm(1, 1, 2, play_cost=1, arm_id="a0"),
        build_beta_bernoulli_arm(1, 2, 2, play_cost=1, arm_id="a1"),
    )
    inst = BanditInstance(arms=arms, budget=2.0, objective=Objective("budgeted"))
    sol, plan = _pipeline(inst)
    mc_o = monte_carlo_evaluate(inst, plan, sol, reps=100_000, seed=9, rule="order")
    mc_v = monte_carlo_evaluate(inst, plan, sol, reps=100_000, seed=10, rule="violate")
    assert mc_v.max_cost > inst.budget  # divergence actually happens
    gap = abs(mc_o.mean - mc_v.mean)
    assert gap <= 3.0 * math.hypot(mc_o.stderr, mc_v.stderr)
    v_o, _ = evaluate_plan_exact(inst, plan, sol, rule="order")
    v_v, _ = evaluate_plan_exact(inst, plan, sol, rule="violate")
    assert v_o == pytest.approx(v_v, abs=1e-9)


def test_exact_matches_monte_carlo():
    inst = gen_random_suite(GeneratorSpec(family="random-two-level", count=1, seed=8, budget_cap=5))[0]
    sol, plan = _pipeline(inst)
    value, cost = evaluate_plan_exact(inst, plan, sol)
    mc = monte_carlo_evaluate(inst, plan, sol, reps=40_000, seed=123)
    assert mc.violations == []
    assert abs(mc.mean - value) <= 3.0 * mc.stderr + 1e-12
    assert abs(mc.mean_cost - cost) <= 0.05 * (1.0 + cost)


def test_exact_requires_integer_costs():
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.5, arm_id="a")
    inst = BanditInstance(arms=(arm,), budget=1.0, objective=Objective("budgeted"))
    sol, plan = _pipeline(inst)
    with pytest.raises(ValueError):
        evaluate_plan_exact(inst, plan, sol)


def test_gap_exact_value_closed_form():
    inst = gen_integrality_gap(4)
    sol, plan = _pipeline(inst)
    value, _ = evaluate_plan_exact(inst, plan, sol)
    assert value == pytest.approx(175 / 256, abs=1e-12)


def test_bicriteria_execution_and_bound():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=8, seed=19, budget_cap=5))
    for inst in suite:
        sol = solve_relaxation(inst)
        pols = extract_single_arm_policies(sol, inst)
        for alpha in (2.0, 4.0):
            plan = make_greedy_plan(pols, inst, "budgeted", alpha=alpha)
            assert plan.budget == alpha * inst.budget
            value, cost = evaluate_plan_exact(inst, plan, sol)
            assert cost <= plan.budget + 1e-9
            assert value >= (alpha / (2 * (1 + alpha))) * sol.gamma_star - 1e-6


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
def test_an_alpha_that_is_not_a_finite_number_of_at_least_one_is_refused(alpha):
    # alpha nan passed the check alpha < 1.0 and made a plan of budget nan,
    # whose exact value on this instance was (0.25, 0.0), the prior best
    inst = gen_integrality_gap(4)
    sol = solve_relaxation(inst)
    message = f"bicriteria factor alpha must be a finite number >= 1, got {alpha!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_greedy_plan(extract_single_arm_policies(sol, inst), inst, "budgeted", alpha=alpha)
    # plan and run take the instance's alpha as their default
    bad = dataclasses.replace(inst, objective=Objective("budgeted", alpha=alpha))
    assert [d.message for d in validate_instance(bad)] == [message]


def test_exact_evaluates_a_fractional_bicriteria_budget():
    # alpha * C = 4.5: with integer costs every remaining budget 4.5 - k is
    # exact, and no play of cost 1 fits the last half unit
    inst = gen_integrality_gap(3)
    sol, plan = _pipeline(inst, alpha=1.5)
    assert plan.budget == 4.5
    value, cost = evaluate_plan_exact(inst, plan, sol)
    assert (value, cost) == evaluate_plan_exact(inst, dataclasses.replace(plan, budget=4.0), sol)
    assert cost <= plan.budget and value >= (1.5 / 5.0) * sol.gamma_star
    mc = monte_carlo_evaluate(inst, plan, sol, reps=4000, seed=11)
    assert mc.violations == [] and abs(mc.mean - value) <= 5.0 * mc.stderr


def test_greedy_process_rejects_bicriteria_plans():
    # the process gates plays on the joint state's budget, the instance's C,
    # so a plan with budget alpha * C would be valued against the wrong budget
    inst = gen_random_suite(GeneratorSpec(family="random-beta", count=6, max_arms=3, seed=5))[0]
    sol, plan = _pipeline(inst, alpha=2.0)
    with pytest.raises(ValueError, match="alpha 1"):
        policies.GreedyOrderProcess(inst, plan, sol)


@settings(max_examples=60, deadline=None)
@given(bases(), st.sampled_from([1.0, 1.5, 2.0]), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_plan_values_agree_across_evaluators(inst, alpha, k, seed):
    # the exact pass against the joint-state enumeration (alpha 1) and
    # Monte-Carlo, and scaled costs: the same plan and solution under every
    # play and switch cost and the plan budget times k
    assert inst.has_integer_costs()
    sol, plan = _pipeline(inst, alpha=alpha)
    value, cost = evaluate_plan_exact(inst, plan, sol)
    if alpha == 1.0:
        process = policies.GreedyOrderProcess(inst, plan, sol)
        assert abs(oracle.enumerate_policy_statistics(inst, process).expected_reward - value) <= 1e-9
    mc = monte_carlo_evaluate(inst, plan, sol, reps=2000, seed=seed)
    assert mc.violations == []
    assert abs(mc.mean - value) <= 5.0 * mc.stderr + 1e-9
    scaled = dataclasses.replace(plan, budget=k * plan.budget)
    scaled_value, scaled_cost = evaluate_plan_exact(_scaled_costs(inst, k), scaled, sol)
    assert scaled_value == value
    assert scaled_cost == pytest.approx(k * cost, rel=1e-12, abs=1e-12)

def test_duplicate_arm_ids_are_rejected():
    # the exact pass read one arm's table for both plan entries and reported
    # (0.7111, 1.0133) for a solution of 9 keys over 12 states; such an
    # instance is now refused on construction
    arms = tuple(build_beta_bernoulli_arm(a, 1, 2, play_cost=1, arm_id="a") for a in (1, 2))
    with pytest.raises(ValueError, match="duplicate arm id 'a'"):
        BanditInstance(arms, budget=2.0, objective=Objective("budgeted"))
    # a plan that names one arm twice on a valid instance walked it twice
    # from its root: the exact pass valued it at (0.58, 1.76) and
    # Monte-Carlo flagged the runs that played its root twice.  Every plan
    # reader now refuses it (test_every_plan_reader_refuses_an_arm_named_twice_or_unknown)
    renamed = BanditInstance((arms[0], dataclasses.replace(arms[1], arm_id="b")), 2.0, Objective("budgeted"))
    sol, plan = _pipeline(renamed)
    plan = dataclasses.replace(plan, order=tuple(dataclasses.replace(ra, arm_id="a") for ra in plan.order))
    with pytest.raises(ValueError, match="the plan names arm 'a' twice"):
        evaluate_plan_exact(renamed, plan, sol)
    with pytest.raises(ValueError, match="the plan names arm 'a' twice"):
        monte_carlo_evaluate(renamed, plan, sol, reps=4, seed=0)


@settings(max_examples=300, deadline=None, database=None)
@seed(1905)
@given(instances(), st.permutations(range(3)))
def test_permuting_arms_keeps_gamma_the_exact_value_and_opt(inst, perm):
    # the arms keep their ids, so the greedy plans break ties alike; the
    # concave DP has no oracle
    other = dataclasses.replace(inst, arms=tuple(inst.arms[i] for i in perm if i < len(inst.arms)))
    seen = []
    for case in (inst, other):
        sol, plan = _pipeline(case)
        opt = None if case.objective.kind == "concave" else oracle.dp_optimal(case)[0]
        seen.append((sol.gamma_star, evaluate_plan_exact(case, plan, sol)[0], opt))
    (gamma, value, opt), (gamma2, value2, opt2) = seen
    assert abs(gamma - gamma2) <= 1e-9 and abs(value - value2) <= 1e-9
    assert opt is None and opt2 is None or abs(opt - opt2) <= 1e-9


@settings(max_examples=100, deadline=None, database=None)
@seed(1906)
@given(bases(), st.sampled_from([1.0, 2.0]), st.sampled_from([0.25, 0.5]), st.integers(0, 2**32 - 1))
def test_concave_exact_pass_agrees_with_monte_carlo(base, capacity, epsilon, seed):
    # linear tables with unit sizes and sqrt tables with fractional sizes in
    # [0.2, capacity]: the exact pass within 4 standard errors of 2000 runs
    for curve in ("linear", "sqrt"):
        inst = _concave(base, capacity, epsilon, curve, np.random.default_rng(seed))
        sol, plan = _pipeline(inst)
        value, _ = evaluate_plan_exact(inst, plan, sol)
        mc = monte_carlo_evaluate(inst, plan, sol, reps=2000, seed=seed)
        assert mc.violations == []
        assert abs(mc.mean - value) <= 4.0 * mc.stderr + 1e-9, curve


def _brute_force_evaluation(inst, plan, sol, rule):
    """Literal expectation recursion over every randomization branch.

    Follows the executor semantics step by step (independent of the
    production evaluator's per-arm convolution): at each state the uniform
    draw splits into play/exploit/dead branches, plays branch over children,
    and the budget rules are applied exactly as the runners do.  rule is
    "order", "violate", "lagrangean" or "concave".
    """
    order = [inst.arm(r.arm_id) for r in plan.order]
    C = plan.budget
    if rule == "concave":
        return _brute_force_concave(inst, order, sol, C)

    def thresholds(arm, sid):
        key = (arm.arm_id, sid)
        return sol.w[key], sol.z[key], sol.x[key][1]

    def next_arm(j, spent, maxnull):
        if j == len(order):
            return max(maxnull, 0.0), 0.0
        return state_step(j, order[j].root, spent, False, maxnull)

    def state_step(j, sid, spent, played, maxnull):
        arm = order[j]
        st = arm.states[sid]
        w, z, x = thresholds(arm, sid)
        if st.is_leaf:
            z = 0.0
        if w < 1e-9:
            return arm_done(j, sid, spent, maxnull)
        pz, px = z / w, x / w
        pn = max(1.0 - z / w - x / w, 0.0)
        value = cost = 0.0
        if px > 0:
            value += px * st.reward
        if pn > 0:
            v, c = arm_done(j, sid, spent, maxnull)
            value += pn * v
            cost += pn * c
        if pz > 0:
            kappa = st.play_cost + (arm.switch_cost if not played else 0.0)
            if rule == "order" and spent + kappa > C:
                value += pz * st.reward  # unaffordable play: exploit in place
            else:
                v = kappa
                for child, p in st.transitions:
                    cv, cc = state_step(j, child, spent + kappa, True, maxnull)
                    value += pz * p * cv
                    cost += pz * p * cc
                cost += pz * kappa
        return value, cost

    def arm_done(j, sid, spent, maxnull):
        # the arm's policy stopped dead at sid
        arm = order[j]
        if rule == "violate" and spent > C:
            return arm.states[sid].reward, 0.0
        return next_arm(j + 1, spent, max(maxnull, arm.states[sid].reward))

    if rule in ("order", "violate"):
        affordable = any(
            a.first_play_cost() is not None and a.first_play_cost() <= C for a in inst.arms
        )
        if not affordable:
            return max(a.states[a.root].reward for a in inst.arms), 0.0
        return next_arm(0, 0.0, -1.0)

    # lagrangean: no budget, stop at the first exploit, profit = reward - cost
    def lag_next(j):
        if j == len(order):
            return 0.0, 0.0
        return lag_state(j, order[j].root, False)

    def lag_state(j, sid, played):
        arm = order[j]
        st = arm.states[sid]
        w, z, x = thresholds(arm, sid)
        if st.is_leaf:
            z = 0.0
        if w < 1e-9:
            return lag_next(j + 1)
        pz, px = z / w, x / w
        pn = max(1.0 - pz - px, 0.0)
        reward = cost = 0.0
        if px > 0:
            reward += px * st.reward
        if pn > 0:
            rv, rc = lag_next(j + 1)
            reward += pn * rv
            cost += pn * rc
        if pz > 0:
            kappa = st.play_cost + (arm.switch_cost if not played else 0.0)
            cost += pz * kappa
            for child, p in st.transitions:
                rv, rc = lag_state(j, child, True)
                reward += pz * p * rv
                cost += pz * p * rc
        return reward, cost

    reward, cost = lag_next(0)
    return reward - cost, cost


def _brute_force_concave(inst, order, sol, C):
    # each arm's exploit level is its weight numerator; the run moves to the
    # next arm until the packed units reach capacity * L, and an unaffordable
    # play packs numerator L and ends it.  The value is every arm's table value
    # at its final state and halved weight, an unreached arm at its root with 0.
    prob, L = inst.objective.concave, sol.grid

    def run_value(final):
        total = 0.0
        for a in inst.arms:
            sid, n = final.get(a.arm_id, (a.root, 0))
            total += prob.value_at(a.arm_id, sid, n / (2 * L))
        return total

    def next_arm(j, spent, units, final):
        if j == len(order) or units >= prob.capacity * L:
            return run_value(final), 0.0
        return state_step(j, order[j].root, spent, False, units, final)

    def arm_done(j, sid, n, spent, units, final):
        arm_id = order[j].arm_id
        return next_arm(j + 1, spent, units + prob.sigmas[arm_id] * n, {**final, arm_id: (sid, n)})

    def state_step(j, sid, spent, played, units, final):
        arm = order[j]
        st = arm.states[sid]
        key = (arm.arm_id, sid)
        w, masses = sol.w[key], sol.x[key]
        z = 0.0 if st.is_leaf else sol.z[key]
        if w < 1e-9:
            return arm_done(j, sid, 0, spent, units, final)
        value = cost = 0.0
        p_dead = max(1.0 - z / w - sum(masses[1:]) / w, 0.0)
        for n, p in [(n, masses[n] / w) for n in range(1, L + 1)] + [(0, p_dead)]:
            if p > 0:
                v, c = arm_done(j, sid, n, spent, units, final)
                value += p * v
                cost += p * c
        if z > 0:
            kappa = st.play_cost + (arm.switch_cost if not played else 0.0)
            if spent + kappa > C:  # unaffordable play: weight 1 here, run ends
                value += z / w * run_value({**final, arm.arm_id: (sid, L)})
            else:
                cost += z / w * kappa
                for child, p in st.transitions:
                    cv, cc = state_step(j, child, spent + kappa, True, units, final)
                    value += z / w * p * cv
                    cost += z / w * p * cc
        return value, cost

    return next_arm(0, 0.0, 0.0, {})


def test_arm_outcome_distribution_reproduces_lp_statistics():
    # running one arm's stopping policy to completion exploits at level l with
    # the LP's mass there: E[level]/L is P(phi), the exploit value R(phi) and
    # the spend C(phi) in expectation (a plain solution is the grid L = 1).
    # The per-arm outcome DP over (state, level, spent) must reproduce the LP
    # statistics identically, the concave exploit-level masses included; its
    # stops are the reference twin's unbudgeted distribution, in its order.
    from banditlp.policies import _arm_outcomes, _tables

    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=5, seed=81, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=5, seed=82, budget_cap=5))
    suite += [as_concave(inst, capacity=1.0 + i % 2, epsilon=0.25) for i, inst in enumerate(suite)]
    for inst in suite:
        sol = solve_relaxation(inst)
        pols = extract_single_arm_policies(sol, inst)
        tables = _tables(inst, sol)
        L = sol.grid or 1
        prob = inst.objective.concave
        for pol, arm in zip(pols, inst.arms):
            outcomes = _arm_outcomes(tables[arm.arm_id])
            dist = {(u, level, spent): p for u, level, spent, p in outcomes if level is not None}
            assert list(dist.items()) == list(reference_exact._arm_outcome_dist(tables[arm.arm_id], None).items())
            plays = [(u, spent, p) for u, level, spent, p in outcomes if level is None]
            assert len(dist) + len(plays) == len(outcomes)
            sids = arm.compiled().sids

            def value(u, level):
                if prob is None:
                    return arm.states[sids[u]].reward * level
                return prob.table(arm.arm_id, sids[u])[level]

            assert all(0 <= level <= L for (_, level, _) in dist)
            p = sum(pr * level for (_, level, _), pr in dist.items()) / L
            r = sum(pr * value(u, level) for (u, level, _), pr in dist.items())
            c = sum(pr * spent for (_, _, spent), pr in dist.items())
            assert p == pytest.approx(pol.explore_prob, abs=1e-9)
            assert r == pytest.approx(pol.reward, abs=1e-9)
            assert c == pytest.approx(pol.cost, abs=1e-9)
            total = sum(dist.values())
            assert total == pytest.approx(1.0, abs=1e-9)


_EXECUTORS = {
    "budgeted": execute_greedy_order,
    "lagrangean": execute_lagrangean_greedy,
    "concave": execute_concave_greedy,
}


@pytest.mark.parametrize(
    "entry, rule, alpha, variant",
    [
        *[
            pytest.param(entry, rule, alpha, "budgeted", id=f"{entry}-{rule}-{alpha}")
            for entry, rule, alpha in [
                ("exact", "Order", 1.0),
                ("mc", "Order", 1.0),
                ("verify", "Order", 1.0),
                ("mc", "violate", 1.5),
            ]
        ],
        *[(entry, "violate", 1.0, v) for entry in ("exact", "mc", "verify") for v in ("lagrangean", "concave")],
    ],
)
def test_unknown_budget_rule_rejected(entry, rule, alpha, variant):
    # a misspelt rule used to run with no budget rule at all (here MC
    # max_cost 2 on budget 1, exact value 0.7545 against 0.75 for both rules);
    # "violate" used to be ignored silently on lagrangean and concave plans
    inst = gen_random_suite(GeneratorSpec("random-beta", count=30, seed=5, budget_cap=3))[0]
    if variant == "lagrangean":
        inst = as_lagrangean(inst)
    elif variant == "concave":
        inst = as_concave(inst, capacity=1.0, epsilon=0.25)
    sol, plan = _pipeline(inst, alpha=alpha)
    with pytest.raises(ValueError):
        if entry == "exact":
            evaluate_plan_exact(inst, plan, sol, rule=rule)
        elif entry == "mc":
            monte_carlo_evaluate(inst, plan, sol, reps=10, seed=0, rule=rule)
        else:
            verify_trace(_EXECUTORS[variant](inst, plan, sol, rng_seed=0), inst, plan, rule=rule)


def test_exact_evaluator_matches_brute_force():
    suite = gen_random_suite(
        GeneratorSpec(family="random-two-level", count=6, seed=71, max_arms=2, budget_cap=4)
    )
    suite += gen_random_suite(
        GeneratorSpec(family="random-beta", count=6, seed=72, max_arms=2, budget_cap=4)
    )
    for inst in suite:
        sol, plan = _pipeline(inst)
        for rule in ("order", "violate"):
            value, cost = evaluate_plan_exact(inst, plan, sol, rule=rule)
            bf_value, bf_cost = _brute_force_evaluation(inst, plan, sol, rule)
            assert value == pytest.approx(bf_value, abs=1e-12), rule
            assert cost == pytest.approx(bf_cost, abs=1e-12), rule
        lag = as_lagrangean(inst)
        lsol, lplan = _pipeline(lag)
        lvalue, lcost = evaluate_plan_exact(lag, lplan, lsol)
        bf_lvalue, bf_lcost = _brute_force_evaluation(lag, lplan, lsol, "lagrangean")
        assert lvalue == pytest.approx(bf_lvalue, abs=1e-12)
        assert lcost == pytest.approx(bf_lcost, abs=1e-12)
        for capacity in (1.0, 2.0):
            conc = as_concave(inst, capacity=capacity, epsilon=0.25)
            csol, cplan = _pipeline(conc)
            cvalue, ccost = evaluate_plan_exact(conc, cplan, csol)
            bf_cvalue, bf_ccost = _brute_force_evaluation(conc, cplan, csol, "concave")
            assert cvalue == pytest.approx(bf_cvalue, abs=1e-12), capacity
            assert ccost == pytest.approx(bf_ccost, abs=1e-12), capacity


def test_exact_pass_lists_each_plan_arm_once(monkeypatch):
    # one unbudgeted outcome list per plan arm serves every remaining budget:
    # budgets below, at and above the arms' exploration costs (2 and 3) give
    # the brute force's value and cost and the reference twin's bits
    arms = tuple(
        build_beta_bernoulli_arm(1 + i, 2, 2, play_cost=1, switch_cost=i % 2, arm_id=f"a{i}") for i in range(3)
    )
    real = policies._arm_outcomes
    for budget in (2.0, 4.0, 20.0):
        inst = BanditInstance(arms, budget=budget, objective=Objective("budgeted"))
        sol, plan = _pipeline(inst)
        calls = []

        def counting(tab):
            calls.append(tab.arm_id)
            return real(tab)

        monkeypatch.setattr(policies, "_arm_outcomes", counting)
        for rule in ("order", "violate"):
            calls.clear()
            value, cost = evaluate_plan_exact(inst, plan, sol, rule=rule)
            assert calls == [ra.arm_id for ra in plan.order]
            bf_value, bf_cost = _brute_force_evaluation(inst, plan, sol, rule)
            assert value == pytest.approx(bf_value, abs=1e-12)
            assert cost == pytest.approx(bf_cost, abs=1e-12)
            twin = reference_exact.evaluate_plan_exact(inst, plan, sol, rule=rule)
            assert (value.hex(), cost.hex()) == (twin[0].hex(), twin[1].hex())


def test_the_budgeted_exact_pass_rejects_a_negative_charge():
    # a spend that rises past the budget (1 + 1 > 1) and falls back within it
    # (-2) defeats the filter by spend, which would count the refund's
    # children as reached (a value of 1.3); the pass used to read (0.5, 0.0)
    # where every sampled run spends 1.0
    states = {
        "r": BeliefState("r", 0.5, 1.0, (("m", 1.0),)),
        "m": BeliefState("m", 0.5, 1.0, (("n", 1.0),)),
        "n": BeliefState("n", 0.5, -2.0, (("h", 0.5), ("l", 0.5))),
        "h": BeliefState("h", 1.0),
        "l": BeliefState("l", 0.0),
    }
    b = ArmStateSpace("b", "s", {"s": BeliefState("s", 0.6)})
    inst = BanditInstance((ArmStateSpace("a", "r", states), b), budget=1.0)
    sol, plan = _pipeline(inst)
    assert monte_carlo_evaluate(inst, plan, sol, reps=50, seed=1).mean_cost == 1.0
    with pytest.raises(ValueError, match="requires play charges >= 0; arm 'a' has one below 0"):
        evaluate_plan_exact(inst, plan, sol)
    # without a budget nothing is filtered by spend
    lag = as_lagrangean(inst)
    sol, plan = _pipeline(lag)
    evaluate_plan_exact(lag, plan, sol)


@settings(max_examples=150, deadline=None, database=None)
@seed(2001)
@given(
    bases(),
    st.sampled_from([1.0, 2.0]),
    st.sampled_from([0.25, 0.5]),
    st.sampled_from(["linear", "sqrt"]),
    st.integers(0, 2**32 - 1),
)
def test_exact_pass_equals_its_reference_twin(base, capacity, epsilon, curve, seed):
    # every remaining budget filtered from one outcome list per arm against
    # one distribution per (arm, budget), by value.hex() and cost.hex():
    # budgeted plans under order and violate, bicriteria (alpha 1.5, often a
    # fractional budget), lagrangean and concave plans, all with integer costs
    cases = [(base, 1.0, "order"), (base, 1.0, "violate"), (base, 1.5, "order"), (as_lagrangean(base), 1.0, "order")]
    cases.append((_concave(base, capacity, epsilon, curve, np.random.default_rng(seed)), 1.0, "order"))
    for inst, alpha, rule in cases:
        sol, plan = _pipeline(inst, alpha=alpha)
        value, cost = evaluate_plan_exact(inst, plan, sol, rule=rule)
        twin = reference_exact.evaluate_plan_exact(inst, plan, sol, rule=rule)
        assert (value.hex(), cost.hex()) == (twin[0].hex(), twin[1].hex()), (inst.objective.kind, alpha, rule)


# ---------------------------------------------------------------------------
# Lagrangean executor


def test_lagrangean_zero_rewards_zero_profit():
    arm = build_two_level_arm([0.0, 0.0], [0.5, 0.5], play_cost=1, arm_id="a")
    inst = BanditInstance(arms=(arm,), budget=None, objective=Objective("lagrangean"))
    sol, plan = _pipeline(inst)
    trace = execute_lagrangean_greedy(inst, plan, sol, rng_seed=0)
    assert trace.total_cost == 0.0 and trace.value == 0.0
    assert evaluate_plan_exact(inst, plan, sol)[0] == pytest.approx(0.0, abs=1e-9)


def test_lagrangean_single_arm_deterministic_profit():
    # optimal LP never plays here (see relaxation tests): every trace exploits
    # the prior immediately, profit 0.5 with certainty
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.1, arm_id="A")
    inst = BanditInstance(arms=(arm,), budget=None, objective=Objective("lagrangean"))
    sol, plan = _pipeline(inst)
    for seed in range(5):
        trace = execute_lagrangean_greedy(inst, plan, sol, rng_seed=seed)
        assert trace.value == pytest.approx(0.5, abs=1e-9)
    value, cost = evaluate_plan_exact(inst, plan, sol)
    assert value == pytest.approx(sol.gamma_star, abs=1e-7)


def test_lagrangean_negative_traces_positive_expectation():
    armA = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.1, arm_id="A")
    armB = build_two_level_arm([0.4], [1.0], play_cost=0.0, arm_id="B")
    inst = BanditInstance(arms=(armA, armB), budget=None, objective=Objective("lagrangean"))
    sol, plan = _pipeline(inst)
    value, _ = evaluate_plan_exact(inst, plan, sol)
    assert value == pytest.approx(0.5, abs=1e-7)  # hand: 0.4 + 0.5*0.2
    assert value >= sol.gamma_star / 2 - 1e-6
    mc = monte_carlo_evaluate(inst, plan, sol, reps=20_000, seed=77)
    assert mc.values.min() < 0.0  # cost paid, eps never fired
    assert abs(mc.mean - value) <= 3.0 * mc.stderr


# ---------------------------------------------------------------------------
# Concave executor


def test_concave_executor_top1_halving():
    inst = as_concave(gen_integrality_gap(3), capacity=1.0, epsilon=0.25)
    sol, plan = _pipeline(inst)
    L = sol.grid
    prob = inst.objective.concave
    for seed in range(20):
        trace = execute_concave_greedy(inst, plan, sol, rng_seed=seed)
        assert verify_trace(trace, inst, plan) == []
        assert trace.total_cost <= inst.budget
        # exact packing check on the grid numerators
        total = sum(
            Fraction(prob.sigmas[a]) * Fraction(n, 2 * L)
            for a, n in trace.weight_numerators.items()
        )
        assert total <= Fraction(int(prob.capacity))
        # value recomputable from the final weights
        assert trace.value >= 0.0


def test_verify_trace_audits_concave_cost_against_budget():
    inst = as_concave(
        gen_random_suite(GeneratorSpec(family="random-beta", count=30, seed=5, budget_cap=3))[0],
        capacity=1.0,
        epsilon=0.25,
    )
    sol, plan = _pipeline(inst)
    # the first seed whose run plays: arm a0 exploits at its root, so a run
    # spends only when it gets past a0
    traces = (execute_concave_greedy(inst, plan, sol, rng_seed=k) for k in range(50))
    trace = next(t for t in traces if t.total_cost)
    assert trace.total_cost == inst.budget == 1.0
    assert verify_trace(trace, inst, plan) == []
    events = [dataclasses.replace(e, cost=e.cost + 50.0) if e.cost > 0 else e for e in trace.events]
    raised = dataclasses.replace(trace, events=events, total_cost=sum(e.cost for e in events))
    assert raised.total_cost == 51.0
    assert verify_trace(raised, inst, plan) == ["concave trace exceeds the budget"]


def test_concave_all_arms_reach_half_weight():
    # B = n and a huge budget: every policy ends at weight 1, halved to 1/2
    arms = tuple(
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id=f"a{i}") for i in range(2)
    )
    base = BanditInstance(arms=arms, budget=20.0, objective=Objective("budgeted"))
    inst = as_concave(base, capacity=2.0, epsilon=0.25)
    sol, plan = _pipeline(inst)
    # the LP puts full exploit mass at grid level L, so every run ends at eps = 1
    trace = execute_concave_greedy(inst, plan, sol, rng_seed=1)
    assert all(w == 0.5 for w in trace.weights.values())
    prob = inst.objective.concave
    # value equals the sum of per-arm g at the final states, each at weight 1/2
    assert trace.value == pytest.approx(
        sum(
            prob.value_at(arm.arm_id, _final_state(trace, inst, arm.arm_id), 0.5)
            for arm in inst.arms
        ),
        abs=1e-12,
    )


def _final_state(trace, inst, arm_id):
    last = None
    for e in trace.events:
        if e.arm == arm_id:
            last = e
    if last is None:
        return inst.arm(arm_id).root
    if last.action == "play":  # final event should be a stop; play means a child followed
        raise AssertionError("trace ended mid-play")
    return last.state


def test_concave_sqrt_utility_fractional_sigmas():
    # nonlinear tables and non-unit sigmas: g_u(y) = r_u * sqrt(y) is concave,
    # non-decreasing, and inherits the super-martingale property from the
    # reward martingale
    import numpy as np

    from banditlp.statespace import concave_grid_size, make_concave_problem

    rng = np.random.default_rng(7)
    inst = gen_random_suite(GeneratorSpec(family="random-beta", count=1, seed=903, budget_cap=5))[0]
    eps, B = 0.25, 2.0
    L = concave_grid_size(len(inst.arms), eps)
    sigmas = {a.arm_id: float(rng.uniform(0.2, B)) for a in inst.arms}
    tables = {
        a.arm_id: {
            s.id: tuple(s.reward * math.sqrt(l / L) for l in range(L + 1))
            for s in a.states.values()
        }
        for a in inst.arms
    }
    prob = make_concave_problem(inst.arms, B, eps, sigmas, tables)
    conc = BanditInstance(inst.arms, inst.budget, Objective("concave", concave=prob))
    sol = solve_relaxation(conc)
    pols = extract_single_arm_policies(sol, conc)
    assert sum(sigmas[p.arm_id] * p.explore_prob for p in pols) <= B * (1 + eps) + 1e-6
    plan = make_greedy_plan(pols, conc, "concave")
    mc = monte_carlo_evaluate(conc, plan, sol, reps=20_000, seed=1)
    assert mc.violations == []
    assert mc.mean >= (1 - eps) * sol.gamma_star / 8 - 3 * mc.stderr


def test_concave_prescale_weights_below_2b_stress():
    inst = as_concave(
        gen_random_suite(GeneratorSpec(family="random-two-level", count=1, seed=14, max_arms=3, budget_cap=5))[0],
        capacity=1.0,
        epsilon=0.25,
    )
    sol, plan = _pipeline(inst)
    prob = inst.objective.concave
    L = sol.grid
    worst = 0.0
    mc = monte_carlo_evaluate(inst, plan, sol, reps=10_000, seed=5)
    assert mc.violations == []
    for seed in range(2_000):
        trace = execute_concave_greedy(inst, plan, sol, rng_seed=seed)
        units = sum(prob.sigmas[a] * n for a, n in trace.weight_numerators.items())
        worst = max(worst, units)
    assert worst <= 2 * prob.capacity * L


def test_concave_plans_need_a_grid_solution():
    base = gen_integrality_gap(3)
    inst = as_concave(base, capacity=1.0, epsilon=0.25)
    _, plan = _pipeline(inst)
    plain = solve_relaxation(base)  # exploit masses on the one-level grid only
    with pytest.raises(ValueError, match="grid"):
        evaluate_plan_exact(inst, plan, plain)
    with pytest.raises(ValueError, match="grid"):
        execute_concave_greedy(inst, plan, plain, rng_seed=0)


def test_concave_exact_matches_monte_carlo():
    # the 50 instances of acceptance criterion 8: Monte-Carlo agrees with the
    # exact pass within 4 standard errors; where every run earns the same value
    # the standard error is 0 up to float noise and the two agree within 1e-12
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=25, seed=101, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=25, seed=202, budget_cap=5))
    for i, base in enumerate(suite):
        inst = as_concave(base, capacity=1.0 if i % 2 == 0 else 2.0, epsilon=0.25)
        sol, plan = _pipeline(inst)
        value, _ = evaluate_plan_exact(inst, plan, sol)
        mc = monte_carlo_evaluate(inst, plan, sol, reps=2_000, seed=17)
        assert mc.violations == []
        assert abs(mc.mean - value) <= max(4.0 * mc.stderr, 1e-12), i


# ---------------------------------------------------------------------------
# Monte-Carlo stream derivation


def test_mc_single_rep_equals_execute():
    inst = gen_integrality_gap(3)
    sol, plan = _pipeline(inst)
    mc = monte_carlo_evaluate(inst, plan, sol, reps=1, seed=99)
    trace = execute_greedy_order(inst, plan, sol, rng_seed=99)
    assert mc.values[0] == trace.value
    assert mc.max_cost == trace.total_cost


def test_mc_stderr_is_zero_when_every_run_earns_the_same():
    # no play is affordable, so every run exploits the best prior, 1/3; the
    # standard error used to be the rounding error of the mean, 1.76e-18
    gap = gen_integrality_gap(3)
    inst = BanditInstance(gap.arms, budget=0.0, objective=gap.objective)
    sol, plan = _pipeline(inst)
    mc = monte_carlo_evaluate(inst, plan, sol, reps=1000, seed=0)
    assert np.all(mc.values == mc.values[0])
    assert mc.stderr == 0.0


def test_mc_prefix_stability_when_doubling_reps():
    inst = gen_integrality_gap(3)
    sol, plan = _pipeline(inst)
    short = monte_carlo_evaluate(inst, plan, sol, reps=500, seed=42)
    long = monte_carlo_evaluate(inst, plan, sol, reps=1000, seed=42)
    assert np.array_equal(short.values, long.values[:500])


def _scaled_costs(inst, factor):
    """The instance with every play cost, switch cost and the budget times factor."""
    arms = tuple(
        ArmStateSpace(
            arm.arm_id,
            arm.root,
            {sid: dataclasses.replace(st, play_cost=st.play_cost * factor) for sid, st in arm.states.items()},
            arm.switch_cost * factor,
        )
        for arm in inst.arms
    )
    return BanditInstance(arms, None if inst.budget is None else inst.budget * factor, inst.objective)


def _sqrt_twin(inst, capacity, rng):
    """A concave twin with tables r * sqrt(l / L) and fractional sigmas."""
    from banditlp.statespace import concave_grid_size, make_concave_problem

    L = concave_grid_size(len(inst.arms), 0.25)
    sigmas = {a.arm_id: float(rng.uniform(0.2, capacity)) for a in inst.arms}
    tables = {
        a.arm_id: {s.id: tuple(s.reward * math.sqrt(l / L) for l in range(L + 1)) for s in a.states.values()}
        for a in inst.arms
    }
    prob = make_concave_problem(inst.arms, capacity, 0.25, sigmas, tables)
    return BanditInstance(inst.arms, inst.budget, Objective("concave", concave=prob))


def _tableau_solution(instance):
    """The relaxation's solution by the reference path: the tableau optimum of
    the built LP, read by from_raw."""
    lp, grid = build_relaxation(instance)
    return RelaxationSolution.from_raw(instance, solve_lp(lp), grid)


def _digest_corpus():
    """36 plans as (instance, solution, plan, rule): budgeted order, violate and
    alpha = 2 on 7 instances, three Lagrangean plans with costs times 0.07, 0.1
    and 0.3, six linear-table and six sqrt-table concave plans.  The solutions
    come from the tableau reference path, so the digest guards the sampled
    layer alone: the decomposition may land on another optimal vertex of a
    degenerate LP."""
    rng = np.random.default_rng(5)
    beta = gen_random_suite(GeneratorSpec(family="random-beta", count=3, seed=202, budget_cap=5))
    two_level = gen_random_suite(GeneratorSpec(family="random-two-level", count=3, seed=101, budget_cap=5))
    runs = []
    for inst in beta + two_level + [gen_integrality_gap(4)]:
        sol = _tableau_solution(inst)
        pols = extract_single_arm_policies(sol, inst)
        plan = make_greedy_plan(pols, inst, "budgeted")
        runs += [(inst, sol, plan, "order"), (inst, sol, plan, "violate")]
        runs.append((inst, sol, make_greedy_plan(pols, inst, "budgeted", alpha=2.0), "order"))
    for inst, factor in [(gen_integrality_gap(4), 0.07), (beta[0], 0.1), (two_level[1], 0.3)]:
        runs.append((_scaled_costs(as_lagrangean(inst), factor), None, None, "order"))
    for k, inst in enumerate(beta + two_level):
        runs.append((as_concave(inst, capacity=1.0 + k % 2, epsilon=0.25), None, None, "order"))
        runs.append((_sqrt_twin(inst, 1.0 + k % 2, rng), None, None, "order"))
    out = []
    for inst, sol, plan, rule in runs:
        if sol is None:
            sol = _tableau_solution(inst)
            plan = make_greedy_plan(extract_single_arm_policies(sol, inst), inst, inst.objective.kind)
        out.append((inst, sol, plan, rule))
    return out


def test_sampled_outputs_digest():
    # The bytes of every sampled output over a small fixed corpus, as one
    # SHA-256: each trace's JSONL and each Monte-Carlo run's values.  A change
    # that keeps the sampled runs must keep this digest; a change that moves
    # them on purpose records the new one and says why.  Recorded when
    # replication k moved from its own stream [seed, k] to window k of the
    # one stream [seed, 0]: the traces and replication 0 kept their bytes.
    import hashlib

    runs = _digest_corpus()
    h = hashlib.sha256()
    for inst, sol, plan, rule in runs:
        execute = execute_greedy_violate if rule == "violate" else _EXECUTORS[plan.variant]
        for seed in range(5):
            h.update(trace_to_jsonl(execute(inst, plan, sol, rng_seed=seed)).encode())
        h.update(monte_carlo_evaluate(inst, plan, sol, reps=200, seed=3, rule=rule).values.tobytes())
    assert len(runs) == 36
    assert h.hexdigest() == "5a8749cf3e3e262eb9ba7c22e7fb8b6087d293c59d4a7a569642436af7615276"


# ---------------------------------------------------------------------------
# Batched Monte-Carlo


def _mc_both(inst, sol, plan, reps, seed, rule="order"):
    """The report of the scalar loop and of the batched runner, each called directly."""
    tables = policies._tables(inst, sol)
    rules = policies._RULES[plan.variant](inst, plan, sol, rule)
    cap = policies._spend_cap(inst, plan, rule)
    key = policies._seed_key(seed)
    return (
        policies._mc_report(policies._scalar_runs(plan, tables, rules, key, reps), cap),
        policies._mc_report(batched.batched_runs(plan, tables, rules, key, reps), cap),
    )


def _fresh_draws(seed, n, skip=0):
    """Draws skip..skip+n-1 of numpy's Philox keyed [seed mod 2**64, 0].  The
    key is a uint64 array: numpy turns a list key into floats, which rounds
    seeds above 2**53."""
    bg = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    return np.random.Generator(bg).random(skip + n)[skip:]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1, -1])
def test_philox_blocks_match_numpy_philox(seed):
    # window k of width W is the draws [k*W, (k+1)*W) of one numpy Philox
    # stream: at its start, at a chunk offset of 4095 windows, and past 2**20
    # windows, where the reference skips ahead by Philox blocks of 4 draws
    key, width = policies._seed_key(seed), 12
    for first, rows in ((0, 3), (4095, 5)):
        got = policies._windows(key, first, rows, width)
        assert got.shape == (rows, width)
        assert np.array_equal(got.ravel(), _fresh_draws(seed, rows * width, first * width))
    first = 2**20 + 3
    bg = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    bg.advance(first * width // 4)
    got = policies._windows(key, first, 2, width)
    assert np.array_equal(got.ravel(), np.random.Generator(bg).random(2 * width))


def _ladder(n, d):
    """The ROADMAP ladder: n Beta-Bernoulli arms of depth d, budget n*d//2."""
    arms = tuple(
        build_beta_bernoulli_arm(1 + i % 3, 1 + (i * 7) % 3, d, play_cost=1, switch_cost=i % 2, arm_id=f"a{i}")
        for i in range(n)
    )
    return BanditInstance(arms=arms, budget=float(n * d // 2), objective=Objective("budgeted"))


def test_chunked_runs_equal_one_chunk(monkeypatch):
    # window k depends on (seed, k, plan) alone: a call split into chunks of
    # 1, 3 and 7 windows returns what one chunk returns, in both runners, and
    # the chunks cover the windows in order
    inst = _ladder(3, 3)
    sol, plan = _pipeline(inst)
    tables = policies._tables(inst, sol)
    rules = policies._RULES["budgeted"](inst, plan, sol, "order")
    width = policies._draw_width(plan, tables)
    key, reps = policies._seed_key(2**64 - 3), 20
    runners = (policies._scalar_runs, batched.batched_runs)
    whole = [[a.tobytes() for a in run(plan, tables, rules, key, reps)] for run in runners]
    assert whole[0] == whole[1]
    for rows in (1, 3, 7):
        monkeypatch.setattr(policies, "_CHUNK", rows * width)
        chunks = list(policies._window_chunks(key, reps, width))
        assert [lo for lo, _ in chunks] == list(range(0, reps, rows))
        assert np.array_equal(np.concatenate([w for _, w in chunks]), policies._windows(key, 0, reps, width))
        for run, ref in zip(runners, whole):
            assert [a.tobytes() for a in run(plan, tables, rules, key, reps)] == ref, (run, rows)


def test_streams_on_many_threads_draw_their_own_values():
    # each thread re-keys a generator of its own; with the interpreter
    # switching threads every microsecond, no thread's window lands on another
    # thread's key or position
    import sys
    import threading

    results, errors = {}, []

    def read(k):
        try:
            results[k] = [(policies._windows(k, i, 1, 4), policies._windows(k + 6, i, 1, 4)) for i in range(75)]
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    for k, pairs in results.items():
        assert np.array_equal(np.concatenate([a.ravel() for a, _ in pairs]), _fresh_draws(k, 300))
        assert np.array_equal(np.concatenate([b.ravel() for _, b in pairs]), _fresh_draws(k + 6, 300))
    assert sorted(results) == list(range(6))


def _play_through_solution(arms):
    """Thresholds that play every state with children and stop dead at every leaf."""
    w, x, z = {}, {}, {}
    for arm in arms:
        for sid, st in arm.states.items():
            key = (arm.arm_id, sid)
            w[key], x[key], z[key] = 1.0, (0.0, 0.0), 1.0 if st.transitions else 0.0
    return RelaxationSolution(gamma_star=0.0, w=w, x=x, z=z, grid=None)


def test_runs_read_exactly_their_window(monkeypatch):
    # Lagrangean runs that play every arm to a leaf at its full height read
    # 2*height + 1 draws per arm: heights 1, 2 and 4 fill W = 3 + 5 + 9 + 3
    # = 20 draws, five Philox blocks, exactly.  The scalar walk would raise
    # StopIteration past its window, the batched one IndexError.
    arms = tuple(build_beta_bernoulli_arm(1, 1, d, play_cost=1, arm_id=f"h{d}") for d in (1, 2, 4)) + (
        build_two_level_arm([0.2, 0.9], [0.5, 0.5], play_cost=1, switch_cost=1, arm_id="t"),
    )
    inst = BanditInstance(arms=arms, budget=None, objective=Objective("lagrangean"))
    sol = _play_through_solution(arms)
    plan = GreedyPlan("lagrangean", tuple(RankedArm(a.arm_id, 1.0, 1.0, 1.0) for a in arms), budget=None)
    tables = policies._tables(inst, sol)
    assert [ax.ca.draws for ax in tables.values()] == [3, 5, 9, 3]
    width = policies._draw_width(plan, tables)
    rules = policies._RULES["lagrangean"](inst, plan, sol, "order")
    for seed in range(20):
        window = policies._Window(policies._windows(seed, 0, 1, width)[0].tolist())
        run = policies._Run(False)
        policies._sample_run(plan, tables, rules, window, run)
        assert run.visited == [a.arm_id for a in arms]
        with pytest.raises(StopIteration):
            window.random()  # the run read the whole window
    walk, ptrs = batched._walk_lockstep, []

    def spy(arr, rows, draws, ptr, spent, avail):
        assert draws.shape[1] == width
        out = walk(arr, rows, draws, ptr, spent, avail)
        ptrs.append(ptr.copy())
        return out

    monkeypatch.setattr(batched, "_walk_lockstep", spy)
    values, _, _ = batched.batched_runs(plan, tables, rules, 3, 300)
    assert [p.tolist() for p in ptrs] == [[d] * 300 for d in (3, 8, 17, 20)]
    assert values.tobytes() == policies._scalar_runs(plan, tables, rules, 3, 300)[0].tobytes()


def _plan_readers(variant):
    """Every reader of a plan of the variant, as name -> call(instance,
    plan, solution): the exact pass, both Monte-Carlo runners, the trace
    audit, the variant's executors and, for a budgeted plan, the joint-state
    process."""
    readers = {
        "exact": evaluate_plan_exact,
        "mc scalar": lambda inst, plan, sol: monte_carlo_evaluate(inst, plan, sol, reps=3, seed=1),
        "mc batched": lambda inst, plan, sol: monte_carlo_evaluate(inst, plan, sol, policies._BATCH_MIN_REPS, 1),
        "verify_trace": lambda inst, plan, sol: verify_trace(ExecutionTrace(variant, 0, [], None, 0.0, 0.0), inst, plan),
        "executor": lambda inst, plan, sol: _EXECUTORS[variant](inst, plan, sol, rng_seed=0),
    }
    if variant == "budgeted":
        readers["violate executor"] = lambda inst, plan, sol: execute_greedy_violate(inst, plan, sol, rng_seed=0)
        readers["process"] = policies.GreedyOrderProcess
    return readers


@pytest.mark.parametrize("variant", ["budgeted", "lagrangean", "concave"])
def test_every_plan_reader_refuses_an_arm_named_twice_or_unknown(variant):
    # a plan that listed a0 twice walked it twice, and a run paid its switch
    # twice when both walks played the root: Monte-Carlo flagged "multiple
    # switch charges on one arm" and the exact pass valued the plan; an
    # unknown arm ended in a KeyError.  Every reader now applies the plan
    # rule, so no run walks an arm twice and the multi-switch audit is gone.
    inst = {"budgeted": gen_integrality_gap(3), "lagrangean": as_lagrangean(gen_integrality_gap(3)),
            "concave": as_concave(gen_integrality_gap(3), capacity=1.0, epsilon=0.5)}[variant]
    sol, plan = _pipeline(inst)
    first = plan.order[0]
    for order, message in (
        ((first, *plan.order), "the plan names arm 'a0' twice"),
        ((*plan.order, dataclasses.replace(first, arm_id="zz")), "the plan names arm 'zz', which the instance does not have"),
    ):
        bad = dataclasses.replace(plan, order=order)
        for name, read in _plan_readers(variant).items():
            with pytest.raises(ValueError, match=re.escape(message)):
                read(inst, bad, sol)
            read(inst, plan, sol)  # the plan itself is read


def _crossed_plans():
    """Plans of every variant on integrality-gap arms, the bicriteria one and
    three bad ones: an unknown variant, an arm named twice, an unknown arm."""
    base = gen_integrality_gap(3)
    kinds = {"budgeted": base, "lagrangean": as_lagrangean(base), "concave": as_concave(base, 1.0, 0.5)}
    plans = {kind: _pipeline(inst)[1] for kind, inst in kinds.items()}
    plans["bicriteria"] = _pipeline(base, alpha=1.5)[1]
    plan = plans["budgeted"]
    plans["bogus"] = dataclasses.replace(plan, variant="bogus")
    plans["twice"] = dataclasses.replace(plan, order=plan.order + plan.order[:1])
    plans["unknown"] = dataclasses.replace(plan, order=(dataclasses.replace(plan.order[0], arm_id="zz"),))
    return kinds, plans


def test_every_plan_variant_on_every_instance_kind_is_read_or_refused():
    # a concave plan on a budgeted instance ended in an AttributeError, an
    # unknown arm in a KeyError; the plan rule refuses each with a
    # ValueError, and any other exception fails the test
    kinds, plans = _crossed_plans()
    solutions = {kind: solve_relaxation(inst) for kind, inst in kinds.items()}
    readers = {f"{v} {name}": read for v in ("budgeted", "lagrangean", "concave") for name, read in _plan_readers(v).items()}
    for rule in ("order", "violate"):
        readers[f"exact {rule}"] = functools.partial(evaluate_plan_exact, rule=rule)
        readers[f"mc {rule}"] = functools.partial(monte_carlo_evaluate, reps=3, seed=1, rule=rule)
    outcome = {}
    for (kind, inst), (label, plan), (name, read) in itertools.product(kinds.items(), plans.items(), readers.items()):
        try:
            read(inst, plan, solutions[kind])
            outcome[kind, label, name] = "read"
        except ValueError:
            outcome[kind, label, name] = "refused"
    for kind in kinds:  # a plan on its own instance is read by its own readers
        assert all(outcome[kind, kind, f"{kind} {name}"] == "read" for name in _plan_readers(kind))
    assert {outcome[key] for key in outcome if key[1] in ("bogus", "twice", "unknown")} == {"refused"}
    assert outcome["budgeted", "concave", "concave exact"] == "refused"  # no concave data


@st.composite
def _mc_cases(draw):
    """(instance, solution, plan, rule) of every kind Monte-Carlo runs: budgeted
    order, violate and alpha = 1.5 with integer or fractional costs,
    Lagrangean, and concave with linear or sqrt tables."""
    kind = draw(st.sampled_from(["order", "violate", "alpha 1.5", "lagrangean", "concave"]))
    if kind in ("lagrangean", "concave"):
        inst = draw(instances(kind))
    else:
        inst = _scaled_costs(draw(bases()), draw(st.sampled_from([1.0, 0.3, 0.7])))
    sol, plan = _pipeline(inst, alpha=1.5 if kind == "alpha 1.5" else 1.0)
    return inst, sol, plan, "violate" if kind == "violate" else "order"


@settings(max_examples=200, deadline=None)
@given(_mc_cases(), st.integers(0, 2**64 - 1))
def test_batched_runs_equal_scalar_runs_on_random_plans(case, seed):
    # values, spends and both audit flags, to the byte, for one replication
    # and for 128 and 300 in one chunk
    inst, sol, plan, rule = case
    tables = policies._tables(inst, sol)
    rules = policies._RULES[plan.variant](inst, plan, sol, rule)
    for reps in (1, 128, 300):
        scalar = policies._scalar_runs(plan, tables, rules, seed, reps)
        batch = batched.batched_runs(plan, tables, rules, seed, reps)
        assert [a.tobytes() for a in batch] == [a.tobytes() for a in scalar], reps


def test_arm_arrays_hold_the_step_tables_bits():
    # the batched walk's w, z and cuts are the step table's floats, and its
    # charges, child cumulative probabilities and children are the compiled
    # arm's, which the scalar walk reads; the table's cuts accumulate z (0 at
    # a leaf) and the exploit masses left to right, as the solution holds them
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    for inst, sol, _, _ in _digest_corpus():
        for arm_id, tab in policies._tables(inst, sol).items():
            arr, ca = batched._ArmArrays(tab), tab.ca
            for u, key in enumerate(ca.keys):
                base = 0.0 if ca.leaf[u] else sol.z[key]
                assert bits(tab.cuts[u]) == bits(list(accumulate(sol.x[key], initial=base))[1:])
                assert bits([tab.w[u], tab.z[u]]) == bits([sol.w[key], base if ca.kids[u] else -math.inf])
                assert bits([arr.w[u], arr.z[u], arr.charge[u]]) == bits([tab.w[u], tab.z[u], ca.charges[u]])
                assert bits(arr.cuts[u]) == bits((-math.inf,) + tab.cuts[u] + (math.inf,))
                m = len(ca.kids[u])
                cum = list(accumulate(p for _, p in ca.kids[u]))[:-1]
                assert bits(arr.cum[:, u]) == bits(cum + [math.inf] * (arr.width - max(m, 1)))
                assert arr.kids[u * arr.width : u * arr.width + m].tolist() == [c for c, _ in ca.kids[u]]


def test_a_solution_is_freed_after_a_batched_call_without_the_collector():
    # nothing the call leaves behind points back at the solution, and its
    # step tables and walk arrays form no reference cycle that only the
    # garbage collector would free
    import gc
    import weakref

    inst = _ladder(3, 3)
    sol, plan = _pipeline(inst)
    ref = weakref.ref(sol)
    gc.collect()
    gc.disable()
    try:
        monte_carlo_evaluate(inst, plan, sol, reps=300, seed=1)
        del sol
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_tables_are_built_once_per_solution_and_arm():
    inst = gen_random_suite(GeneratorSpec(family="random-beta", count=1, seed=5, max_arms=3, budget_cap=4))[0]
    sol, plan = _pipeline(inst)
    tables = policies._tables(inst, sol)
    assert all(policies._tables(inst, sol)[a] is tab for a, tab in tables.items())
    # the solve wrote each arm's values by compiled index, and the table
    # reads them without a copy
    assert all(tab.w is sol.arm_values(inst.arm(a)).w for a, tab in tables.items())
    evaluate_plan_exact(inst, plan, sol)
    # Monte-Carlo (both runners), the traces and the joint-state process
    # read the same tables
    monte_carlo_evaluate(inst, plan, sol, reps=20, seed=1)
    monte_carlo_evaluate(inst, plan, sol, reps=policies._BATCH_MIN_REPS, seed=1)
    execute_greedy_order(inst, plan, sol, rng_seed=3)
    process = policies.GreedyOrderProcess(inst, plan, sol)
    assert all(process.tables[a] is tab for a, tab in tables.items())
    assert all(policies._tables(inst, sol)[a] is tab for a, tab in tables.items())
    # the tables and the per-arm values are no dataclass field: a replaced
    # solution starts without any and reads its own from its w, x and z
    assert {f.name for f in dataclasses.fields(sol) if f.init} == {
        "gamma_star", "w", "x", "z", "grid", "cuts", "duality_gap", "master_pivots", "master_bland_pivots"
    }
    dead = dataclasses.replace(sol, x={key: (0.0, 0.0) for key in sol.x})
    assert dead == dataclasses.replace(sol, x=dead.x) and dead != sol
    fresh = policies._tables(inst, dead)
    for arm in inst.arms:
        tab = fresh[arm.arm_id]
        assert tab is not tables[arm.arm_id] and tab.w == tables[arm.arm_id].w
        z = sol.z[(arm.arm_id, arm.root)]
        assert tab.cuts[0] == (z, z)
    # another arm object under the same id gets its own table, read by key
    # in its own compiled order (reversed transitions reverse the children)
    copies = tuple(
        ArmStateSpace(a.arm_id, a.root, {s: dataclasses.replace(st, transitions=st.transitions[::-1])
                                         for s, st in a.states.items()}, a.switch_cost)
        for a in inst.arms
    )
    assert any(a.compiled().sids != b.compiled().sids for a, b in zip(inst.arms, copies))
    other = BanditInstance(copies, inst.budget, inst.objective)
    for arm in copies:
        tab = policies._tables(other, sol)[arm.arm_id]
        assert tab.arm is arm and tab.ca is arm.compiled()
        assert tab.w == [sol.w[key] for key in arm.compiled().keys]


def test_a_solution_pickles_and_copies_its_fields():
    # the per-arm values and step tables hold compiled arms, whose index is
    # a read-only mapping that does not pickle; an evaluated solution used
    # to raise TypeError.  A copy keeps the fields and reads its values off them.
    inst = gen_integrality_gap(3)
    sol, plan = _pipeline(inst)
    value = evaluate_plan_exact(inst, plan, sol)
    for copied in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol)):
        assert copied == sol and "_step_tables" not in copied.__dict__
        assert evaluate_plan_exact(inst, plan, copied) == value


def test_a_solved_solutions_keyed_values_are_snapshots():
    # w, x and z have no default, and a solved solution's keyed dicts are
    # read off its per-arm values: every reader reads the per-arm form, so
    # an edit in place is not seen, while a copy made with replace is
    with pytest.raises(TypeError):
        RelaxationSolution(gamma_star=0.5)
    inst = gen_integrality_gap(3)
    sol = solve_relaxation(inst)
    arm = inst.arms[0]
    key = (arm.arm_id, arm.root)
    solved = sol.z[key]
    sol.z[key] = sol.w[key] + 1.0
    assert sol.check_invariants(inst) == []
    assert sol.lp_values(inst)[f"z|{key[0]}|{key[1]}"] == solved
    copied = dataclasses.replace(sol, z=dict(sol.z))
    assert f"x+z > w at {key}" in copied.check_invariants(inst)


def _diamond_arm(arm_id, hi, lo, switch_cost):
    """Two plays to a leaf, through x (play cost 1) or y (play cost 2): runs
    that end in the same state can have spent different amounts."""
    from banditlp.statespace import BeliefState

    mid = (hi + lo) / 2
    states = {
        "r": BeliefState("r", mid, 1.0, (("x", 0.5), ("y", 0.5))),
        "x": BeliefState("x", mid, 1.0, (("h", 0.5), ("l", 0.5))),
        "y": BeliefState("y", mid, 2.0, (("h", 0.5), ("l", 0.5))),
        "h": BeliefState("h", hi),
        "l": BeliefState("l", lo),
    }
    return ArmStateSpace(arm_id, "r", states, switch_cost)


def test_batched_runs_equal_scalar_runs_on_digest_corpus():
    # the digest corpus, plus budgeted plans with fractional costs (the walk's
    # budget test with its slack) and on diamond arms (the arm's spend, not
    # only its final state, reaches the rule)
    corpus = _digest_corpus()
    diamonds = tuple(_diamond_arm(f"d{i}", 0.6 + 0.15 * i, 0.3 - 0.1 * i, i % 2) for i in range(3))
    budgeted = [BanditInstance(diamonds, 5.0, Objective("budgeted"))]
    budgeted.append(_scaled_costs(budgeted[0], 0.3))
    # three plays at 0.1 add up to 0.30000000000000004, past the budget 0.3 in floats
    budgeted.append(BanditInstance(_scaled_costs(gen_integrality_gap(3), 0.1).arms, 0.3, Objective("budgeted")))
    for inst in budgeted:
        sol, plan = _pipeline(inst)
        corpus += [(inst, sol, plan, "order"), (inst, sol, plan, "violate")]
    for inst in (as_lagrangean(budgeted[0]), as_concave(budgeted[0], capacity=1.0, epsilon=0.25)):
        corpus.append((inst, *_pipeline(inst), "order"))
    for reps in (1, 200, 3000):
        for i, (inst, sol, plan, rule) in enumerate(corpus):
            scalar, batch = _mc_both(inst, sol, plan, reps, seed=3, rule=rule)
            assert batch.values.tobytes() == scalar.values.tobytes(), (reps, i)
            assert (batch.max_cost, batch.mean_cost, batch.stderr, batch.violations) == (
                scalar.max_cost,
                scalar.mean_cost,
                scalar.stderr,
                scalar.violations,
            ), (reps, i)


def test_mc_prefix_across_chunk_and_dispatch():
    # the first k values do not depend on reps: below and at the dispatch
    # constant, and within and past one chunk of the batched runner
    inst = as_concave(gen_random_suite(GeneratorSpec(family="random-beta", count=1, seed=4, budget_cap=5))[0], 1.0, 0.25)
    sol, plan = _pipeline(inst)
    chunk = policies._CHUNK // policies._draw_width(plan, policies._tables(inst, sol))  # windows per chunk
    long = monte_carlo_evaluate(inst, plan, sol, reps=chunk + 1, seed=11)
    for k in (1, policies._BATCH_MIN_REPS - 1, policies._BATCH_MIN_REPS, chunk):
        short = monte_carlo_evaluate(inst, plan, sol, reps=k, seed=11)
        assert short.values.tobytes() == long.values[:k].tobytes(), k


def test_numpy_integer_seeds_match_python_seeds():
    inst = gen_integrality_gap(3)
    sol, plan = _pipeline(inst)
    for reps in (50, policies._BATCH_MIN_REPS):
        ref = monte_carlo_evaluate(inst, plan, sol, reps=reps, seed=5)
        for seed in (np.int64(5), np.uint64(5)):
            mc = monte_carlo_evaluate(inst, plan, sol, reps=reps, seed=seed)
            assert mc.values.tobytes() == ref.values.tobytes()
    ref = trace_to_jsonl(execute_greedy_order(inst, plan, sol, rng_seed=4))
    for seed in (np.int64(4), np.uint64(4)):
        assert trace_to_jsonl(execute_greedy_order(inst, plan, sol, rng_seed=seed)) == ref
    with pytest.raises(TypeError):
        monte_carlo_evaluate(inst, plan, sol, reps=10, seed=5.0)
    with pytest.raises(TypeError):
        execute_greedy_order(inst, plan, sol, rng_seed=4.0)


def test_batched_memory_is_bounded_by_the_chunk():
    # A 1e5-rep call on the 7x4 ladder (W = 64 draws): its outputs take
    # 1.8 MB and one chunk of scratch about 5 MB; without chunks the peak was
    # 118 MB.  On the 30x8 ladder W = 510 draws, rounded up to 512: a chunk of
    # 4096 rows would hold 16 MB of draws, so chunks are sized by draws.
    import tracemalloc

    for n, d, reps, width in ((7, 4, 100_000, 64), (30, 8, 5000, 512)):
        inst = _ladder(n, d)
        sol, plan = _pipeline(inst)
        assert policies._draw_width(plan, policies._tables(inst, sol)) == width
        tracemalloc.start()
        try:
            mc = monte_carlo_evaluate(inst, plan, sol, reps=reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc.violations == []
        assert peak < 12 * 2**20, (n, d)


# ---------------------------------------------------------------------------
# Trace export


def test_trace_jsonl_roundtrip():
    import json

    inst = gen_integrality_gap(2)
    sol, plan = _pipeline(inst)
    trace = execute_greedy_order(inst, plan, sol, rng_seed=0)
    lines = trace_to_jsonl(trace).strip().split("\n")
    events = [json.loads(l) for l in lines[:-1]]
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["value"] == trace.value
    assert len(events) == len(trace.events)
    assert all({"arm", "state", "action", "cost", "q"} <= set(e) for e in events)


# ---------------------------------------------------------------------------
# Non-adaptive two-level construction


def test_nonadaptive_prior_best_case():
    arms = (build_two_level_arm([1.0], [1.0], play_cost=1, arm_id="big"),) + tuple(
        build_two_level_arm([0.0, 0.2], [0.5, 0.5], play_cost=1, arm_id=f"s{i}") for i in range(2)
    )
    inst = BanditInstance(arms=arms, budget=3.0, objective=Objective("budgeted"))
    sol = solve_relaxation(inst)
    res = nonadaptive_two_level(inst, sol)
    assert res.case == "prior-best"
    assert res.probe_set == ()
    assert res.expected_value == pytest.approx(1.0)
    assert res.expected_value >= sol.gamma_star / 7 - 1e-6


def test_nonadaptive_gap_instance_probe_set():
    # the greedy fill admits two of the four symmetric arms (each has
    # c/C + X = 1/2); the rule's exact value is (1 - (3/4)^2) + (3/4)^2/4 = 37/64
    inst = gen_integrality_gap(4)
    sol = solve_relaxation(inst)
    res = nonadaptive_two_level(inst, sol)
    assert res.case == "probe-set"
    assert len(res.probe_set) == 2
    assert res.probe_cost <= inst.budget
    assert res.expected_value == pytest.approx(37 / 64, abs=1e-9)
    assert res.expected_value >= sol.gamma_star / 7 - 1e-6


@pytest.mark.parametrize("n", [50, 200])
def test_nonadaptive_probe_set_value_on_a_large_gap_instance(n):
    # the rule's value enumerated every joint outcome of the probed arms,
    # 2^|S| of them: 333 ms at n = 40, and at n = 50 "probe set too large
    # for exhaustive outcome enumeration"
    inst = gen_integrality_gap(n)
    sol = solve_relaxation(inst)
    res = nonadaptive_two_level(inst, sol)
    assert res.case == "probe-set"
    assert res.expected_value == pytest.approx(1 - (1 - 1 / n) ** (len(res.probe_set) + 1), abs=1e-12)
    assert res.expected_value >= sol.gamma_star / 7 - 1e-6


def test_two_level_rule_value_equals_the_outcome_enumeration():
    # the reference enumerates the probed arms' joint outcomes; the rule
    # value sums over the product of their leaf CDFs, in another order
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=30, seed=55, max_arms=6))
    for inst in suite:
        ids = [a.arm_id for a in inst.arms]
        for k in range(len(ids) + 1):
            probed = [inst.arm(a) for a in ids[:k]]
            best = max((a.states[a.root].reward for a in inst.arms[k:]), default=0.0)
            supports = [[(a.states[c].reward, p) for c, p in a.states[a.root].transitions if p > 0.0] for a in probed]
            expected = sum(
                math.prod(p for _, p in combo) * max([best, *(v for v, _ in combo)])
                for combo in itertools.product(*supports)
            )
            assert policies._two_level_rule_value(inst, tuple(ids[:k])) == pytest.approx(expected, abs=1e-12)


def test_nonadaptive_boundary_arm_case():
    arms = tuple(
        build_two_level_arm([0.0, 10.0], [0.7, 0.3], play_cost=1, arm_id=f"a{i}") for i in range(3)
    )
    inst = BanditInstance(arms=arms, budget=3.0, objective=Objective("budgeted"))
    sol = solve_relaxation(inst)
    res = nonadaptive_two_level(inst, sol)
    assert res.case == "boundary-arm"
    assert res.select_arm is not None
    assert res.expected_value >= sol.gamma_star / 7 - 1e-6


def test_nonadaptive_random_suite_bound():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=20, seed=55, budget_cap=5))
    for inst in suite:
        sol = solve_relaxation(inst)
        res = nonadaptive_two_level(inst, sol)
        assert res.probe_cost <= inst.budget + 1e-9
        assert res.expected_value >= sol.gamma_star / 7 - 1e-6


def test_prior_best_baseline():
    from banditlp.policies import prior_best_value

    arms = (
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a"),
        build_two_level_arm([0.8], [1.0], play_cost=1, arm_id="b"),
    )
    inst = BanditInstance(arms=arms, budget=2.0, objective=Objective("budgeted"))
    arm_id, value = prior_best_value(inst)
    assert arm_id == "b" and value == 0.8
    # the rounded plan with exploration beats or matches the naive comparator here
    sol, plan = _pipeline(inst)
    exact, _ = evaluate_plan_exact(inst, plan, sol)
    assert exact >= value - 1e-9


def test_nonadaptive_rejects_multilevel():
    arm = build_beta_bernoulli_arm(1, 1, 2, play_cost=1, arm_id="b")
    inst = BanditInstance(arms=(arm,), budget=2.0, objective=Objective("budgeted"))
    sol = solve_relaxation(inst)
    with pytest.raises(ValueError):
        nonadaptive_two_level(inst, sol)


@pytest.mark.parametrize("kind", ["budgeted", "lagrangean"])
def test_an_armless_instance_is_worth_zero(monkeypatch, kind):
    # no arm: nothing to play or exploit, so every evaluator, trace and the
    # oracle value the instance at 0 instead of failing on an empty argmax
    inst = BanditInstance(arms=(), budget=1.0 if kind == "budgeted" else None, objective=Objective(kind))
    solution, plan = _pipeline(inst)
    assert solution.gamma_star == 0.0 and plan.order == ()
    assert evaluate_plan_exact(inst, plan, solution) == (0.0, 0.0)
    runners = []
    batched_runs = batched.batched_runs
    monkeypatch.setattr(batched, "batched_runs", lambda *a: runners.append("batched") or batched_runs(*a))
    rules = ["order", "violate"] if kind == "budgeted" else ["order"]
    for reps in (4, 300):  # the scalar loop and the batched runner
        for rule in rules:
            report = monte_carlo_evaluate(inst, plan, solution, reps, 7, rule=rule)
            assert report.mean == 0.0 and report.max_cost == 0.0 and not report.violations
            assert report.values.tolist() == [0.0] * reps
    assert runners == ["batched"] * len(rules)
    executors = [execute_greedy_order, execute_greedy_violate] if kind == "budgeted" else [execute_lagrangean_greedy]
    for execute in executors:
        trace = execute(inst, plan, solution, 7)
        assert (trace.value, trace.total_cost, trace.exploited, trace.events) == (0.0, 0.0, None, [])
        assert verify_trace(trace, inst, plan, "violate" if execute is execute_greedy_violate else "order") == []
    opt, table = oracle.dp_optimal(inst)
    assert opt == 0.0
    assert oracle.enumerate_policy_statistics(inst, table).expected_reward == 0.0
    if kind == "budgeted":
        process = policies.GreedyOrderProcess(inst, plan, solution)
        assert oracle.enumerate_policy_statistics(inst, process).expected_reward == 0.0
    assert policies.prior_best_value(inst) == (None, 0.0)
