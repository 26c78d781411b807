import dataclasses
import math
import re
import sys
import types
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlp import oracle
from banditlp.bench import as_concave, as_lagrangean, gen_integrality_gap, gen_random_suite, GeneratorSpec
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


def _recosted(arm, play, switch_cost):
    """The arm with each play cost c replaced by play(c), and switch_cost."""
    states = {sid: BeliefState(sid, s.reward, play(s.play_cost), s.transitions) for sid, s in arm.states.items()}
    return ArmStateSpace(arm.arm_id, arm.root, states, switch_cost)


def _scaled(inst, scale):
    """The instance with every play and switch cost multiplied by scale."""
    arms = tuple(_recosted(arm, lambda c: c * scale, arm.switch_cost * scale) for arm in inst.arms)
    return BanditInstance(arms, inst.budget, inst.objective)


@pytest.mark.parametrize("objective", ["budgeted", "lagrangean"])
@pytest.mark.parametrize("play_cost,switch_cost", [(0.0, -1.0), (-0.5, 0.0)])
def test_negative_costs_rejected(objective, play_cost, switch_cost):
    # unchecked, a switch cost of -1 took the budgeted DP to remaining budgets
    # 2 and 3 from C = 1, and a play cost of -0.5 a Lagrangean OPT of 1.25,
    # above every reward
    arms = tuple(
        _recosted(build_two_level_arm([0.0, 1.0], [0.5, 0.5], 0, arm_id=f"a{k}"), lambda c: play_cost, switch_cost)
        for k in range(2)
    )
    inst = BanditInstance(arms, 1.0 if objective == "budgeted" else None, Objective(objective))
    with pytest.raises(ValueError, match="'a0' has one below 0"):
        dp_optimal(inst)
    with pytest.raises(ValueError, match="'a0' has one below 0"):
        enumerate_policy_statistics(inst, _NeverPlay("a0"))


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


def test_greedy_process_exploits_the_best_root_when_no_play_is_affordable():
    # no first play fits the budget, so the executor exploits the best prior
    # mean; the process stops at once and the oracle exploits the same arm,
    # whichever arm the plan lists first
    arms = (
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=2, arm_id="a0"),
        build_two_level_arm([0.8], [1.0], play_cost=3, arm_id="a1"),
    )
    inst = BanditInstance(arms, 1.0, Objective("budgeted"))
    sol = solve_relaxation(inst)
    plan = make_greedy_plan(extract_single_arm_policies(sol, inst), inst, "budgeted")
    for order in (plan.order, plan.order[::-1]):
        reordered = dataclasses.replace(plan, order=order)
        stats = enumerate_policy_statistics(inst, GreedyOrderProcess(inst, reordered, sol))
        assert stats.expected_reward == evaluate_plan_exact(inst, reordered, sol)[0] == 0.8
        assert stats.x[("a1", "root")] == 1.0


def test_the_oracle_refuses_a_concave_instance_by_its_kind():
    # a budgeted plan on a concave instance, walked by the joint-state
    # process, ended in "TypeError: '>' not supported between instances of
    # 'float' and 'NoneType'": the statistics walk took the concave budget
    # for no budget.  Both entry points now check the kind first.
    conc = as_concave(gen_integrality_gap(2), 1.0, 0.5)
    sol = solve_relaxation(conc)
    plan = make_greedy_plan(extract_single_arm_policies(sol, conc), conc, "budgeted")
    refused = pytest.raises(ValueError, match=re.escape("the DP oracle handles budgeted/lagrangean objectives, not 'concave'"))
    with refused:
        enumerate_policy_statistics(conc, GreedyOrderProcess(conc, plan, sol))
    with refused:
        dp_optimal(conc)


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


def test_deep_chain_needs_no_recursion_limit():
    # a 1500-state chain before the one informative play: the DP walks it
    # under the interpreter's default limit and leaves the limit as it was
    n = 1500
    states = {f"s{k}": BeliefState(f"s{k}", 0.5, 1.0, ((f"s{k + 1}", 1.0),)) for k in range(n)}
    states[f"s{n}"] = BeliefState(f"s{n}", 0.5, 1.0, (("hi", 0.5), ("lo", 0.5)))
    states["hi"], states["lo"] = BeliefState("hi", 1.0), BeliefState("lo", 0.0)
    chain = ArmStateSpace("c", "s0", states)
    fallback = build_two_level_arm([0.6], [1.0], play_cost=1, arm_id="f")
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        opt, table = dp_optimal(BanditInstance((chain, fallback), float(n + 1), Objective("budgeted")))
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)
    assert opt == pytest.approx(0.5 * 1.0 + 0.5 * 0.6, abs=1e-12)
    assert table.decide(JointState(("s0", "root"), n + 1, None)) == ("play", "c")
    assert table.decide(JointState((f"s{n}", "root"), 1, 0)) == ("play", "c")
    assert table.decide(JointState(("lo", "root"), 0, 0)) == ("stop",)


def test_the_bound_values_one_state_of_the_suites_heaviest_lagrangean_shape():
    # three 6-state arms at play cost 1 and switch cost 1: no play from the
    # root can be repaid by a reward <= 1, so the DP values the root only
    # (541 joint states unbounded); decide values the rest on demand
    arms = tuple(
        build_beta_bernoulli_arm(a, b, 2, play_cost=1, switch_cost=1, arm_id=f"a{k}")
        for k, (a, b) in enumerate([(1, 1), (2, 1), (1, 3)])
    )
    inst = BanditInstance(arms, None, Objective("lagrangean"))
    opt, table = dp_optimal(inst)
    ref_opt, ref_table = _reference_dp(inst)
    assert len(table._memo) == 1
    assert opt == ref_opt
    joints = list(_joint_states(inst, 3000))
    assert len(joints) > 100
    for joint in joints:
        assert table.decide(joint) == ref_table.decide(joint), joint
    assert len(table._memo) > 1


@pytest.mark.parametrize("extra,valued", [(0.0, 3), (1e-6, 1)])
def test_a_play_whose_bound_ties_the_stop_value_is_valued(extra, valued):
    # root reward 0.5, reachable maximum 1: at cost 0.5 the bound 1 - 0.5
    # equals the stop value exactly, so the play is valued (and loses to
    # stopping); a cost past the slack skips it
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.5 + extra, arm_id="a")
    inst = BanditInstance((arm,), None, Objective("lagrangean"))
    opt, table = dp_optimal(inst)
    ref_opt, ref_table = _reference_dp(inst)
    assert (opt, len(table._memo)) == (ref_opt, valued)
    start = JointState(("root",), None, None)
    assert table.decide(start) == ref_table.decide(start) == ("stop",)


@pytest.mark.parametrize("scale", [1.0, 0.3, 0.05])
def test_the_optimal_policy_never_walks_into_a_skipped_state(scale):
    # the acceptance mix's Lagrangean twins, their costs scaled so that some
    # plays are valued and some skipped: the policy's walk values nothing new
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=100, seed=101, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=100, seed=202, budget_cap=5))
    for inst in suite:
        lag = _scaled(as_lagrangean(inst), scale)
        _, table = dp_optimal(lag)
        valued = len(table._memo)
        enumerate_policy_statistics(lag, table)
        assert len(table._memo) == valued


# ---------------------------------------------------------------------------
# The DP on state ids that dp_optimal replaced, kept as its reference: a
# recursion whose memo key sorts (class, state id) over every arm.


def _reference_canon(classes, states, budget, last):
    last_entry = None if last is None else (classes[last], states[last])
    return (budget, last_entry, tuple(sorted(zip(classes, states))))


def _reference_dp(instance):
    """(OPT, policy with decide(joint)) by the recursion on state ids."""
    with_budget = instance.objective.kind == "budgeted"
    arms = instance.arms
    n = len(arms)
    classes = oracle._arm_classes(instance)
    track_last = any(a.switch_cost > 0 for a in arms)
    memo = {}

    def value(states, budget, last):
        key = _reference_canon(classes, states, budget, last if track_last else None)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = max(arms[i].states[states[i]].reward for i in range(n))
        action = ("stop",)
        for i in range(n):
            st = arms[i].states[states[i]]
            if st.is_leaf:
                continue
            cost = st.play_cost + (arms[i].switch_cost if last != i else 0.0)
            if with_budget:
                icost = int(cost)
                if icost > budget:
                    continue
                v = 0.0
                for child, p in st.transitions:
                    if p:
                        v += p * value(states[:i] + (child,) + states[i + 1 :], budget - icost, i)
            else:
                v = -cost
                for child, p in st.transitions:
                    if p:
                        v += p * value(states[:i] + (child,) + states[i + 1 :], None, i)
            if v > best + oracle.ACTION_TIE:
                best = v
                action = ("play", classes[i], states[i], i == last)
        memo[key] = (best, action)
        return best

    def decide(joint):
        last = joint.last if track_last else None
        action = memo[_reference_canon(classes, joint.states, joint.budget, last)][1]
        if action[0] == "stop":
            return ("stop",)
        _, cls, sid, is_last = action
        for idx, arm in enumerate(arms):
            if classes[idx] == cls and joint.states[idx] == sid and (not track_last or is_last == (idx == joint.last)):
                return ("play", arm.arm_id)
        raise KeyError(action)

    opt = value(tuple(a.root for a in arms), int(instance.budget) if with_budget else None, None)
    return opt, types.SimpleNamespace(decide=decide)


def _joint_states(instance, limit):
    """Joint states reachable by any plays, depth first, at most `limit`."""
    with_budget = instance.objective.kind == "budgeted"
    start = JointState(tuple(a.root for a in instance.arms), int(instance.budget) if with_budget else None, None)
    seen, stack = {start}, [start]
    while stack and len(seen) < limit:
        joint = stack.pop()
        yield joint
        for i, arm in enumerate(instance.arms):
            st_ = arm.states[joint.states[i]]
            if st_.is_leaf:
                continue
            budget = joint.budget
            if with_budget:
                budget -= int(st_.play_cost + (arm.switch_cost if joint.last != i else 0.0))
                if budget < 0:
                    continue
            for child, p in st_.transitions:
                nxt = JointState(joint.states[:i] + (child,) + joint.states[i + 1 :], budget, i)
                if p and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)


@st.composite
def symmetric_instances(draw):
    """1-2 random arms, each copied 1-3 times under new ids (at most 4 arms),
    the copies interleaved, budgeted or lagrangean.  Lagrangean costs are
    scaled by 0, 0.05, 0.3 or 1: at integer costs against rewards <= 1
    nearly every play would be skipped at the root."""
    spec = GeneratorSpec(
        family=draw(st.sampled_from(["random-two-level", "random-beta"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        max_arms=2,
        budget_cap=draw(st.integers(1, 5)),
    )
    base = gen_random_suite(spec)[0]
    arms = []
    for arm in base.arms:
        switch = draw(st.sampled_from([0.0, 1.0]))
        copies = draw(st.integers(1, 3))
        arms += [ArmStateSpace(f"{arm.arm_id}.{j}", arm.root, arm.states, switch) for j in range(copies)]
    arms = draw(st.permutations(arms[:4]))
    inst = BanditInstance(tuple(arms), base.budget, Objective("budgeted"))
    if draw(st.booleans()):
        return inst
    return _scaled(as_lagrangean(inst), draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))


@settings(max_examples=80, deadline=None)
@given(symmetric_instances())
def test_integer_coded_dp_equals_the_reference_recursion(inst):
    opt, table = dp_optimal(inst)
    ref_opt, ref_table = _reference_dp(inst)
    # bitwise: every state valued sums its plays as the recursion does, and
    # a play the bound skips could not have won
    assert opt == ref_opt
    for joint in _joint_states(inst, 3000):
        assert table.decide(joint) == ref_table.decide(joint), joint
    stats = enumerate_policy_statistics(inst, table)
    ref_stats = enumerate_policy_statistics(inst, ref_table)
    assert (stats.w, stats.x, stats.z, stats.expected_reward) == (
        ref_stats.w, ref_stats.x, ref_stats.z, ref_stats.expected_reward
    )
