"""Acceptance gate: every guarantee the package promises, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import math
import time
from fractions import Fraction

import pytest

from banditlp.bench import (
    GeneratorSpec,
    adaptivity_gap_demo,
    as_concave,
    as_lagrangean,
    corrupt_instance,
    gen_integrality_gap,
    gen_random_suite,
)
from banditlp.lp import check_feasibility, objective_value
from banditlp.oracle import dp_optimal, enumerate_policy_statistics
from banditlp.policies import (
    evaluate_plan_exact,
    execute_concave_greedy,
    execute_greedy_order,
    execute_greedy_violate,
    make_greedy_plan,
    monte_carlo_evaluate,
    nonadaptive_two_level,
    verify_trace,
)
from banditlp.relaxations import build_budgeted_lp, extract_single_arm_policies, solve_relaxation
from banditlp.statespace import validate_instance


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def mixed_suite():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=100, seed=101, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=100, seed=202, budget_cap=5))
    return suite


@pytest.fixture(scope="module")
def solved_suite(mixed_suite):
    t0 = time.time()
    out = []
    for inst in mixed_suite:
        solution = solve_relaxation(inst)
        policies = extract_single_arm_policies(solution, inst)
        out.append((inst, solution, policies))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def sub_suite(solved_suite):
    # 10 two-level + 10 beta instances for the Monte-Carlo heavy checks
    rows, _ = solved_suite
    return rows[:10] + rows[100:110]


def test_criterion_1_integrality_gap_reproduction():
    t0 = time.time()
    ratio16 = None
    for n in (2, 4, 8, 16):
        inst = gen_integrality_gap(n)
        gamma = solve_relaxation(inst).gamma_star
        opt, _ = dp_optimal(inst)
        closed_form = 1.0 - (1.0 - 1.0 / n) ** n
        assert gamma == pytest.approx(1.0, abs=1e-6), f"gamma* at n={n}"
        assert opt == pytest.approx(closed_form, abs=1e-9), f"OPT at n={n}"
        if n == 16:
            ratio16 = gamma / opt
    elapsed = time.time() - t0
    ok = ratio16 >= 1.55 and elapsed < 5.0
    _line(1, ok, f"gamma*=1, OPT=1-(1-1/n)^n for n in 2..16; ratio(16)={ratio16:.4f} >= 1.55; {elapsed:.2f}s < 5s")


def test_criterion_2_greedy_order_quarter_bound(solved_suite):
    rows, solve_seconds = solved_suite
    t0 = time.time()
    worst = math.inf
    for inst, solution, policies in rows:
        plan = make_greedy_plan(policies, inst, "budgeted")
        value, _ = evaluate_plan_exact(inst, plan, solution)
        assert value >= solution.gamma_star / 4.0 - 1e-6, "quarter-of-LP bound violated"
        opt, _ = dp_optimal(inst)
        assert solution.gamma_star >= opt - 1e-6, "gamma* below OPT"
        if solution.gamma_star > 0:
            worst = min(worst, value / solution.gamma_star)
    elapsed = (time.time() - t0) + solve_seconds  # include the shared LP solves
    ok = elapsed < 120.0
    _line(2, ok, f"200 instances: exact GreedyOrder >= gamma*/4 and gamma* >= OPT; min ratio {worst:.4f}; {elapsed:.1f}s < 120s")


_mc_reports: dict[int, list] = {}


def test_criterion_3_cost_bounds_and_reward_equality(sub_suite):
    reports = []
    for inst, solution, policies in sub_suite:
        plan = make_greedy_plan(policies, inst, "budgeted")
        c_max = inst.max_single_arm_cost()
        mc_order = monte_carlo_evaluate(inst, plan, solution, reps=10_000, seed=31, rule="order")
        mc_violate = monte_carlo_evaluate(inst, plan, solution, reps=10_000, seed=31, rule="violate")
        assert mc_order.violations == [], mc_order.violations
        assert mc_violate.violations == [], mc_violate.violations
        assert mc_order.max_cost <= inst.budget + 1e-12
        assert mc_violate.max_cost <= inst.budget + c_max + 1e-12
        v_order, _ = evaluate_plan_exact(inst, plan, solution, rule="order")
        v_violate, _ = evaluate_plan_exact(inst, plan, solution, rule="violate")
        assert v_order == pytest.approx(v_violate, abs=1e-6)
        reports.append((inst, plan, solution, mc_order, mc_violate))
    _mc_reports[3] = reports
    _line(3, True, "20 instances x 1e4 traces: order cost <= C, violate cost <= C + c_max, exact rewards equal within 1e-6")


def test_criterion_4_sequentiality(sub_suite):
    # the Monte-Carlo runs of criterion 3 already audit every trace for
    # plan-prefix visits and single switch charges; re-verify a sample of
    # recorded traces event by event
    reports = _mc_reports.get(3)
    assert reports is not None, "criterion 3 must run first"
    assert all(r[3].violations == [] and r[4].violations == [] for r in reports)
    audited = 0
    for inst, plan, solution, _, _ in reports:
        for seed in range(100):
            t_order = execute_greedy_order(inst, plan, solution, rng_seed=seed)
            t_violate = execute_greedy_violate(inst, plan, solution, rng_seed=seed)
            assert verify_trace(t_order, inst, plan, rule="order") == []
            assert verify_trace(t_violate, inst, plan, rule="violate") == []
            audited += 2
    _line(4, True, f"all 4e5 traces sequential with <= 1 switch per arm; {audited} re-audited from events")


def test_criterion_5_bicriteria(solved_suite):
    rows, _ = solved_suite
    worst = math.inf
    for alpha in (1.0, 2.0, 4.0):
        factor = alpha / (2.0 * (1.0 + alpha)) if alpha > 1 else 0.25
        for inst, solution, policies in rows:
            plan = make_greedy_plan(policies, inst, "budgeted", alpha=alpha)
            value, cost = evaluate_plan_exact(inst, plan, solution)
            assert cost <= alpha * inst.budget + 1e-9
            assert value >= factor * solution.gamma_star - 1e-6, f"alpha={alpha}"
            if solution.gamma_star > 0:
                worst = min(worst, value / solution.gamma_star)
    _line(5, True, f"alpha in {{1,2,4}}: exact value >= alpha/(2(1+alpha)) * gamma*; min ratio {worst:.4f}")


def test_criterion_6_lagrangean():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=50, seed=303, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=50, seed=404, budget_cap=5))
    oracle_checked = 0
    for inst in suite:
        lag = as_lagrangean(inst)
        solution = solve_relaxation(lag)
        policies = extract_single_arm_policies(solution, lag)
        for pol in policies:
            assert pol.reward - pol.cost >= -1e-7, f"negative per-arm profit term on {pol.arm_id}"
        plan = make_greedy_plan(policies, lag, "lagrangean")
        profit, _ = evaluate_plan_exact(lag, plan, solution)
        assert profit >= solution.gamma_star / 2.0 - 1e-6, "half-of-LP profit bound violated"
        opt, _ = dp_optimal(lag)
        assert solution.gamma_star >= opt - 1e-6
        oracle_checked += 1
    _line(6, True, f"100 instances: R-C >= 0 per arm, exact profit >= gamma*/2, gamma* >= OPT on {oracle_checked}")


def test_criterion_7_nonadaptive_two_level(solved_suite):
    rows, _ = solved_suite
    count = 0
    for inst, solution, _ in rows[:100]:  # the two-level half
        res = nonadaptive_two_level(inst, solution)
        probe_cost = sum(
            inst.arm(a).switch_cost + inst.arm(a).states[inst.arm(a).root].play_cost
            for a in res.probe_set
        )
        assert probe_cost <= inst.budget, "probe set exceeds the budget"
        assert res.expected_value >= solution.gamma_star / 7.0 - 1e-6, "1/7 bound violated"
        count += 1
    _line(7, True, f"{count} two-level instances: probe cost <= C and exact value >= gamma*/7")


def test_criterion_8_concave(mixed_suite):
    t0 = time.time()
    checked = 0
    worst = math.inf
    for i, base in enumerate(mixed_suite[:25] + mixed_suite[100:125]):
        capacity = 1.0 if i % 2 == 0 else 2.0
        inst = as_concave(base, capacity=capacity, epsilon=0.25)
        solution = solve_relaxation(inst)
        policies = extract_single_arm_policies(solution, inst)
        plan = make_greedy_plan(policies, inst, "concave")
        # the exact pass raises if any reachable run spends past the budget or
        # packs sum sigma_i eps_i > 2B before halving
        value, _ = evaluate_plan_exact(inst, plan, solution)
        assert value >= (1.0 - 0.25) * solution.gamma_star / 8.0 - 1e-6, f"concave value bound violated on instance {i}"
        if solution.gamma_star > 0:
            worst = min(worst, value / solution.gamma_star)
        prob = inst.objective.concave
        for seed in range(50):
            trace = execute_concave_greedy(inst, plan, solution, rng_seed=seed)
            packed = sum(
                Fraction(int(prob.sigmas[a])) * Fraction(n, 2 * trace.grid)
                for a, n in trace.weight_numerators.items()
            )
            assert packed <= Fraction(int(capacity)), "exact packing violated"
        checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    _line(8, ok, f"{checked} instances: weights pack exactly within B, exact value >= (1-eps)gamma*/8; min ratio {worst:.4f}; {elapsed:.1f}s < 10s")


def test_criterion_9_optimal_policy_statistics(solved_suite):
    rows, _ = solved_suite
    for inst, solution, _ in rows[:25] + rows[100:125]:
        opt, table = dp_optimal(inst)
        stats = enumerate_policy_statistics(inst, table)
        lp = build_budgeted_lp(inst)
        values = stats.as_lp_values()
        bad = check_feasibility(lp, values, tol=1e-6)
        assert bad == [], f"LP rows violated by the optimal policy: {bad[:3]}"
        assert all(0.0 <= v <= 1.0 + 1e-6 for v in values.values()), "an occupation probability outside [0, 1]"
        assert objective_value(lp, values) <= solution.gamma_star + 1e-6
        assert stats.expected_reward == pytest.approx(opt, abs=1e-9)
    _line(9, True, "50 instances: DP-optimal statistics satisfy every LP row within 1e-6 and objective <= gamma* + 1e-6")


def test_criterion_10_adaptivity_gap_demo():
    t0 = time.time()
    rows = adaptivity_gap_demo(ns=(16, 64, 256), reps=10_000, seed=2024)
    ratios = [r["ratio"] for r in rows]
    elapsed = time.time() - t0
    ok = ratios[0] < ratios[1] < ratios[2] and elapsed < 600.0
    detail = ", ".join(f"n={r['n']}: {r['ratio']:.3f}" for r in rows)
    _line(10, ok, f"adaptive/uniform ratio strictly increasing ({detail}); {elapsed:.1f}s < 600s")


def test_criterion_11_validation_catches_corruption():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=10, seed=505, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=10, seed=606, budget_cap=5))
    for k, inst in enumerate(suite):
        assert validate_instance(inst) == [], "unperturbed twin must be clean"
        bad = corrupt_instance(inst, seed=k, magnitude=1e-3)
        assert len(validate_instance(bad)) >= 1, "1e-3 perturbation must be diagnosed"
    _line(11, True, "20 corrupted instances each diagnosed; unperturbed twins clean")
