import math

import pytest

from banditlp.bench import (
    GeneratorSpec,
    SuiteOptions,
    adaptivity_gap_demo,
    as_concave,
    corrupt_instance,
    gen_adaptivity_gap,
    gen_integrality_gap,
    gen_random_suite,
    rows_to_csv,
    run_guarantee_suite,
    simulate_adaptive_strategy,
)
from banditlp.oracle import dp_optimal, estimate_joint_states
from banditlp.relaxations import solve_relaxation
from banditlp.statespace import instance_to_json, validate_instance

import numpy as np


def test_gap_generator_shape():
    inst = gen_integrality_gap(4)
    assert len(inst.arms) == 4
    assert inst.budget == 4.0
    for arm in inst.arms:
        assert arm.states[arm.root].reward == pytest.approx(0.25)
        assert arm.states[arm.root].play_cost == 1.0
        assert arm.switch_cost == 0.0
    assert validate_instance(inst) == []


def test_gap_generator_degenerate_n1():
    inst = gen_integrality_gap(1)
    gamma = solve_relaxation(inst).gamma_star
    opt, _ = dp_optimal(inst)
    assert gamma == pytest.approx(1.0, abs=1e-6)
    assert opt == pytest.approx(1.0, abs=1e-9)  # gap 1 at n = 1


def test_gap_generator_n16_ratio():
    inst = gen_integrality_gap(16)
    gamma = solve_relaxation(inst).gamma_star
    opt, _ = dp_optimal(inst)
    assert opt == pytest.approx(1 - (15 / 16) ** 16, abs=1e-9)
    assert gamma / opt > 1.55  # approaching e/(e-1) ~ 1.582


def test_adaptivity_generator_structure():
    inst = gen_adaptivity_gap(4, depth=3)
    assert validate_instance(inst) == []
    assert inst.budget == 20.0
    q = 0.5
    a2 = 4.0 ** -9
    mean3 = q + (1 - q) * a2
    arm = inst.arms[0]
    root = arm.states["d0"]
    # prior mean from the three-model mixture
    assert root.reward == pytest.approx(q * (1 - q) * a2 + q * q * mean3, abs=1e-15)
    children = dict(root.transitions)
    # observing 0 collapses to the zero model, observing the rare hit to mean3
    assert arm.states["d1:R1"].reward == 0.0
    assert arm.states["d1:R3"].reward == pytest.approx(mean3, abs=1e-15)
    assert children["d1:R1"] == pytest.approx(1 - q)
    assert children["d1:R3"] == pytest.approx(q * q * q)
    # point masses stay point masses
    assert dict(arm.states["d1:R1"].transitions) == {"d2:R1": 1.0}
    assert dict(arm.states["d1:R3"].transitions) == {"d2:R3": 1.0}


def test_adaptivity_generator_depth_defaults_to_budget():
    inst = gen_adaptivity_gap(4)
    arm = inst.arms[0]
    assert len(arm.states) == 1 + 3 * 20  # root plus three states per level
    assert arm.states["d20:mix"].is_leaf
    with pytest.raises(ValueError):
        gen_adaptivity_gap(5)
    with pytest.raises(ValueError):
        gen_adaptivity_gap(3)


def test_random_suite_determinism_and_validity():
    spec = GeneratorSpec(family="random-two-level", count=10, seed=0, budget_cap=5)
    a = gen_random_suite(spec)
    b = gen_random_suite(spec)
    assert [instance_to_json(i) for i in a] == [instance_to_json(i) for i in b]
    for inst in a:
        assert validate_instance(inst) == []
        assert inst.budget <= 5
        assert inst.has_integer_costs()


def test_random_suite_fits_oracle_guard():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=30, seed=1, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=30, seed=2, budget_cap=5))
    for inst in suite:
        assert len(inst.arms) <= 3
        assert estimate_joint_states(inst, with_budget=True) <= 2_000_000


def test_corrupt_instance_detected():
    suite = gen_random_suite(GeneratorSpec(family="random-beta", count=5, seed=9, budget_cap=5))
    for k, inst in enumerate(suite):
        bad = corrupt_instance(inst, seed=k, magnitude=1e-3)
        diags = validate_instance(bad)
        assert diags, "perturbation must be flagged"
        assert validate_instance(inst) == []


def test_guarantee_suite_budgeted_report():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=6, seed=13, budget_cap=5))
    report = run_guarantee_suite(suite, "budgeted", SuiteOptions())
    assert report.ok
    summary = report.summary()
    assert summary["instances"] == 6
    assert summary["min_lp_ratio"] >= 0.25
    for row, inst in zip(report.rows, suite):
        assert row.opt is not None
        assert row.gamma_star >= row.opt - 1e-6
        assert row.value >= row.bound
        sol = solve_relaxation(inst)  # the row's solve statistics are the solve's
        assert (row.cuts, row.master_pivots, row.duality_gap) == (sol.cuts, sol.master_pivots, sol.duality_gap)
        assert row.cuts >= 1 and row.master_pivots >= 1
    # serialization round-trips
    doc = report.to_json()
    assert len(doc["rows"]) == 6
    assert [(r["cuts"], r["master_pivots"], r["duality_gap"]) for r in doc["rows"]] == [
        (r.cuts, r.master_pivots, r.duality_gap) for r in report.rows
    ]
    csv_text = rows_to_csv(doc["rows"])
    assert csv_text.splitlines()[0].startswith("instance,")
    assert csv_text.splitlines()[0].endswith(",cuts,master_pivots,duality_gap")
    assert len(csv_text.strip().splitlines()) == 7


def test_guarantee_suite_gap_instance_row():
    report = run_guarantee_suite([gen_integrality_gap(4)], "budgeted", SuiteOptions())
    (row,) = report.rows
    assert row.lp_ratio == pytest.approx(175 / 256, abs=1e-9)
    assert row.lp_ratio >= 0.25
    assert row.opt == pytest.approx(175 / 256, abs=1e-9)
    assert report.ok


def test_guarantee_suite_rejects_wrong_variant():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=2, seed=13, budget_cap=5))
    with pytest.raises(ValueError):
        run_guarantee_suite(suite, "lagrangean", SuiteOptions())


def test_guarantee_suite_deterministic():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=4, seed=2, budget_cap=5))
    conc = [as_concave(i, 1.0, 0.25) for i in suite]
    r1 = run_guarantee_suite(conc, "concave", SuiteOptions())
    r2 = run_guarantee_suite(conc, "concave", SuiteOptions())
    assert r1.to_json() == r2.to_json()
    assert r1.ok  # concave rows are exact values against (1 - eps) gamma*/8


def test_adaptive_beats_uniform_more_as_n_grows():
    rows = adaptivity_gap_demo(ns=(16, 64), reps=3000, seed=7)
    assert rows[0]["ratio"] < rows[1]["ratio"]
    for row in rows:
        assert row["adaptive"] > 0 and row["uniform"] > 0


def test_strategy_simulators_budget_consistency():
    # the two-phase strategy never draws more than the 5n budget:
    # n single plays + (2 sqrt n survivors) * (2 sqrt n plays) = 5n exactly
    n = 16
    m = math.isqrt(n)
    assert n + (2 * m) * (2 * m) == 5 * n
    rng = np.random.default_rng(0)
    vals = simulate_adaptive_strategy(n, 500, rng)
    assert vals.shape == (500,)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
