import math

import numpy as np
import pytest
from scipy.optimize import linprog

from banditlp.bench import gen_integrality_gap, gen_random_suite, GeneratorSpec
from banditlp.lp import (
    LinearConstraint,
    LinearProgram,
    check_feasibility,
    format_lp,
    solve_lp,
)
from banditlp.relaxations import build_budgeted_lp

INF = float("inf")


def scipy_optimum(lp: LinearProgram) -> float:
    """Independent reference optimum via HiGHS (tests only)."""
    names = [v[0] for v in lp.variables]
    idx = {n: i for i, n in enumerate(names)}
    c = np.zeros(len(names))
    for n, coef in lp.objective.items():
        c[idx[n]] = -coef  # linprog minimizes
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.zeros(len(names))
        for n, coef in con.coeffs.items():
            row[idx[n]] = coef
        if con.relation == "<=":
            a_ub.append(row)
            b_ub.append(con.rhs)
        else:
            a_eq.append(row)
            b_eq.append(con.rhs)
    bounds = [(v[1], None if math.isinf(v[2]) else v[2]) for v in lp.variables]
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def test_single_variable_box():
    # no constraint row: the bound is the tableau's only row
    lp = LinearProgram(variables=[("x", 0.0, 1.0)], objective={"x": 1.0})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values["x"] == 1.0
    assert sol.objective_value == 1.0


def test_binding_bound_alongside_a_constraint():
    # x <= 1 binds at the optimum x = 1, y = 1/2 together with the sum row
    lp = LinearProgram(
        variables=[("x", 0.0, 1.0), ("y", 0.0, 1.0)],
        constraints=[LinearConstraint({"x": 1.0, "y": 1.0}, "<=", 1.5)],
        objective={"x": 2.0, "y": 1.0},
    )
    sol = solve_lp(lp)
    assert (sol.status, sol.values, sol.objective_value) == ("optimal", {"x": 1.0, "y": 0.5}, 2.5)
    explicit = solve_lp(_with_bound_rows(lp))
    assert explicit.values == sol.values
    assert sol.pivots == explicit.pivots  # one attempt: no pivot is discarded


def test_infeasible():
    lp = LinearProgram(
        variables=[("x", 0.0, INF)],
        constraints=[LinearConstraint({"x": 1.0}, "<=", -1.0)],
        objective={"x": 1.0},
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(variables=[("x", 0.0, INF)], objective={"x": 1.0})
    assert solve_lp(lp).status == "unbounded"
    # a bounded variable beside it does not make it bounded
    lp = LinearProgram(variables=[("x", 0.0, 1.0), ("y", 0.0, INF)], objective={"x": 1.0, "y": 1.0})
    assert solve_lp(lp).status == "unbounded"


def test_gap_lp_objective_is_one():
    # the n = 4 gap LP solves to exactly 1 with z_root = 1, x_leaf1 = 1/4 optimal
    lp = build_budgeted_lp(gen_integrality_gap(4))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)


def test_fixed_variables_and_equalities():
    lp = LinearProgram(
        variables=[("x", 0.0, 2.0), ("y", 1.0, 1.0)],
        constraints=[LinearConstraint({"x": 1.0, "y": 1.0}, "==", 2.0)],
        objective={"x": 3.0, "y": 1.0},
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == {"x": 1.0, "y": 1.0}
    assert sol.objective_value == pytest.approx(4.0)


def test_degenerate_lp_terminates():
    # many tied vertices; anti-cycling must still terminate at the optimum
    n = 12
    variables = [(f"x{i}", 0.0, 1.0) for i in range(n)]
    constraints = [
        LinearConstraint({f"x{i}": 1.0 for i in range(n)}, "<=", 1.0),
    ]
    for i in range(n - 1):
        constraints.append(LinearConstraint({f"x{i}": 1.0, f"x{i+1}": -1.0}, "<=", 0.0))
    lp = LinearProgram(variables, constraints, {f"x{i}": 1.0 for i in range(n)})
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def _random_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    names = [f"x{i}" for i in range(n)]
    variables = [(nm, 0.0, float(rng.integers(1, 4))) for nm in names]
    x0 = rng.random(n)  # kept feasible by construction
    constraints = []
    for _ in range(m):
        coefs = {nm: float(rng.normal()) for nm in names}
        lhs = sum(coefs[nm] * x0[i] for i, nm in enumerate(names))
        if rng.random() < 0.25:
            constraints.append(LinearConstraint(coefs, "==", lhs))
        else:
            constraints.append(LinearConstraint(coefs, "<=", lhs + float(rng.random())))
    objective = {nm: float(rng.normal()) for nm in names}
    return LinearProgram(variables, constraints, objective)


def test_matches_scipy_on_random_lps():
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        lp = _random_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ref = scipy_optimum(lp)
        assert sol.objective_value == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))
        assert check_feasibility(lp, sol.values, 1e-7) == []


def test_matches_scipy_on_relaxation_lps():
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=8, seed=11, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=8, seed=12, budget_cap=5))
    for inst in suite:
        lp = build_budgeted_lp(inst)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ref = scipy_optimum(lp)
        assert sol.objective_value == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))


def test_matches_scipy_on_concave_lps():
    # the largest relaxations this package builds (a few hundred columns)
    from banditlp.bench import as_concave
    from banditlp.relaxations import build_concave_lp

    suite = gen_random_suite(GeneratorSpec(family="random-beta", count=5, seed=13, budget_cap=5))
    for k, inst in enumerate(suite):
        conc = as_concave(inst, capacity=1.0 + (k % 2), epsilon=0.25)
        lp = build_concave_lp(conc)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ref = scipy_optimum(lp)
        assert sol.objective_value == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))
        assert check_feasibility(lp, sol.values, 1e-7) == []
        assert all(0.0 <= v <= 1.0 + 1e-7 for v in sol.values.values())


def test_matches_scipy_on_midsize_ladder_relaxations():
    # the 10x4 Beta-Bernoulli ladder (450 columns, 292 rows) and its twins:
    # large enough that most rows of each elimination are skipped
    from banditlp.bench import as_concave, as_lagrangean
    from banditlp.relaxations import build_relaxation
    from banditlp.statespace import BanditInstance, Objective, build_beta_bernoulli_arm

    arms = tuple(
        build_beta_bernoulli_arm(1 + i % 3, 1 + (i * 7) % 3, 4, play_cost=1, switch_cost=i % 2, arm_id=f"a{i}")
        for i in range(10)
    )
    ladder = BanditInstance(arms=arms, budget=20.0, objective=Objective("budgeted"))
    small = BanditInstance(arms=arms[:3], budget=6.0, objective=Objective("budgeted"))
    for inst in (ladder, as_lagrangean(ladder), as_concave(small, capacity=1.0, epsilon=0.25)):
        lp, _ = build_relaxation(inst)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ref = scipy_optimum(lp)
        assert sol.objective_value == pytest.approx(ref, rel=1e-6)
        assert check_feasibility(lp, sol.values) == []
        assert all(0.0 <= v <= 1.0 + 1e-7 for v in sol.values.values())
        again = solve_lp(lp)
        assert again.values == sol.values


def _with_unit_bounds(lp: LinearProgram) -> LinearProgram:
    """The LP with the bounds [0, 1] declared on every free variable."""
    variables = [(name, lb, ub if lb == ub else 1.0) for name, lb, ub in lp.variables]
    return LinearProgram(variables, lp.constraints, dict(lp.objective))


def _with_bound_rows(lp: LinearProgram) -> LinearProgram:
    """The LP with every non-fixed finite upper bound moved into a <= row.

    The rows follow the constraints in variable order, which is the tableau
    the solver builds from the bounds.
    """
    rows = [
        LinearConstraint({name: 1.0}, "<=", ub, name=f"ub|{name}")
        for name, lb, ub in lp.variables
        if lb != ub and math.isfinite(ub)
    ]
    variables = [(name, lb, ub if lb == ub else INF) for name, lb, ub in lp.variables]
    return LinearProgram(variables, lp.constraints + rows, dict(lp.objective))


def test_bound_free_tableau_matches_explicit_bound_rows_on_relaxations():
    # the relaxations declare only the bounds that can bind; restoring the
    # [0, 1] bounds, which the flow and cap rows already imply, puts bound
    # rows into the tableau without changing a pivot or gamma*
    from banditlp.bench import as_concave, as_lagrangean
    from banditlp.relaxations import build_relaxation

    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=6, seed=31, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=6, seed=32, budget_cap=5))
    twins = [as_lagrangean(inst) for inst in suite]
    twins += [as_concave(inst, capacity=1.0 + k % 2, epsilon=0.25) for k, inst in enumerate(suite[:4])]
    for inst in suite + twins:
        lp, _ = build_relaxation(inst)
        assert all(ub == INF for _, lb, ub in lp.variables if lb != ub)
        sol = solve_lp(lp)
        ref = solve_lp(_with_unit_bounds(lp))
        assert sol.status == ref.status == "optimal"
        assert sol.objective_value.hex() == ref.objective_value.hex()
        assert (sol.pivots, sol.bland_pivots) == (ref.pivots, ref.bland_pivots)
        assert sol.values.keys() == ref.values.keys()
        assert max(abs(sol.values[k] - ref.values[k]) for k in sol.values) <= 1e-15


def test_feasibility_tolerances():
    lp = build_budgeted_lp(gen_integrality_gap(8))
    sol = solve_lp(lp, tol=1e-7)
    assert check_feasibility(lp, sol.values, 1e-7) == []
    for name, lb, ub in lp.variables:
        v = sol.values[name]
        assert lb - 1e-7 <= v <= min(ub, 1.0) + 1e-7  # occupation probabilities


def test_objective_scaling_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lp = _random_lp(rng)
        base = solve_lp(lp)
        scaled = LinearProgram(
            lp.variables, lp.constraints, {k: 3.5 * v for k, v in lp.objective.items()}
        )
        sol = solve_lp(scaled)
        assert sol.status == base.status == "optimal"
        assert sol.objective_value == pytest.approx(3.5 * base.objective_value, abs=1e-6)


def test_redundant_constraint_property():
    rng = np.random.default_rng(6)
    for _ in range(10):
        lp = _random_lp(rng)
        base = solve_lp(lp)
        dup = LinearProgram(
            lp.variables, lp.constraints + [lp.constraints[0]], dict(lp.objective)
        )
        sol = solve_lp(dup)
        assert sol.objective_value == pytest.approx(base.objective_value, abs=1e-6)


def test_determinism():
    lp = build_budgeted_lp(gen_integrality_gap(4))
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.values == b.values and a.objective_value == b.objective_value


def test_well_formedness_errors():
    with pytest.raises(ValueError):
        LinearProgram([("x", 0.0, 1.0), ("x", 0.0, 1.0)], [], {}).check_well_formed()
    with pytest.raises(ValueError):
        LinearProgram([("x", 1.0, 0.0)], [], {}).check_well_formed()
    with pytest.raises(ValueError):
        LinearProgram([("x", 0.0, 1.0)], [LinearConstraint({"y": 1.0}, "<=", 0.0)], {}).check_well_formed()


def test_non_finite_data_rejected():
    nan = float("nan")
    x = [("x", 0.0, 5.0)]
    cases = [
        (LinearProgram([("x", 0.0, nan)], [], {"x": 1.0}), r"variable 'x' has a NaN upper bound"),
        (
            LinearProgram(x, [LinearConstraint({"x": nan}, "<=", 1.0, name="row")], {"x": 1.0}),
            r"constraint 'row' has a non-finite coefficient nan on 'x'",
        ),
        (
            LinearProgram(x, [LinearConstraint({"x": 1.0}, "<=", nan)], {"x": 1.0}),
            r"constraint 'c0' has a non-finite right-hand side",
        ),
        (LinearProgram(x, [], {"x": nan}), r"objective has a non-finite coefficient nan on 'x'"),
    ]
    for lp, message in cases:
        with pytest.raises(ValueError, match=message):
            solve_lp(lp)
    # finite terms whose sum overflows are well formed
    big = LinearConstraint({"x": 1e308, "y": 1e308}, "<=", 1e308)
    LinearProgram([("x", 0.0, 1.0), ("y", 0.0, 1.0)], [big], {"x": 1e308}).check_well_formed()
    # an infinite upper bound is no bound
    lp = LinearProgram([("x", 0.0, INF)], [LinearConstraint({"x": 1.0}, "<=", 2.0)], {"x": 1.0})
    assert solve_lp(lp).values == {"x": 2.0}


def test_format_lp_dump():
    lp = LinearProgram(
        variables=[("x", 0.0, 1.0), ("y", 0.0, INF)],
        constraints=[LinearConstraint({"x": 1.0, "y": -2.0}, "<=", 3.0, name="cap")],
        objective={"x": 1.0},
    )
    text = format_lp(lp)
    assert text.startswith("Maximize")
    assert "cap: 1 x - 2 y <= 3" in text
    assert "0 <= y <= +inf" in text
    assert text.rstrip().endswith("End")

