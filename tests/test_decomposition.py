"""The decomposition solver against the tableau and HiGHS, and its metamorphic
relations, on random small instances of all three variants."""

import contextlib
import dataclasses
import functools
import math
import operator
import re
from operator import mul
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banditlp.lp as lp_module
import banditlp.relaxations as relaxations
import reference_decomposition as reference
from banditlp.bench import GeneratorSpec, as_concave, as_lagrangean, gen_integrality_gap, gen_random_suite
from banditlp.lp import _OPT_EPS, LPSolverError, _simplex, check_feasibility, objective_value, solve_lp
from banditlp.relaxations import (
    GAP_TOL,
    RelaxationSolution,
    build_budgeted_lp,
    build_relaxation,
    solve_relaxation,
    var_name,
)
from banditlp.statespace import ArmStateSpace, BanditInstance, Objective, concave_grid_size, make_concave_problem

RTOL = 1e-9  # decomposition vs tableau, and every metamorphic relation
HIGHS_RTOL = 1e-7  # HiGHS's own default primal and dual feasibility tolerance


def _close(a, b, rtol=RTOL):
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _scaled(inst, reward=1.0, cost=1.0):
    """The instance with every reward times `reward` and every play cost,
    switch cost and the budget times `cost`."""
    arms = tuple(
        ArmStateSpace(
            arm.arm_id,
            arm.root,
            {
                sid: dataclasses.replace(s, reward=s.reward * reward, play_cost=s.play_cost * cost)
                for sid, s in arm.states.items()
            },
            arm.switch_cost * cost,
        )
        for arm in inst.arms
    )
    return BanditInstance(arms, None if inst.budget is None else inst.budget * cost, inst.objective)


def _concave(base, capacity, epsilon, curve, rng):
    """Linear tables and unit sigmas, or tables r * sqrt(l / L) and random
    sigmas in [0.2, capacity]."""
    if curve == "linear":
        return as_concave(base, capacity, epsilon)
    L = concave_grid_size(len(base.arms), epsilon)
    sigmas = {a.arm_id: float(rng.uniform(0.2, capacity)) for a in base.arms}
    tables = {
        a.arm_id: {s.id: tuple(s.reward * math.sqrt(l / L) for l in range(L + 1)) for s in a.states.values()}
        for a in base.arms
    }
    prob = make_concave_problem(base.arms, capacity, epsilon, sigmas, tables)
    return BanditInstance(base.arms, base.budget, Objective("concave", concave=prob))


@st.composite
def bases(draw):
    """A budgeted instance of 1-3 random two-level or Beta-Bernoulli arms."""
    spec = GeneratorSpec(
        family=draw(st.sampled_from(["random-two-level", "random-beta"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        max_arms=draw(st.integers(1, 3)),
        budget_cap=draw(st.integers(1, 6)),
    )
    return gen_random_suite(spec)[0]


@st.composite
def instances(draw, variant=None):
    """One instance of the given variant (any, when None) on a random base:
    Lagrangean costs scaled down so that exploring can pay, concave linear or
    sqrt tables."""
    base = draw(bases())
    variant = variant or draw(st.sampled_from(["budgeted", "lagrangean", "concave"]))
    if variant == "budgeted":
        return base
    if variant == "lagrangean":
        return as_lagrangean(_scaled(base, cost=draw(st.sampled_from([0.02, 0.1, 0.3, 1.0]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capacity, epsilon = draw(st.sampled_from([1.0, 2.0])), draw(st.sampled_from([0.25, 0.5, 1.0]))
    return _concave(base, capacity, epsilon, draw(st.sampled_from(["linear", "sqrt"])), rng)


def _tableau_solution(inst):
    lp, grid = build_relaxation(inst)
    return RelaxationSolution.from_raw(inst, solve_lp(lp), grid)


def _highs(lp):
    """The LP's optimum by HiGHS (scipy, a test-only dependency)."""
    from scipy.optimize import linprog

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
    a_ub, b_ub = (np.array(v) if v else None for v in rows["<="])
    a_eq, b_eq = (np.array(v) if v else None for v in rows["=="])
    bounds = [(lb, ub if math.isfinite(ub) else None) for _, lb, ub in lp.variables]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_gamma_equals_tableau_and_highs_and_the_point_is_certified(inst):
    sol = solve_relaxation(inst)
    lp, _ = build_relaxation(inst)
    assert _close(sol.gamma_star, _tableau_solution(inst).gamma_star)
    assert _close(sol.gamma_star, _highs(lp), HIGHS_RTOL)
    # the certificate: g(lambda, mu) - gamma* closed to the stopping tolerance
    assert -RTOL <= sol.duality_gap <= GAP_TOL * (1.0 + abs(sol.gamma_star))
    assert 1 <= sol.cuts <= relaxations.CUT_LIMIT
    # the recovered point is an optimal point of the built LP
    values = sol.lp_values(inst)
    assert check_feasibility(lp, values, tol=1e-9) == []
    assert sol.check_invariants(inst, tol=1e-9) == []
    assert _close(objective_value(lp, values), sol.gamma_star)


@settings(max_examples=40, deadline=None)
@given(instances(), st.sampled_from([0.1, 0.5, 3.0, 7.0]))
def test_scaling_costs_and_rewards(inst, k):
    gamma = solve_relaxation(inst).gamma_star
    if inst.objective.kind == "lagrangean":
        # costs sit in the objective: only scaling both scales gamma*
        assert _close(solve_relaxation(_scaled(inst, reward=k, cost=k)).gamma_star, k * gamma)
        return
    assert _close(solve_relaxation(_scaled(inst, cost=k)).gamma_star, gamma)
    if inst.objective.kind == "budgeted":
        assert _close(solve_relaxation(_scaled(inst, reward=k)).gamma_star, k * gamma)


@settings(max_examples=40, deadline=None)
@given(bases(), st.sampled_from([0.1, 0.5, 3.0, 7.0]))
def test_scaling_rewards_scales_the_concave_gamma(base, k):
    # linear tables follow the rewards
    gamma = solve_relaxation(as_concave(base, 1.0, 0.5)).gamma_star
    assert _close(solve_relaxation(as_concave(_scaled(base, reward=k), 1.0, 0.5)).gamma_star, k * gamma)


@settings(max_examples=40, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_permuting_arms_leaves_gamma(inst, rnd):
    arms = list(inst.arms)
    rnd.shuffle(arms)
    permuted = BanditInstance(tuple(arms), inst.budget, inst.objective)
    assert _close(solve_relaxation(permuted).gamma_star, solve_relaxation(inst).gamma_star)


_NEGATIVE = "relaxation needs a non-negative budget and capacity"


def _budget_message(inst, budget):
    """The objective rule's refusal of a budget below 0 (`objective_diagnostics`)."""
    return re.escape(f"{inst.objective.kind} objective requires a finite budget >= 0, got {budget!r}")


def _lp_with_budget(inst, budget):
    """The instance's relaxation LP built at budget 0, with budget as the
    cost row's right-hand side: the builders refuse a budget below 0."""
    lp, _ = build_relaxation(dataclasses.replace(inst, budget=0.0))
    (row,) = [c for c in lp.constraints if c.name == "cost"]
    row.rhs = budget
    return lp


@contextlib.contextmanager
def _up_front():
    """Forbid the tableau and the master: the solve must stop before either."""
    with mock.patch.object(lp_module, "_simplex", side_effect=AssertionError("the tableau ran")):
        with mock.patch.object(relaxations, "_Master", side_effect=AssertionError("the master ran")):
            yield


@settings(max_examples=20, deadline=None)
@given(st.one_of(instances("budgeted"), instances("concave")), st.sampled_from([-1e-3, -1.0, -5.0]))
def test_a_negative_budget_is_infeasible(inst, budget):
    negative = dataclasses.replace(inst, budget=budget)
    assert solve_lp(_lp_with_budget(inst, budget)).status == "infeasible"
    with _up_front(), pytest.raises(ValueError, match=_budget_message(inst, budget)):
        solve_relaxation(negative)


@pytest.mark.parametrize(
    "arms, capacity, epsilon, message",
    [(0, -1.0, 0.5, _NEGATIVE), (3, 1.0, -2.0, re.escape("epsilon must be a positive finite number, got -2.0"))],
    ids=["0--1.0-0.5", "3-1.0--2.0"],
)
def test_a_negative_concave_capacity_is_rejected_up_front(arms, capacity, epsilon, message):
    # B * L * (1 + eps) < 0: a negative capacity (an armless instance, since
    # any arm's sigma in [0, B] rejects it first) or eps below -1, which the
    # epsilon rule of concave_diagnostics refuses first
    inst = as_concave(gen_integrality_gap(3), 1.0, 0.5)
    prob = dataclasses.replace(inst.objective.concave, capacity=capacity, epsilon=epsilon)
    negative = BanditInstance(inst.arms[:arms], inst.budget, Objective("concave", concave=prob))
    with _up_front(), pytest.raises(ValueError, match=message):
        solve_relaxation(negative)


def test_the_cut_limit_raises(monkeypatch):
    inst = gen_integrality_gap(4)
    assert solve_relaxation(inst).cuts == 2
    monkeypatch.setattr(relaxations, "CUT_LIMIT", 1)
    with pytest.raises(LPSolverError, match="after 1 cuts"):
        solve_relaxation(inst)


def test_restricted_gamma_equals_the_tableau_on_the_gate_two_level_instances():
    # the restricted relaxation of nonadaptive_two_level (root exploits
    # forbidden) against the tableau on the LP with root x fixed at 0, on the
    # acceptance gate's instances whose arms are all two-level stars
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=100, seed=101, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=100, seed=202, budget_cap=5))
    two_level = [inst for inst in suite if all(arm.is_two_level() for arm in inst.arms)]
    assert len(two_level) == 128
    for inst in two_level:
        restricted = solve_relaxation(inst, exploit_at_roots=False)
        lp = build_budgeted_lp(inst)
        roots = {var_name("x", arm.arm_id, arm.root) for arm in inst.arms}
        lp.variables = [(name, lb, 0.0 if name in roots else ub) for name, lb, ub in lp.variables]
        assert _close(restricted.gamma_star, solve_lp(lp).objective_value)
        assert all(restricted.x[(arm.arm_id, arm.root)] == (0.0, 0.0) for arm in inst.arms)


def test_a_negative_budget_met_by_a_negative_switch_cost():
    # the LP accepts a negative cost (validate_instance flags it), so the
    # cheapest policy meets a negative budget and the tableau finds an
    # optimum; the decomposition still rejects the budget before its master
    from banditlp.statespace import build_two_level_arm

    a = dataclasses.replace(build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a"), switch_cost=-2.0)
    b = build_two_level_arm([0.3, 0.7], [0.5, 0.5], play_cost=2, arm_id="b")
    inst = BanditInstance(arms=(a, b), budget=-0.5, objective=Objective("budgeted"))
    assert solve_lp(_lp_with_budget(inst, -0.5)).status == "optimal"
    with _up_front(), pytest.raises(ValueError, match=_budget_message(inst, -0.5)):
        solve_relaxation(inst)


# ---------------------------------------------------------------------------
# The warm-started master against the tableau from scratch


def _check_master(master):
    """The master after a cut: its optimum is the tableau's on the same
    columns, its duals are dual feasible and close its own gap, and its
    theta is feasible."""
    m = len(master.rhs)
    status, theta, _, _ = _simplex(list(np.array(master.cuts).T), master.rhs, ["<="] * m, -np.array(master.rewards))
    assert status == "optimal"
    gamma = master.value
    assert abs(gamma - float(theta @ np.array(master.rewards))) <= 1e-12 * (1.0 + abs(gamma))
    duals = master.duals
    assert min(duals) >= 0.0
    for column, reward in zip(master.cuts, master.rewards):
        assert sum(map(mul, duals, column)) >= reward - _OPT_EPS
    assert abs(sum(map(mul, duals, master.rhs)) - gamma) <= 1e-12 * (1.0 + abs(gamma))
    weights = master.theta
    assert min(weights) >= 0.0
    for i, b in enumerate(master.rhs):
        assert sum(t * column[i] for t, column in zip(weights, master.cuts)) <= b + 1e-12 * (1.0 + abs(b))


@settings(max_examples=40, deadline=None)
@given(instances(), st.booleans())
def test_the_warm_master_matches_the_tableau_after_every_cut(inst, bland):
    # every cut of a solve, with Bland's rule from the first degenerate pivot
    # on or not; the solve stays certified either way
    checked = []
    add_cut = relaxations._Master.add_cut

    def checking(master, column, reward):
        add_cut(master, column, reward)
        _check_master(master)
        checked.append(master.bland_pivots)

    with mock.patch.object(relaxations._Master, "add_cut", checking):
        with mock.patch.object(relaxations, "_DEGENERATE_STREAK", 1 if bland else relaxations._DEGENERATE_STREAK):
            sol = solve_relaxation(inst)
    assert len(checked) == sol.cuts and checked[-1] == sol.master_bland_pivots
    assert sol.master_pivots >= 1 and sol.master_bland_pivots <= sol.master_pivots
    assert _close(sol.gamma_star, _tableau_solution(inst).gamma_star)
    assert -RTOL <= sol.duality_gap <= GAP_TOL * (1.0 + abs(sol.gamma_star))


_quarters = st.integers(-8, 16).map(lambda v: v / 4)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([0.0, 1.0, 3.0, None]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.lists(st.tuples(_quarters, st.integers(0, 8).map(lambda v: v / 4), _quarters), min_size=1, max_size=12),
    st.booleans(),
)
def test_random_masters_match_the_tableau_after_every_cut(budget, link_rhs, cuts, bland):
    # random columns (1, C, P) with reward R on quarter-integer data, so that
    # duplicates, zero costs and degenerate ties are common and no value sits
    # near a tolerance; a budget of None is the Lagrangean master, whose
    # budget row is empty: (1, 0, P) on [1, 0, link]
    rhs = [1.0, 0.0 if budget is None else budget, link_rhs]
    master = relaxations._Master(rhs)
    with mock.patch.object(relaxations, "_DEGENERATE_STREAK", 1 if bland else relaxations._DEGENERATE_STREAK):
        for cost, link, reward in cuts:
            master.add_cut((1.0, 0.0 if budget is None else cost, link), reward)
            _check_master(master)


@pytest.mark.parametrize(
    "rhs, cuts, bland_pivots",
    [
        # duplicated columns, each entering tied with its copy
        ([1.0, 1.0, 1.0], [((1.0, 0.5, 0.5), 1.0)] * 3 + [((1.0, 2.0, 0.0), 2.0)] * 2, 0),
        # all-zero costs on a zero budget and a zero link row: every step is degenerate
        ([1.0, 0.0, 0.0], [((1.0, 0.0, 0.0), 0.0), ((1.0, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), 1.0)], 0),
        ([1.0, 0.0, 1.0], [((1.0, 1.0, 0.0), 2.0), ((1.0, 0.0, 1.0), 1.0), ((1.0, 1.0, 1.0), 3.0)], 0),
        # a cut that meets every row exactly: a three-way ratio tie, where the
        # first row's slack leaves and the other two stay basic at zero
        ([1.0, 2.0, 1.0], [((1.0, 2.0, 1.0), 1.0), ((1.0, 0.0, 1.0), 2.0), ((1.0, 2.0, 0.0), 1.5)], 0),
        # a degenerate pivot, then an improving one: Bland's rule when the streak is 1
        ([1.0, 1.0, 1.0], [((1.0, 2.0, 2.0), 1.0), ((1.0, 0.0, 2.0), 2.0)], 1),
    ],
)
@pytest.mark.parametrize("streak", [1, None])
def test_degenerate_masters_terminate_at_the_tableau_optimum(monkeypatch, rhs, cuts, bland_pivots, streak):
    if streak is not None:
        monkeypatch.setattr(relaxations, "_DEGENERATE_STREAK", streak)
    master = relaxations._Master(rhs)
    for column, reward in cuts:
        master.add_cut(column, reward)
        _check_master(master)
    assert master.bland_pivots == (bland_pivots if streak == 1 else 0)


# ---------------------------------------------------------------------------
# The master and the recovery against their reference twins, bit for bit


def _left_fold(values, start=0):
    """`sum` as it adds floats up to Python 3.11: left to right, without
    the compensation that 3.12 adds."""
    return functools.reduce(operator.add, values, start)


def _twins(streak=None):
    """Both masters' degenerate streak at streak (None: the default), and
    the reference adding its sums left to right on every Python version, as
    the library's written-out ones do."""
    streak = relaxations._DEGENERATE_STREAK if streak is None else streak
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(relaxations, "_DEGENERATE_STREAK", streak))
    stack.enter_context(mock.patch.object(reference, "_DEGENERATE_STREAK", streak))
    stack.enter_context(mock.patch.object(reference, "sum", _left_fold, create=True))
    return stack


def _outcome(call):
    """repr of what the call returns, or of the error it raises."""
    try:
        return repr(call())
    except (ValueError, LPSolverError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _master_state(master):
    duals = master.pi if isinstance(master, _TwoRowReference) else master.duals
    return repr((duals, master.theta, master.value, master.pivots, master.bland_pivots, master.basis, master.x))


def _without_empty_row(master):
    """The state of a library master whose budget row (row 1) is empty, as
    the two-row master without that row would have it: row 1's dual, basic
    value and basis entry dropped and the link slack renumbered from -3 to
    -2.  The empty row's slack must be basic at 0 with its dual at 0."""
    assert master.basis[1] == -2 and repr(master.x[1]) == "0.0" and repr(master.duals[1]) == "0.0"
    return _master_state(
        SimpleNamespace(
            duals=master.duals[::2], theta=master.theta, value=master.value, pivots=master.pivots,
            bland_pivots=master.bland_pivots, basis=[-2 if j == -3 else j for j in master.basis[::2]],
            x=master.x[::2],
        )
    )


class _TwoRowReference(reference._Master):
    """The reference master on a Lagrangean solve's input without the empty
    budget row: (b_0, b_2) and columns (a_0, a_2), its duals pi = (pi_0, mu)
    read as (pi_0, 0.0, mu), by the solve and by its own clamp."""

    def __init__(self, rhs):
        super().__init__([rhs[0], rhs[2]])

    def add_cut(self, column, reward):
        super().add_cut((column[0], column[2]), reward)

    @property
    def duals(self):
        return [self.pi[0], 0.0, self.pi[1]]

    @duals.setter
    def duals(self, pi):
        self.pi = [pi[0], pi[-1]]


# a column entry: a quarter integer, so that duplicates and ties are common,
# or any float in the same range, so that pivots round
_entries = st.one_of(_quarters, st.floats(-2.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([-0.0, 0.0, 1.0, 3.0, None]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.lists(st.tuples(_entries, _entries.map(abs), _entries), min_size=1, max_size=12).flatmap(
        lambda cuts: st.lists(st.sampled_from(cuts), min_size=len(cuts), max_size=2 * len(cuts))
    ),
    st.sampled_from([1, None]),
)
def test_the_master_matches_its_reference_twin_bit_for_bit(budget, link_rhs, cuts, streak):
    # zero of either sign and positive budgets, and the Lagrangean (budget
    # None): the library's empty budget row against the reference's two rows
    # without it; cuts drawn again from their own list, so that duplicates
    # are common; after every cut the same duals, theta, value, pivots, Bland
    # pivots, basis and basic values, down to repr, or the same error
    lagrangean = budget is None
    rhs = [1.0, 0.0 if lagrangean else budget, link_rhs]
    masters = relaxations._Master(list(rhs)), reference._Master(rhs[::2] if lagrangean else list(rhs))
    with _twins(streak):
        for cost, link, reward in cuts:
            column = (1.0, 0.0 if lagrangean else cost, link)
            new = _outcome(lambda: masters[0].add_cut(column, reward))
            old = _outcome(lambda: masters[1].add_cut(column[::2] if lagrangean else column, reward))
            assert new == old
            assert (_without_empty_row if lagrangean else _master_state)(masters[0]) == _master_state(masters[1])


def _solve_twice(inst, exploit_at_roots=True):
    """The solve with the library's master and recovery, and with the
    reference twins patched in: each as (outcome, the master's state after
    every cut).  A Lagrangean solve feeds the reference its two rows and
    reads the library's master without its empty budget row."""
    lagrangean = inst.objective.kind == "lagrangean"
    twin = _TwoRowReference if lagrangean else reference._Master
    runs = []
    for master, recover in ((relaxations._Master, relaxations._recover), (twin, reference._recover)):
        states = []
        add_cut = master.add_cut
        state = _without_empty_row if lagrangean and master is relaxations._Master else _master_state

        def recording(m, column, reward, add_cut=add_cut, states=states, state=state):
            try:
                add_cut(m, column, reward)
            finally:
                states.append(state(m))

        with mock.patch.object(master, "add_cut", recording), mock.patch.object(relaxations, "_Master", master):
            with mock.patch.object(relaxations, "_recover", recover):
                runs.append((_outcome(lambda: solve_relaxation(inst, exploit_at_roots)), states))
    return runs


@settings(max_examples=40, deadline=None)
@given(instances("lagrangean"), st.booleans(), st.sampled_from([1, None]))
def test_the_lagrangean_budget_row_stays_empty(inst, exploit_at_roots, streak):
    # after every cut of a Lagrangean solve: the master has the three rows
    # of every variant, the budget row's slack is basic at 0 in its own row,
    # its row of B^-1 is e_1 and lambda is 0
    checked = []
    add_cut = relaxations._Master.add_cut

    def checking(master, column, reward):
        add_cut(master, column, reward)
        assert len(master.rhs) == len(master.duals) == 3 and master.rhs[1] == 0.0
        assert master.basis[1] == -2 and master.x[1] == 0.0 and master.inv[1] == [0.0, 1.0, 0.0]
        assert master.duals[1] == 0.0
        checked.append(column)

    with mock.patch.object(relaxations._Master, "add_cut", checking):
        with mock.patch.object(relaxations, "_DEGENERATE_STREAK", streak or relaxations._DEGENERATE_STREAK):
            sol = solve_relaxation(inst, exploit_at_roots)
    assert len(checked) == sol.cuts


@settings(max_examples=80, deadline=None)
@given(instances(), st.booleans(), st.sampled_from([None, 0.0, -1.0]), st.sampled_from([1, None]))
def test_the_solve_matches_its_reference_twin_bit_for_bit(inst, exploit_at_roots, budget, streak):
    # the same master after every cut and the same solution, down to repr:
    # gamma*, w, x, z, cuts, pivots and the gap
    if budget is not None and inst.objective.kind != "lagrangean":
        inst = dataclasses.replace(inst, budget=budget)
    with _twins(streak):
        new, old = _solve_twice(inst, exploit_at_roots)
    assert new == old


def test_the_acceptance_mix_solves_match_their_reference_twins():
    # the gate's instance families in all three variants: masters whose
    # columns come from real pricing, where the written-out sums round
    suite = gen_random_suite(GeneratorSpec(family="random-two-level", count=40, seed=101, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-beta", count=40, seed=202, budget_cap=5))
    for inst in suite:
        for variant in (inst, as_lagrangean(_scaled(inst, cost=0.1)), as_concave(inst, 2.0, 0.5)):
            with _twins():
                new, old = _solve_twice(variant)
            assert new == old
