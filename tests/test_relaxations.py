import dataclasses
import math
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from banditlp.bench import as_concave, as_lagrangean, gen_integrality_gap, gen_random_suite, GeneratorSpec
from banditlp.lp import solve_lp
from banditlp.relaxations import (
    RelaxationSolution,
    build_budgeted_lp,
    build_concave_lp,
    build_lagrangean_lp,
    build_relaxation,
    extract_single_arm_policies,
    solve_relaxation,
)
from banditlp.statespace import (
    BanditInstance,
    Objective,
    build_two_level_arm,
    concave_grid_size,
    instance_from_json,
    instance_to_json,
    make_concave_problem,
    validate_instance,
)
import reference_tables
from test_decomposition import instances


def _single_arm_budgeted(budget=0.0, reward=0.7):
    arm = build_two_level_arm([reward], [1.0], play_cost=1, arm_id="a0")
    return BanditInstance(arms=(arm,), budget=budget, objective=Objective("budgeted"))


def test_gap_lp_value_and_extraction():
    inst = gen_integrality_gap(4)
    sol = solve_relaxation(inst)
    assert sol.gamma_star == pytest.approx(1.0, abs=1e-6)
    # at objective 1 the solution is forced: z_root = 1 and 1/4 exploit mass
    # at every reward-1 leaf (each x is capped by w = z/4)
    pols = extract_single_arm_policies(sol, inst)
    for pol in pols:
        assert sol.z[(pol.arm_id, "root")] == pytest.approx(1.0, abs=1e-6)
        assert sol.x[(pol.arm_id, "v1")] == pytest.approx((0.0, 0.25), abs=1e-6)
        assert pol.explore_prob == pytest.approx(0.25, abs=1e-6)
        assert pol.reward == pytest.approx(0.25, abs=1e-6)
        assert pol.cost == pytest.approx(1.0, abs=1e-6)
    assert sum(p.reward for p in pols) == pytest.approx(sol.gamma_star, abs=1e-6)
    assert sum(p.explore_prob for p in pols) <= 1 + 1e-6
    assert sum(p.cost for p in pols) <= inst.budget + 1e-6


def test_budget_zero_exploits_prior():
    inst = _single_arm_budgeted(budget=0.0, reward=0.7)
    sol = solve_relaxation(inst)
    assert sol.gamma_star == pytest.approx(0.7, abs=1e-9)
    (pol,) = extract_single_arm_policies(sol, inst)
    assert pol.explore_prob == pytest.approx(1.0, abs=1e-9)  # all mass on x_root
    assert pol.reward == pytest.approx(0.7, abs=1e-9)
    assert pol.cost == pytest.approx(0.0, abs=1e-12)


def test_two_identical_arms_hand_solution():
    # two {0,1} w.p. 1/2 arms, c = 1, h = 0, C = 2: play both (cost 2),
    # exploit the reward-1 leaves with total mass 1/2 + 1/2 = 1, so gamma* = 1;
    # gamma* <= 1 because the exploit mass row caps sum x at 1 and rewards <= 1.
    arms = tuple(
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id=f"a{i}") for i in range(2)
    )
    inst = BanditInstance(arms=arms, budget=2.0, objective=Objective("budgeted"))
    sol = solve_relaxation(inst)
    assert sol.gamma_star == pytest.approx(1.0, abs=1e-6)


def test_wrong_variant_errors():
    inst = gen_integrality_gap(2)
    with pytest.raises(ValueError):
        build_lagrangean_lp(inst)
    with pytest.raises(ValueError):
        build_concave_lp(inst)
    lag = as_lagrangean(inst)
    with pytest.raises(ValueError):
        build_budgeted_lp(lag)


def test_lagrangean_single_symmetric_arm_never_plays():
    # for one symmetric {0,1} arm exploration has zero value of information:
    # exploiting the prior scores 0.5 while playing first scores 0.5 - c.
    # (hand-solve: the LP objective is 0.5 - c*t for play probability t)
    for c in (0.1, 0.6):
        arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=c, arm_id="A")
        inst = BanditInstance(arms=(arm,), budget=None, objective=Objective("lagrangean"))
        sol = solve_relaxation(inst)
        assert sol.gamma_star == pytest.approx(0.5, abs=1e-7)
        assert sol.z[("A", "root")] == pytest.approx(0.0, abs=1e-7)
        assert sol.x[("A", "root")] == pytest.approx((0.0, 1.0), abs=1e-6)


def test_lagrangean_two_arm_exploration_pays():
    # arm A {0,1} w.p. 1/2 at cost 0.1 plus a sure 0.4 fallback arm B:
    # play A, exploit its 1-leaf, park the leftover exploit mass on B:
    # 0.5*1 + 0.5*0.4 - 0.1 = 0.6  (hand enumeration of pure strategies)
    armA = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=0.1, arm_id="A")
    armB = build_two_level_arm([0.4], [1.0], play_cost=0.0, arm_id="B")
    inst = BanditInstance(arms=(armA, armB), budget=None, objective=Objective("lagrangean"))
    sol = solve_relaxation(inst)
    assert sol.gamma_star == pytest.approx(0.6, abs=1e-6)


def test_lagrangean_zero_rewards():
    arm = build_two_level_arm([0.0, 0.0], [0.5, 0.5], play_cost=1, arm_id="A")
    inst = BanditInstance(arms=(arm,), budget=None, objective=Objective("lagrangean"))
    sol = solve_relaxation(inst)
    assert sol.gamma_star == pytest.approx(0.0, abs=1e-9)
    assert sol.z[("A", "root")] == pytest.approx(0.0, abs=1e-9)


def test_per_arm_profit_terms_nonnegative():
    suite = gen_random_suite(GeneratorSpec(family="random-beta", count=25, seed=42, budget_cap=5))
    suite += gen_random_suite(GeneratorSpec(family="random-two-level", count=25, seed=43, budget_cap=5))
    for inst in suite:
        lag = as_lagrangean(inst)
        sol = solve_relaxation(lag)
        for pol in extract_single_arm_policies(sol, lag):
            assert pol.reward - pol.cost >= -1e-7


def test_concave_grid_size():
    assert concave_grid_size(2, 0.5) == 4  # grid points {0, 1/4, 1/2, 3/4, 1}
    assert concave_grid_size(3, 0.25) == 12
    with pytest.raises(ValueError):
        concave_grid_size(2, 0.0)


def test_concave_top1_reduction_brackets_budgeted_value():
    # with g = r*y, sigma = 1, B = 1 the concave LP is the budgeted LP with the
    # exploit-mass row relaxed to 1 + eps, so the values agree up to that slack
    eps = 0.25
    for seed in range(6):
        inst = gen_random_suite(
            GeneratorSpec(family="random-two-level", count=1, seed=seed, budget_cap=5)
        )[0]
        conc = as_concave(inst, capacity=1.0, epsilon=eps)
        gamma_b = solve_relaxation(inst).gamma_star
        gamma_c = solve_relaxation(conc).gamma_star
        assert gamma_c >= gamma_b - 1e-6
        assert gamma_c <= (1 + eps) * gamma_b + 1e-6


def test_concave_top1_equality_on_gap_instance():
    # on the symmetric gap instance the leaf caps bind before the mass row,
    # so both relaxations solve to exactly 1
    inst = gen_integrality_gap(4)
    conc = as_concave(inst, capacity=1.0, epsilon=0.25)
    assert solve_relaxation(conc).gamma_star == pytest.approx(
        solve_relaxation(inst).gamma_star, abs=1e-6
    )


def test_concave_all_select_degenerate():
    # B = n and a huge budget: every arm can carry weight 1, so the LP collects
    # each arm's full prior mean (per-arm mass x+z <= w caps value at r_root)
    arms = tuple(
        build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id=f"a{i}") for i in range(2)
    )
    inst = BanditInstance(arms=arms, budget=10.0, objective=Objective("budgeted"))
    conc = as_concave(inst, capacity=2.0, epsilon=0.25)
    sol = solve_relaxation(conc)
    assert sol.gamma_star == pytest.approx(1.0, abs=1e-6)


def test_concave_stats_packing_row():
    inst = gen_random_suite(GeneratorSpec(family="random-two-level", count=1, seed=9, budget_cap=5))[0]
    conc = as_concave(inst, capacity=1.0, epsilon=0.25)
    sol = solve_relaxation(conc)
    pols = extract_single_arm_policies(sol, conc)
    prob = conc.objective.concave
    assert sum(prob.sigmas[p.arm_id] * p.explore_prob for p in pols) <= prob.capacity * (1 + prob.epsilon) + 1e-6
    assert sum(p.reward for p in pols) == pytest.approx(sol.gamma_star, abs=1e-6)


def test_concave_table_validation_errors():
    arms = (build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a0"),)
    grid = concave_grid_size(1, 0.5)
    # convex (not concave) table
    bad = {"a0": {s: tuple((l / grid) ** 2 for l in range(grid + 1)) for s in ("root", "v0", "v1")}}
    prob = make_concave_problem(arms, 1.0, 0.5, value_tables=bad)
    inst = BanditInstance(arms=arms, budget=2.0, objective=Objective("concave", concave=prob))
    with pytest.raises(ValueError, match="concavity"):
        build_concave_lp(inst)
    # super-martingale failure: a child outvalues its parent
    tables = {
        "a0": {
            "root": tuple(0.1 * l / grid for l in range(grid + 1)),
            "v0": tuple(0.0 for _ in range(grid + 1)),
            "v1": tuple(1.0 * l / grid for l in range(grid + 1)),
        }
    }
    prob = make_concave_problem(arms, 1.0, 0.5, value_tables=tables)
    inst = BanditInstance(arms=arms, budget=2.0, objective=Objective("concave", concave=prob))
    with pytest.raises(ValueError, match="super-martingale"):
        build_concave_lp(inst)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: dataclasses.replace(p, sigmas={**p.sigmas, "a0": math.nan}), "arm 'a0': sigma must lie in [0, B], got nan"),
        (lambda p: dataclasses.replace(p, capacity=math.nan), "concave capacity must be a finite number, got nan"),
        (lambda p: dataclasses.replace(p, epsilon=math.inf), "concave epsilon must be a finite number, got inf"),
        (
            lambda p: dataclasses.replace(
                p, value_tables={**p.value_tables, "a0": {**p.value_tables["a0"], "root": (0.0, math.nan, 0.5)}}
            ),
            "arm 'a0' state 'root': value table entries must be finite numbers",
        ),
    ],
)
def test_a_concave_number_that_is_not_finite_is_refused(edit, message):
    # the clean instance solves to gamma* 1.0; a NaN sigma solved to 0.5 in
    # one cut and a NaN capacity ran out of cuts, and validate_instance saw
    # neither
    clean = as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=1.0)
    assert clean.objective.concave.grid == 2
    bad = BanditInstance(clean.arms, clean.budget, Objective("concave", concave=edit(clean.objective.concave)))
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_relaxation(bad)
    assert [d.kind for d in validate_instance(bad)] == ["non-finite"]


def _with_tables(inst, edit):
    """The concave instance with edit(tables) as its value tables, where
    tables is a copy of them, arm id -> state id -> table."""
    tables = {arm: dict(per_state) for arm, per_state in inst.objective.concave.value_tables.items()}
    edit(tables)
    prob = dataclasses.replace(inst.objective.concave, value_tables=tables)
    return BanditInstance(inst.arms, inst.budget, Objective("concave", concave=prob))


def _with_state_renamed(inst, arm_id, old, new):
    """The instance with state `old` of the arm renamed `new`, in its
    parents' transitions and, when concave, in its value tables."""
    arms = []
    for arm in inst.arms:
        if arm.arm_id == arm_id:
            states = {}
            for sid, s in arm.states.items():
                sid = new if sid == old else sid
                kids = tuple((new if c == old else c, p) for c, p in s.transitions)
                states[sid] = dataclasses.replace(s, id=sid, transitions=kids)
            arm = dataclasses.replace(arm, root=new if arm.root == old else arm.root, states=states)
        arms.append(arm)
    renamed = BanditInstance(tuple(arms), inst.budget, inst.objective)
    if inst.objective.kind != "concave":
        return renamed
    return _with_tables(renamed, lambda t: t[arm_id].__setitem__(new, t[arm_id].pop(old)))


def _epsilon_edited_in_the_file(inst):
    doc = instance_to_json(inst)
    doc["objective"]["epsilon"] = 2.0
    return instance_from_json(doc)


def _with_problem(inst, **changes):
    """The concave instance with its ConcaveProblem's fields changed."""
    prob = dataclasses.replace(inst.objective.concave, **changes)
    return BanditInstance(inst.arms, inst.budget, Objective("concave", concave=prob))


_CONCAVE_GAP = as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=0.5)  # grid 4: tables r * l / 4


@pytest.mark.parametrize(
    "bad, message",
    [
        # epsilon 0.5 -> 2.0 in the file: grid 1, tables of 5 entries
        (_epsilon_edited_in_the_file(_CONCAVE_GAP), "arm 'a0' state 'root': value table must have 2 entries"),
        (
            _with_tables(_CONCAVE_GAP, lambda t: t["a0"].__setitem__("v1", tuple((l / 4) ** 2 for l in range(5)))),
            "arm 'a0' state 'v1': value table fails concavity",
        ),
        (
            _with_tables(_CONCAVE_GAP, lambda t: t["a0"].__setitem__("root", tuple(0.1 * l / 4 for l in range(5)))),
            "arm 'a0' state 'root': value table fails the super-martingale check at l=1",
        ),
        (_with_tables(_CONCAVE_GAP, lambda t: t["a1"].pop("v0")), "arm 'a1' state 'v0': value table must have 5 entries"),
        (_with_tables(_CONCAVE_GAP, lambda t: t.pop("a1")), "missing value tables for arm 'a1'"),
        (_with_state_renamed(gen_integrality_gap(2), "a0", "v1", "v|1"), "arm/state ids may not contain '|'"),
        (_with_state_renamed(_CONCAVE_GAP, "a0", "v1", "v|1"), "arm/state ids may not contain '|'"),
        # the solve refused it with "right-hand sides [2.0, -4.0]"
        (_with_problem(_CONCAVE_GAP, epsilon=-2.0), "epsilon must be a positive finite number, got -2.0"),
    ],
    ids=["epsilon-edit", "non-concave", "super-martingale", "missing-table", "missing-tables", "pipe", "pipe-concave",
         "negative-epsilon"],
)
def test_validate_reports_what_the_solve_refuses(bad, message):
    # validate_instance passed each of these ("valid": true from banditlp
    # validate) while the solve refused it
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_relaxation(bad)
    assert message in [d.message for d in validate_instance(bad)]


@st.composite
def _mutated_concave(draw):
    """A valid concave instance (linear or sqrt tables), or the same with one
    edit that may break a data rule: a state's table one entry short or
    long, one entry moved by 0.5 or its last by 1e-3, a sigma outside
    [0, B], a state id with "|", a state's or an arm's tables missing, an
    unknown objective kind, a budget None, -1 or inf, or an epsilon <= 0.
    Drawn as (instance, the message of the objective or epsilon rule it
    breaks, else None)."""
    inst = draw(instances("concave"))
    prob = inst.objective.concave
    kind = draw(st.sampled_from(["none", "length", "entry", "last entry", "sigma", "pipe", "missing",
                                 "kind", "budget", "epsilon"]))
    if kind == "kind":
        return BanditInstance(inst.arms, inst.budget, Objective("convex", concave=prob)), "unknown objective kind 'convex'"
    if kind == "budget":
        budget = draw(st.sampled_from([None, -1.0, math.inf]))
        return dataclasses.replace(inst, budget=budget), f"concave objective requires a finite budget >= 0, got {budget!r}"
    if kind == "epsilon":
        epsilon = draw(st.sampled_from([0.0, -0.5, -2.0]))
        return _with_problem(inst, epsilon=epsilon), f"epsilon must be a positive finite number, got {epsilon!r}"
    return _mutated_tables(draw, inst, kind), None


def _mutated_tables(draw, inst, kind):
    """The instance with the edit of `_mutated_concave` of that kind to its
    value tables, a sigma or a state id."""
    prob = inst.objective.concave
    arm = draw(st.sampled_from(inst.arms))
    sid = draw(st.sampled_from(arm.topo_order()))
    zeta = list(prob.value_tables[arm.arm_id][sid])
    if kind == "length":
        zeta = zeta[:-1] if draw(st.booleans()) else zeta + zeta[-1:]
    elif kind == "entry":
        zeta[draw(st.integers(0, len(zeta) - 1))] += draw(st.sampled_from([-0.5, 0.5]))
    elif kind == "last entry":  # lowered at a state with children, only the super-martingale rule breaks
        zeta[-1] += draw(st.sampled_from([-1e-3, 1e-3]))
    if kind in ("length", "entry", "last entry"):
        return _with_tables(inst, lambda t: t[arm.arm_id].__setitem__(sid, tuple(zeta)))
    if kind == "sigma":
        sigma = draw(st.sampled_from([-0.1, prob.capacity + 0.1]))
        return _with_problem(inst, sigmas={**prob.sigmas, arm.arm_id: sigma})
    if kind == "pipe":
        return _with_state_renamed(inst, arm.arm_id, sid, f"{sid}|1")
    if kind == "missing":
        return _with_tables(inst, lambda t: t[arm.arm_id].pop(sid) if draw(st.booleans()) else t.pop(arm.arm_id))
    return inst


def _refusal(check, *args) -> str | None:
    """The message of the ValueError check(*args) raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None, database=None)
@seed(2201)
@given(_mutated_concave())
def test_validate_is_empty_exactly_when_the_solve_accepts(case):
    # the solve refuses what the table checks as first written refuse, with
    # their message, or what the objective and epsilon rules refuse, with
    # theirs, and validate_instance reports that message
    inst, rule_message = case
    prob = inst.objective.concave
    refused = _refusal(solve_relaxation, inst)
    if rule_message is None:
        assert refused == _refusal(reference_tables._validate_tables, inst, prob, prob.grid)
    else:
        assert refused == rule_message
    diags = validate_instance(inst)
    assert (diags == []) == (refused is None)
    assert refused is None or refused in [d.message for d in diags]


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
def test_an_epsilon_that_is_not_a_positive_finite_number_is_refused(epsilon):
    # an infinite epsilon made a grid of 0 points, which ended in a
    # ZeroDivisionError
    message = f"epsilon must be a positive finite number, got {epsilon!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        concave_grid_size(2, epsilon)
    with pytest.raises(ValueError, match=re.escape(message)):
        as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=epsilon)


def test_solution_invariants_on_random_suite():
    suite = gen_random_suite(GeneratorSpec(family="random-beta", count=10, seed=7, budget_cap=5))
    for inst in suite:
        sol = solve_relaxation(inst)
        assert sol.check_invariants(inst, tol=1e-6) == []
        for arm in inst.arms:
            assert sol.w[(arm.arm_id, arm.root)] == 1.0
        pols = extract_single_arm_policies(sol, inst)
        assert sum(p.reward for p in pols) == pytest.approx(sol.gamma_star, abs=1e-6)
        assert sum(p.explore_prob for p in pols) <= 1 + 1e-6
        assert sum(p.cost for p in pols) <= inst.budget + 1e-6


def test_extraction_requires_optimal():
    inst = gen_integrality_gap(2)
    lp = build_budgeted_lp(inst)
    raw = solve_lp(lp)
    raw.status = "infeasible"
    with pytest.raises(ValueError):
        RelaxationSolution.from_raw(inst, raw)


def test_from_raw_rejects_a_grid_that_does_not_match_the_lp():
    # reading a concave optimum as plain, or a budgeted optimum on the grid,
    # must not zero every exploit mass: the missing variable is named
    conc = as_concave(gen_integrality_gap(3), 1.0, 0.5)
    lp, grid = build_relaxation(conc)
    concave_raw = solve_lp(lp)
    budgeted_raw = solve_lp(build_budgeted_lp(gen_integrality_gap(3)))
    assert RelaxationSolution.from_raw(conc, concave_raw, grid).check_invariants(conc) == []
    with pytest.raises(ValueError, match=r"no variable 'x\|a0\|root'"):
        RelaxationSolution.from_raw(conc, concave_raw)
    with pytest.raises(ValueError, match=r"no variable 'x\|a0\|root\|0'"):
        RelaxationSolution.from_raw(conc, budgeted_raw, grid)
    # a grid on an instance that has no value tables is the same mismatch
    with pytest.raises(ValueError, match=r"no variable 'x\|a0\|root\|0'"):
        RelaxationSolution.from_raw(gen_integrality_gap(3), budgeted_raw, 4)


def _variant(name):
    base = gen_integrality_gap(3)
    return {
        "budgeted": base,
        "lagrangean": as_lagrangean(base),
        "concave": as_concave(base, capacity=1.0, epsilon=0.5),
    }[name]


@pytest.mark.parametrize("variant", ["budgeted", "lagrangean", "concave"])
def test_solve_relaxation_builds_and_tableau_solves_nothing(monkeypatch, variant):
    # the decomposition has no hidden tableau fallback: no LP is built, no
    # solve_lp, from_raw or tableau simplex runs, the master included
    import banditlp.lp as lp
    import banditlp.relaxations as relaxations

    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"solve_relaxation called {name}")

        return call

    for name in ("build_budgeted_lp", "build_lagrangean_lp", "build_concave_lp", "build_relaxation", "solve_lp"):
        monkeypatch.setattr(relaxations, name, forbidden(name))
    monkeypatch.setattr(relaxations.RelaxationSolution, "from_raw", classmethod(forbidden("from_raw")))
    monkeypatch.setattr(lp, "_simplex", forbidden("lp._simplex"))
    monkeypatch.setattr(relaxations, "_simplex", forbidden("relaxations._simplex"), raising=False)
    sol = solve_relaxation(_variant(variant))
    assert calls == [] and sol.cuts >= 1 and sol.master_pivots >= 1


@pytest.mark.parametrize("variant", ["budgeted", "lagrangean", "concave"])
def test_solve_relaxation_runs_inside_the_benchmark_tracer(variant):
    # pipebench's traced runs patch relaxations.build_*_lp, relaxations.solve_lp
    # and RelaxationSolution.from_raw by name, so those names must resolve;
    # the tracer is loaded from its file, not edited
    import importlib.util
    import pathlib

    import banditlp.relaxations as relaxations

    path = pathlib.Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_pipebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    inst = _variant(variant)
    untraced = solve_relaxation(inst)
    saved = relaxations.solve_lp, relaxations.RelaxationSolution.__dict__["from_raw"]
    tracer = tracing.Tracer()
    with tracing.traced_library(tracer):
        sol = solve_relaxation(inst)
    assert (relaxations.solve_lp, relaxations.RelaxationSolution.__dict__["from_raw"]) == saved
    assert sol.gamma_star == untraced.gamma_star
    assert tracer.spans == [] and tracer.counts["solves"] == 0  # the solve is the caller's own time
