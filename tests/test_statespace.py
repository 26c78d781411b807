import copy
import dataclasses
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlp.bench import as_lagrangean, gen_integrality_gap
from banditlp.oracle import dp_optimal
from banditlp.policies import evaluate_plan_exact, make_greedy_plan, monte_carlo_evaluate
from banditlp.relaxations import extract_single_arm_policies, solve_relaxation
from banditlp.statespace import (
    ArmStateSpace,
    BanditInstance,
    BeliefState,
    Objective,
    build_beta_bernoulli_arm,
    build_two_level_arm,
    instance_from_json,
    instance_to_json,
    validate_instance,
)


def test_two_level_symmetric_mean():
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, switch_cost=0)
    assert arm.states[arm.root].reward == 0.5
    leaves = [arm.states[c] for c, _ in arm.states[arm.root].transitions]
    assert sorted(l.reward for l in leaves) == [0.0, 1.0]
    assert all(p == 0.5 for _, p in arm.states[arm.root].transitions)


def test_two_level_gap_arm():
    # the integrality-gap arm at n = 4: leaf rewards 0 and 1, root mean 1/4
    n = 4
    arm = build_two_level_arm([0.0, 1.0], [1 - 1 / n, 1 / n], play_cost=1, switch_cost=0)
    assert arm.states[arm.root].reward == pytest.approx(0.25, abs=1e-12)
    rewards = {c: arm.states[c].reward for c, _ in arm.states[arm.root].transitions}
    assert rewards == {"v0": 0.0, "v1": 1.0}


def test_two_level_point_prior():
    arm = build_two_level_arm([5.0], [1.0], play_cost=0)
    assert arm.states[arm.root].reward == 5.0
    (child, p), = arm.states[arm.root].transitions
    assert p == 1.0 and arm.states[child].reward == 5.0


def test_two_level_errors():
    with pytest.raises(ValueError):
        build_two_level_arm([1.0, 2.0], [1.0], play_cost=1)
    with pytest.raises(ValueError):
        build_two_level_arm([-1.0], [1.0], play_cost=1)
    with pytest.raises(ValueError):
        build_two_level_arm([1.0, 2.0], [0.5, 0.6], play_cost=1)
    with pytest.raises(ValueError):
        build_two_level_arm([1.0], [1.0], play_cost=-1)


def test_two_level_duplicate_values_kept():
    arm = build_two_level_arm([0.3, 0.3], [0.5, 0.5], play_cost=1)
    assert len(arm.states) == 3  # duplicates stay separate leaves


def test_beta_uniform_depth1():
    arm = build_beta_bernoulli_arm(1, 1, depth=1, play_cost=1)
    root = arm.states["B(1,1)"]
    assert root.reward == 0.5
    children = dict(root.transitions)
    assert children["B(2,1)"] == 0.5 and children["B(1,2)"] == 0.5
    assert arm.states["B(2,1)"].reward == pytest.approx(2 / 3)
    assert arm.states["B(1,2)"].reward == pytest.approx(1 / 3)


def test_beta_point_depth0():
    arm = build_beta_bernoulli_arm(2, 1, depth=0, play_cost=1)
    assert len(arm.states) == 1
    assert arm.states[arm.root].reward == pytest.approx(2 / 3)
    assert arm.states[arm.root].is_leaf


def test_beta_depth2_enumeration():
    # hand enumeration: B(1,1) -> {B(2,1),B(1,2)} -> {B(3,1),B(2,2),B(1,3)}
    arm = build_beta_bernoulli_arm(1, 1, depth=2, play_cost=1)
    assert len(arm.states) == 6
    assert set(arm.states) == {"B(1,1)", "B(2,1)", "B(1,2)", "B(3,1)", "B(2,2)", "B(1,3)"}
    # martingale at the root: 1/2 = 1/2 * 2/3 + 1/2 * 1/3
    inst = BanditInstance(arms=(arm,), budget=2.0, objective=Objective("budgeted"))
    assert validate_instance(inst) == []


def test_beta_errors():
    with pytest.raises(ValueError):
        build_beta_bernoulli_arm(0, 1, depth=1, play_cost=1)
    with pytest.raises(ValueError):
        build_beta_bernoulli_arm(1, 1, depth=-1, play_cost=1)


@given(
    weights=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    values=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_two_level_martingale_property(weights, values):
    vals = values.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    total = sum(weights)
    probs = [w / total for w in weights]
    arm = build_two_level_arm(vals, probs, play_cost=1)
    inst = BanditInstance(arms=(arm,), budget=1.0, objective=Objective("budgeted"))
    assert validate_instance(inst) == []
    # permuting the (value, prob) pairs keeps the prior mean
    perm = list(reversed(range(len(vals))))
    arm2 = build_two_level_arm([vals[i] for i in perm], [probs[i] for i in perm], play_cost=1)
    assert math.isclose(
        arm.states[arm.root].reward, arm2.states[arm2.root].reward, rel_tol=0, abs_tol=1e-12
    )


@given(
    a=st.integers(min_value=1, max_value=5),
    b=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_beta_state_count_and_root(a, b, depth):
    arm = build_beta_bernoulli_arm(a, b, depth, play_cost=1)
    assert len(arm.states) == (depth + 1) * (depth + 2) // 2
    assert abs(arm.states[arm.root].reward - a / (a + b)) <= 1e-12
    for sid in arm.states:
        st_ = arm.states[sid]
        if not st_.is_leaf:
            mean = sum(p * arm.states[c].reward for c, p in st_.transitions)
            assert abs(st_.reward - mean) <= 1e-9


def _two_level_instance():
    a0 = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a0")
    a1 = build_two_level_arm([0.2, 0.8], [0.25, 0.75], play_cost=2, switch_cost=1, arm_id="a1")
    return BanditInstance(arms=(a0, a1), budget=3.0, objective=Objective("budgeted"))


def test_validate_clean_instance():
    assert validate_instance(_two_level_instance()) == []


def test_validate_martingale_violation():
    # root claims 0.6 but the children average to 0.5
    states = {
        "root": BeliefState("root", 0.6, 1.0, (("u", 0.5), ("v", 0.5))),
        "u": BeliefState("u", 2 / 3, 0.0),
        "v": BeliefState("v", 1 / 3, 0.0),
    }
    arm = ArmStateSpace("a", "root", states)
    inst = BanditInstance((arm,), budget=1.0)
    diags = [d for d in validate_instance(inst) if d.kind == "martingale"]
    assert len(diags) == 1
    assert diags[0].magnitude == pytest.approx(0.1, abs=1e-9)
    assert diags[0].arm_id == "a" and diags[0].state_id == "root"


def test_validate_normalization_violation():
    states = {
        "root": BeliefState("root", 0.55, 1.0, (("u", 0.5), ("v", 0.6))),
        "u": BeliefState("u", 1.0, 0.0),
        "v": BeliefState("v", 0.175, 0.0),
    }
    arm = ArmStateSpace("a", "root", states)
    inst = BanditInstance((arm,), budget=1.0)
    diags = [d for d in validate_instance(inst) if d.kind == "normalization"]
    assert len(diags) == 1
    assert diags[0].magnitude == pytest.approx(0.1, abs=1e-9)


def test_validate_cycle_and_unreachable():
    states = {
        "root": BeliefState("root", 0.5, 1.0, (("root", 1.0),)),
        "orphan": BeliefState("orphan", 0.25, 0.0),
    }
    arm = ArmStateSpace("a", "root", states)
    inst = BanditInstance((arm,), budget=1.0)
    kinds = {d.kind for d in validate_instance(inst)}
    assert "cycle" in kinds
    # the order is cached per arm, but a cycle caches nothing: every call
    # raises and every validation diagnoses it again
    for _ in range(2):
        with pytest.raises(ValueError, match="cycle through state 'root'"):
            arm.topo_order()
        assert "cycle" in {d.kind for d in validate_instance(inst)}


def test_topo_order_is_computed_once_and_immutable():
    arm = build_beta_bernoulli_arm(1, 2, 3, play_cost=1.0, arm_id="a")
    order = arm.topo_order()
    assert isinstance(order, tuple) and order is arm.topo_order()
    assert order[0] == arm.root and sorted(order) == sorted(arm.states)
    index = {sid: k for k, sid in enumerate(order)}
    assert all(index[sid] < index[c] for sid in order for c, _ in arm.states[sid].transitions)


def test_compiled_arm_is_built_once_lazily_and_immutable():
    states = {
        "r": BeliefState("r", 0.5, 2.0, (("h", 0.5), ("z", 0.0), ("l", 0.5))),
        "h": BeliefState("h", 1.0),
        "z": BeliefState("z", 0.7),
        "l": BeliefState("l", 0.0),
    }
    arm = ArmStateSpace("a", "r", states, switch_cost=1.0)
    inst = BanditInstance((arm,), budget=3.0)
    assert validate_instance(inst) == []
    assert "_compiled" not in arm.__dict__  # neither construction nor validation compiles
    ca = arm.compiled()
    assert ca is arm.compiled()
    order = arm.topo_order()
    assert ca.sids == order
    assert dict(ca.index) == {sid: u for u, sid in enumerate(order)}
    assert ca.keys == tuple(("a", sid) for sid in order)
    assert ca.rewards == tuple(states[sid].reward for sid in order)
    assert ca.costs == tuple(states[sid].play_cost for sid in order)
    assert ca.charges == tuple(arm.play_charge(sid) for sid in order)
    assert ca.charges[0] == 3.0
    assert ca.leaf == tuple(states[sid].is_leaf for sid in order)
    # children with p > 0 only, in transition order
    assert [(order[c], p) for c, p in ca.kids[0]] == [("h", 0.5), ("l", 0.5)]
    assert ca.integer_costs and arm.max_exploration_cost() == 3.0
    twin = ArmStateSpace("b", "r", states, switch_cost=1.0)
    assert ca.structural_key == twin.compiled().structural_key == arm.structural_key()
    # one compiled arm is shared by every reader: nothing in it can change
    for name in ("sids", "keys", "rewards", "costs", "charges", "leaf", "kids"):
        assert isinstance(getattr(ca, name), tuple)
    assert all(isinstance(k, tuple) for k in ca.kids)
    with pytest.raises(TypeError):
        ca.index["h"] = 0
    with pytest.raises(AttributeError):
        ca.rewards = ()
    # copies carry the fields, not the caches, and compile on their own
    for copied in (pickle.loads(pickle.dumps(arm)), copy.deepcopy(arm)):
        assert copied == arm and "_compiled" not in copied.__dict__
        assert copied.compiled().kids == ca.kids
    fractional = ArmStateSpace("f", "r", {**states, "r": BeliefState("r", 0.5, 0.5, states["r"].transitions)})
    assert not fractional.compiled().integer_costs
    assert not BanditInstance((arm, fractional), budget=3.0).has_integer_costs()


def test_validate_budget_requirements():
    inst = BanditInstance(arms=_two_level_instance().arms, budget=None, objective=Objective("budgeted"))
    assert any(d.kind == "budget" for d in validate_instance(inst))
    lag = BanditInstance(arms=inst.arms, budget=None, objective=Objective("lagrangean"))
    assert validate_instance(lag) == []


def test_json_round_trip(tmp_path):
    inst = _two_level_instance()
    doc = instance_to_json(inst)
    text = json.dumps(doc)
    back = instance_from_json(json.loads(text))
    assert back.budget == inst.budget
    assert back.objective.kind == "budgeted"
    assert [a.arm_id for a in back.arms] == ["a0", "a1"]
    for a, b in zip(inst.arms, back.arms):
        assert a.states == b.states
        assert a.switch_cost == b.switch_cost


def test_concave_instance_json_round_trip(tmp_path):
    from banditlp.bench import as_concave
    from banditlp.statespace import load_instance, save_instance

    inst = as_concave(_two_level_instance(), capacity=1.0, epsilon=0.5)
    path = str(tmp_path / "conc.json")
    save_instance(inst, path)
    back = load_instance(path)
    assert back.objective.kind == "concave"
    prob, prob2 = inst.objective.concave, back.objective.concave
    assert prob2.capacity == prob.capacity
    assert prob2.epsilon == prob.epsilon
    assert prob2.grid == prob.grid
    assert prob2.sigmas == prob.sigmas
    assert prob2.value_tables == prob.value_tables


def _concave_doc():
    from banditlp.bench import as_concave

    return instance_to_json(as_concave(_two_level_instance(), capacity=1.0, epsilon=0.5))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("arms"), "instance: missing key 'arms'"),
        (lambda d: d["arms"][0].pop("id"), "arm 0: missing key 'id'"),
        (lambda d: d["arms"][1].pop("root"), "arm 'a1': missing key 'root'"),
        (lambda d: d["arms"][1].pop("states"), "arm 'a1': missing key 'states'"),
        (lambda d: d["arms"][0]["states"][1].pop("id"), "arm 'a0' state: missing key 'id'"),
        (lambda d: d["arms"][0]["states"][0].pop("reward"), "arm 'a0' state 'root': missing key 'reward'"),
        (lambda d: d["arms"][0]["states"][0]["children"][1].pop("prob"), "arm 'a0' state 'root': missing key 'prob'"),
        (lambda d: d["arms"][0]["states"][0]["children"][0].pop("state"), "arm 'a0' state 'root': missing key 'state'"),
        (lambda d: d["objective"].pop("B"), "concave objective: missing key 'B'"),
        (lambda d: d["objective"].pop("value_tables"), "concave objective: missing key 'value_tables'"),
    ],
)
def test_a_missing_key_in_an_instance_file_is_a_value_error(edit, message):
    # these used to raise KeyError, which the CLI reports as a traceback
    doc = _concave_doc()
    instance_from_json(doc)
    edit(doc)
    with pytest.raises(ValueError) as info:
        instance_from_json(doc)
    assert str(info.value) == message


def test_a_state_id_repeated_within_an_arm_is_rejected():
    # the last state of an id used to replace the first: two states "v0"
    # loaded as one arm that the file does not describe
    doc = instance_to_json(_two_level_instance())
    states = doc["arms"][0]["states"]
    states.append({**states[1], "reward": 0.5})
    with pytest.raises(ValueError) as info:
        instance_from_json(doc)
    assert str(info.value) == "arm 'a0': duplicate state id 'v0'"
    # the same id in two arms is two states
    doc = instance_to_json(_two_level_instance())
    assert [s["id"] for s in doc["arms"][0]["states"]] == [s["id"] for s in doc["arms"][1]["states"]]
    assert instance_from_json(doc).arms[0].states.keys() == {"root", "v0", "v1"}


def test_max_exploration_cost_and_two_level_shape():
    inst = _two_level_instance()
    assert inst.arms[0].max_exploration_cost() == 1.0
    assert inst.arms[1].max_exploration_cost() == 3.0  # switch 1 + play 2
    assert inst.max_single_arm_cost() == 3.0
    assert all(a.is_two_level() for a in inst.arms)
    beta = build_beta_bernoulli_arm(1, 1, 2, play_cost=1)
    assert not beta.is_two_level()
    assert beta.max_exploration_cost() == 2.0


# ---------------------------------------------------------------------------
# Numbers that are NaN or infinite


def _with_root(arm, **changes):
    """The arm with its root state's fields changed."""
    return dataclasses.replace(arm, states={**arm.states, arm.root: dataclasses.replace(arm.states[arm.root], **changes)})


@pytest.mark.parametrize(
    "edit, state, message",
    [
        (lambda a: _with_root(a, reward=math.nan), "root", "arm 'a0' state 'root': reward must be a finite number, got nan"),
        (lambda a: _with_root(a, play_cost=math.inf), "root", "arm 'a0' state 'root': play cost must be a finite number, got inf"),
        (
            lambda a: _with_root(a, transitions=(("v0", math.nan), ("v1", 0.5))),
            "root",
            "arm 'a0' state 'root': probability to 'v0' must be a finite number, got nan",
        ),
        (
            lambda a: dataclasses.replace(a, states={**a.states, "v1": dataclasses.replace(a.states["v1"], reward=-math.inf)}),
            "v1",
            "arm 'a0' state 'v1': reward must be a finite number, got -inf",
        ),
        (lambda a: dataclasses.replace(a, switch_cost=math.nan), None, "arm 'a0': switch cost must be a finite number, got nan"),
    ],
)
def test_a_number_that_is_not_finite_is_refused_by_every_reader(edit, state, message):
    # on the clean instance gamma* = 1 and OPT = 0.75; a NaN root reward
    # solved to gamma* 1.0 with an OPT of nan, a NaN child probability ran
    # to a Monte-Carlo mean of 1.0, and validate_instance saw neither
    clean = gen_integrality_gap(2)
    solution = solve_relaxation(clean)
    plan = make_greedy_plan(extract_single_arm_policies(solution, clean), clean, "budgeted")
    bad = dataclasses.replace(clean, arms=(edit(clean.arms[0]),) + clean.arms[1:])
    refused = pytest.raises(ValueError, match=re.escape(message))
    with refused:
        bad.arms[0].compiled()
    for variant in (bad, as_lagrangean(bad)):
        with refused:
            solve_relaxation(variant)
        with refused:
            dp_optimal(variant)
    with refused:
        evaluate_plan_exact(bad, plan, solution)
    with refused:
        monte_carlo_evaluate(bad, plan, solution, 100, 1)
    assert [(d.arm_id, d.state_id, d.kind) for d in validate_instance(bad)] == [("a0", state, "non-finite")]


def test_a_root_that_is_not_a_state_is_refused_on_compile():
    # the compile used to end in a KeyError
    arm = build_two_level_arm([0.0, 1.0], [0.5, 0.5], play_cost=1, arm_id="a0")
    with pytest.raises(ValueError, match="arm 'a0': root state 'high' not defined"):
        dataclasses.replace(arm, root="high").compiled()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.__setitem__("objective", "budgeted"), "instance: objective: expected an object, got 'budgeted'"),
        (lambda d: d.__setitem__("arms", 5), "instance: arms: expected a list, got 5"),
        (lambda d: d["arms"][0]["states"][1].__setitem__("reward", "high"),
         "arm 'a0' state 'v0': reward: expected a finite number, got 'high'"),
        (lambda d: d["arms"][0]["states"][0].__setitem__("reward", math.nan),
         "arm 'a0' state 'root': reward: expected a finite number, got nan"),
        (lambda d: d["arms"][1].__setitem__("switch_cost", True), "arm 'a1': switch_cost: expected a finite number, got True"),
        (lambda d: d["arms"][0]["states"][0]["children"][1].__setitem__("prob", -math.inf),
         "arm 'a0' state 'root': prob to 'v1': expected a finite number, got -inf"),
        (lambda d: d["arms"][0].__setitem__("id", 7), "arm 0: id: expected a string, got 7"),
        (lambda d: d["arms"][0]["states"][0].__setitem__("children", {}), "arm 'a0' state 'root': children: expected a list, got {}"),
        (lambda d: d["objective"]["sigmas"].__setitem__("a1", None), "concave objective: sigmas['a1']: expected a finite number, got None"),
        (lambda d: d["objective"]["value_tables"]["a0"]["v1"].__setitem__(2, math.inf),
         "concave objective: value_tables['a0']['v1'][2]: expected a finite number, got inf"),
        (lambda d: d["objective"].__setitem__("epsilon", "0.5"), "concave objective: epsilon: expected a finite number, got '0.5'"),
        (lambda d: d.__setitem__("budget", [2]), "instance: budget: expected a finite number, got [2]"),
        (lambda d: d.__setitem__("budget", 10**400), "instance: budget: expected a finite number, got 100000000000000000...0000000000000000000"),
    ],
)
def test_a_value_of_the_wrong_type_in_an_instance_file_is_a_value_error(edit, message):
    # these used to load as NaN or infinite numbers, or end in an
    # AttributeError, TypeError or a float() error that named no arm
    doc = _concave_doc()
    instance_from_json(doc)
    edit(doc)
    with pytest.raises(ValueError) as info:
        instance_from_json(doc)
    assert str(info.value) == message
