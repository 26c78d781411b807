"""Exact optima and policy statistics by dynamic programming on joint states.

The joint state is (per-arm belief states, remaining integer budget,
last-played arm).  `dp_optimal` codes each arm's state as its index in the
compiled arm (`ArmStateSpace.compiled`) and walks the joint states depth
first with an explicit stack, so the depth of the DAG is not bounded by the
interpreter's recursion limit.  Its memo keys sort the states of
structurally identical arms (value functions are invariant under permuting
interchangeable arms), which collapses the n-fold product space to
multisets; the symmetric integrality-gap family at n = 16 would otherwise
need ~3^16 entries.  A Lagrangean play is valued only if the largest reward
still reachable could repay its cost (`dp_optimal`); `DecisionTable.decide`
values any state so skipped on demand, with the same code and memo.

Also walks any policy (deterministic table or randomized process) forward to
its exact per-state occupancy probabilities w/x/z, which can be fed back into
the relaxation rows for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import getitem
from typing import NamedTuple

from .statespace import BanditInstance

ORACLE_GUARD = 10_000_000
# dp_optimal plays an arm only if its value beats the best action so far
# (stopping first) by more than ACTION_TIE, so near-ties keep the earlier action.
ACTION_TIE = 1e-12
# dp_optimal skips a Lagrangean play that cannot beat the best action so far
# by more than LAGRANGE_SLACK * (1 + |reachable reward| + cost).
LAGRANGE_SLACK = 1e-9


class OracleGuardError(RuntimeError):
    """Estimated joint-state count exceeds the configured limit."""


class JointState(NamedTuple):
    states: tuple[str, ...]  # current state id per arm, in instance order
    budget: int | None  # remaining budget; None for the lagrangean objective
    last: int | None  # index of the last-played arm, for switch-cost accounting


def _arm_classes(instance: BanditInstance) -> list[int]:
    seen: dict[tuple, int] = {}
    return [seen.setdefault(arm.structural_key(), len(seen)) for arm in instance.arms]


def _canonical(classes: list[int]):
    """The states part of a memo key, as a function of the arms' state codes,
    or None when no two arms are interchangeable (the codes themselves are
    the key).  Interchangeable arms share their state codes, so sorting the
    codes within each class of two or more arms makes the key invariant
    under permuting them; every other arm keeps its position."""
    members: dict[int, list[int]] = {}
    for i, cls in enumerate(classes):
        members.setdefault(cls, []).append(i)
    groups = [g for g in members.values() if len(g) > 1]
    if not groups:
        return None

    def canon(codes: tuple[int, ...]) -> tuple[int, ...]:
        out = list(codes)
        for g in groups:
            for i, u in zip(g, sorted([codes[i] for i in g])):
                out[i] = u
        return tuple(out)

    return canon


def _multiset_count(n_items: int, n_kinds: int) -> int:
    return math.comb(n_items + n_kinds - 1, n_items)


def estimate_joint_states(instance: BanditInstance, with_budget: bool) -> int:
    """Canonical joint-state count used against the oracle guard."""
    classes = _arm_classes(instance)
    per_class: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for idx, cls in enumerate(classes):
        per_class[cls] = per_class.get(cls, 0) + 1
        sizes[cls] = len(instance.arms[idx].states)
    count = 1
    for cls, n_arms in per_class.items():
        count *= _multiset_count(n_arms, sizes[cls])
    if with_budget:
        count *= int(instance.budget) + 1
    if any(a.switch_cost > 0 for a in instance.arms):
        count *= len(instance.arms) + 1
    return count


def _check_joint_space(instance: BanditInstance, with_budget: bool, limits: int) -> None:
    """Reject what the joint-state walk cannot represent or afford.

    Integrality matters only when the remaining budget is a DP dimension.
    """
    for arm in instance.arms:
        if arm.switch_cost < 0 or min(arm.compiled().costs, default=0.0) < 0:
            raise ValueError(f"the DP oracle requires play and switch costs >= 0; arm {arm.arm_id!r} has one below 0")
    if with_budget:
        if not instance.has_integer_costs():
            raise ValueError("the DP oracle requires integer play and switch costs")
        b = instance.budget
        if b is None or not float(b).is_integer() or b < 0:
            raise ValueError(f"the DP oracle requires a non-negative integer budget, got {b!r}")
    est = estimate_joint_states(instance, with_budget)
    if est > limits:
        raise OracleGuardError(f"estimated joint-state count {est} exceeds the limit {limits}")


class DecisionTable:
    """Optimal policy produced by dp_optimal.

    ``decide(joint)`` returns ("play", arm_id) or ("stop",); the stop action
    exploits the best current arm (argmax reward, the first arm in instance
    order on ties, as `enumerate_policy_statistics` exploits it).  A joint
    state that the DP's bound left unvalued is valued on the first call that
    asks for it, into the same memo; the optimal policy never reaches one.
    """

    def __init__(self, instance: BanditInstance, memo, classes, canon, track_last, value):
        self._instance = instance
        self._memo = memo
        self._classes = classes
        self._canon = canon
        self._track_last = track_last
        self._value = value

    def decide(self, joint: JointState) -> tuple:
        codes = tuple(arm.compiled().index[sid] for arm, sid in zip(self._instance.arms, joint.states))
        last = joint.last if self._track_last else None
        last_entry = None if last is None else (self._classes[last], codes[last])
        key = (joint.budget, last_entry, codes if self._canon is None else self._canon(codes))
        if key not in self._memo:
            self._value(codes, joint.budget, joint.last, key)
        action = self._memo[key][1]
        if action[0] == "stop":
            return ("stop",)
        _, cls, u, is_last = action
        for idx, arm in enumerate(self._instance.arms):
            if self._classes[idx] != cls or codes[idx] != u:
                continue
            if self._track_last and is_last != (idx == joint.last):
                continue
            return ("play", arm.arm_id)
        raise KeyError(f"no arm matches canonical action {action!r} in {joint!r}")


def dp_optimal(
    instance: BanditInstance, limits: int = ORACLE_GUARD
) -> tuple[float, DecisionTable]:
    """Optimal adaptive value (budgeted reward or lagrangean profit) and policy.

    Budgeted: maximize expected exploited reward with play+switch cost at most
    the budget on every trajectory.  Lagrangean: maximize exploited reward
    minus accumulated cost, stop always available.

    Lagrangean plays are bounded.  With costs >= 0 no joint state is worth
    more than U, the largest reward its arms can still reach
    (`CompiledArm.max_reachable`), so a play of cost c is worth at most
    U - c and is skipped, its children unvalued, when U - c <= best - slack
    (slack = LAGRANGE_SLACK * (1 + |U| + c), best the best action so far).
    Rounding lifts a computed value over its exact bound by a few ulps of the
    reward scale per level of depth, far below the slack, so a skipped play
    could not have beaten best + ACTION_TIE: OPT and every decision keep the
    unbounded DP's bits.  Budgeted plays stay unbounded: they spend budget,
    not value, and U is never below the value of stopping.
    """
    kind = instance.objective.kind
    if kind not in ("budgeted", "lagrangean"):
        raise ValueError(f"the DP oracle handles budgeted/lagrangean objectives, not {kind!r}")
    with_budget = kind == "budgeted"
    _check_joint_space(instance, with_budget, limits)

    arms = instance.arms
    compiled = [a.compiled() for a in arms]
    classes = _arm_classes(instance)
    canon = _canonical(classes)
    track_last = any(a.switch_cost > 0 for a in arms)
    rewards = [ca.rewards for ca in compiled]
    reach = [ca.max_reachable for ca in compiled]
    # per arm and state: None at a leaf, else the play's cost after another
    # arm's play (the switch cost included), after this arm's own, and the
    # children
    moves = [
        [None if leaf else (c + a.switch_cost, c + 0.0, kids) for c, leaf, kids in zip(ca.costs, ca.leaf, ca.kids)]
        for a, ca in zip(arms, compiled)
    ]
    memo: dict[tuple, tuple[float, tuple]] = {}

    def node(codes: tuple[int, ...], budget: int | None, last: int | None, key: tuple):
        """One joint state's value, as a generator: it yields each successor
        (codes, budget, last, key) missing from the memo and is sent its
        value, so the loop below walks the states in the order a
        recursion would, on its own stack."""
        best = max(map(getitem, rewards, codes), default=0.0)  # 0 without arms
        top = None if with_budget else max(map(getitem, reach, codes), default=0.0)
        action: tuple = ("stop",)
        for i, u in enumerate(codes):
            move = moves[i][u]
            if move is None:
                continue
            cost = move[0] if last != i else move[1]
            if with_budget:
                icost = int(cost)
                if icost > budget:
                    continue
                nb = budget - icost
                v = 0.0
            elif top - cost <= best - LAGRANGE_SLACK * (1.0 + abs(top) + cost):
                continue  # no reachable reward repays the cost
            else:
                nb = None
                v = -cost
            head, tail = codes[:i], codes[i + 1 :]
            cls = classes[i] if track_last else None
            for c, p in move[2]:
                nxt = head + (c,) + tail
                nkey = (nb, None if cls is None else (cls, c), nxt if canon is None else canon(nxt))
                hit = memo.get(nkey)
                v += p * (hit[0] if hit is not None else (yield nxt, nb, i, nkey))
            if v > best + ACTION_TIE:
                best = v
                action = ("play", classes[i], u, i == last)
        memo[key] = (best, action)
        return best

    def value(*state) -> float:
        """Value a joint state (codes, budget, last, key) and every successor
        it needs that the memo lacks, depth first on an explicit stack."""
        stack = [node(*state)]
        sent = None
        while stack:
            try:
                child = stack[-1].send(sent)
            except StopIteration as done:
                stack.pop()
                sent = done.value
            else:
                stack.append(node(*child))
                sent = None
        return sent

    roots = (0,) * len(arms)  # a root is state 0 of its compiled arm
    budget = int(instance.budget) if with_budget else None
    opt = value(roots, budget, None, (budget, None, roots if canon is None else canon(roots)))
    return opt, DecisionTable(instance, memo, classes, canon, track_last, value)


# ---------------------------------------------------------------------------
# Policy statistics


@dataclass
class PolicyStatistics:
    """Exact occupancy probabilities of a policy: per-(arm, state) w, x, z."""

    w: dict[tuple[str, str], float]
    x: dict[tuple[str, str], float]
    z: dict[tuple[str, str], float]
    expected_reward: float

    def as_lp_values(self) -> dict[str, float]:
        """Values keyed by relaxation variable names, for row checking."""
        from .relaxations import var_name

        out: dict[str, float] = {}
        for (arm, sid), v in self.w.items():
            out[var_name("w", arm, sid)] = v
        for (arm, sid), v in self.x.items():
            out[var_name("x", arm, sid)] = v
        for (arm, sid), v in self.z.items():
            out[var_name("z", arm, sid)] = v
        return out


def enumerate_policy_statistics(
    instance: BanditInstance,
    policy,
    limits: int = ORACLE_GUARD,
) -> PolicyStatistics:
    """Walk a policy forward over the joint chain and accumulate w/x/z exactly.

    ``policy`` is either a DecisionTable (or anything with ``decide(joint)``
    returning ("play", arm_id) / ("stop",) / ("stop", arm_id)), or a
    randomized process exposing ``initial_aux()`` and
    ``branches(joint, aux) -> [(prob, action, next_aux)]`` where actions may
    additionally be ("noop",) for internal transitions.
    """
    kind = instance.objective.kind
    with_budget = kind == "budgeted"
    _check_joint_space(instance, with_budget, limits)

    arms = instance.arms
    n = len(arms)
    arm_index = {a.arm_id: i for i, a in enumerate(arms)}

    if hasattr(policy, "branches"):
        initial_aux = policy.initial_aux()
        branches = policy.branches
    else:
        initial_aux = None

        def branches(joint, aux):
            return [(1.0, policy.decide(joint), None)]

    w = {(a.arm_id, sid): 0.0 for a in arms for sid in a.states}
    x = dict(w)
    z = dict(w)
    for a in arms:
        w[(a.arm_id, a.root)] = 1.0
    expected_reward = 0.0

    start = JointState(tuple(a.root for a in arms), int(instance.budget) if with_budget else None, None)
    # Levels ordered by total plays made; noop transitions stay within a level.
    frontier: dict[tuple[JointState, object], float] = {(start, initial_aux): 1.0}
    while frontier:
        next_frontier: dict[tuple[JointState, object], float] = {}
        while frontier:
            (joint, aux), prob = frontier.popitem()
            if prob <= 0.0:
                continue
            for bp, action, next_aux in branches(joint, aux):
                mass = prob * bp
                if mass <= 0.0:
                    continue
                if action[0] == "stop":
                    if len(action) > 1 and action[1] is not None:
                        i = arm_index[action[1]]
                    elif n:
                        i = max(range(n), key=lambda k: (arms[k].states[joint.states[k]].reward, -k))
                    else:
                        continue  # no arm to exploit: the run ends worth 0
                    sid = joint.states[i]
                    x[(arms[i].arm_id, sid)] += mass
                    expected_reward += mass * arms[i].states[sid].reward
                elif action[0] == "noop":
                    key = (joint, next_aux)
                    frontier[key] = frontier.get(key, 0.0) + mass
                elif action[0] == "play":
                    i = arm_index[action[1]]
                    st = arms[i].states[joint.states[i]]
                    if st.is_leaf:
                        raise ValueError(f"policy plays leaf state {st.id!r} of arm {arms[i].arm_id!r}")
                    cost = st.play_cost + (arms[i].switch_cost if joint.last != i else 0.0)
                    budget = joint.budget
                    if with_budget:
                        budget = joint.budget - int(cost)
                        if budget < 0:
                            raise ValueError("policy exceeds the budget")
                    z[(arms[i].arm_id, st.id)] += mass
                    for child, p in st.transitions:
                        if not p:
                            continue
                        w[(arms[i].arm_id, child)] += mass * p
                        nxt = JointState(
                            joint.states[:i] + (child,) + joint.states[i + 1 :], budget, i
                        )
                        key = (nxt, next_aux)
                        next_frontier[key] = next_frontier.get(key, 0.0) + mass * p
                else:
                    raise ValueError(f"unknown policy action {action!r}")
        frontier = next_frontier

    return PolicyStatistics(w=w, x=x, z=z, expected_reward=expected_reward)
