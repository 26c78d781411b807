"""Belief-state DAGs for Bayesian bandit arms.

An arm is a DAG of belief states.  Each state carries the expected posterior
reward of committing to the arm there, the cost of one more play, and the
outcome distribution of that play (transition probabilities to child states).
Bayes-consistency shows up as the martingale identity: an internal state's
reward equals the probability-weighted mean of its children's rewards.

Two canonical families are provided: two-level star spaces (a single play
reveals a deterministic underlying reward drawn from the prior) and
Beta-Bernoulli posterior DAGs (coin arms with Beta priors, truncated at a
play depth).
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

MODEL_TOL = 1e-9
TABLE_TOL = 1e-9  # concave value tables: non-negative, non-decreasing, concave, super-martingale


@dataclass(frozen=True)
class BeliefState:
    """One belief state of an arm.

    ``transitions`` is empty for leaves; otherwise it lists
    ``(child_state_id, probability)`` pairs that sum to 1.
    """

    id: str
    reward: float
    play_cost: float = 0.0
    transitions: tuple[tuple[str, float], ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.transitions


@dataclass(frozen=True)
class ArmStateSpace:
    """A single arm: a reward-martingale DAG rooted at the prior state."""

    arm_id: str
    root: str
    states: Mapping[str, BeliefState]
    switch_cost: float = 0.0

    def topo_order(self) -> tuple[str, ...]:
        """State ids in a topological order starting at the root.

        Only states reachable from the root are returned.  Raises
        ``ValueError`` on a cycle, on every call; use ``validate_instance``
        for a non-throwing diagnosis.  The order is computed once per arm
        (arms are never changed in place) and shared by every caller, hence
        a tuple.
        """
        return self._topo_order

    @functools.cached_property
    def _topo_order(self) -> tuple[str, ...]:
        # Iterative DFS: belief DAGs can be deeper than the interpreter stack
        # (depth tracks the play budget).  A raise caches nothing.
        order: list[str] = []
        mark: dict[str, int] = {}  # 1 = on the DFS path, 2 = done
        stack: list[tuple[str, bool]] = [(self.root, False)]
        while stack:
            sid, expanded = stack.pop()
            if expanded:
                mark[sid] = 2
                order.append(sid)
                continue
            if mark.get(sid) is not None:  # stale duplicate entry
                continue
            mark[sid] = 1
            stack.append((sid, True))
            st = self.states.get(sid)
            if st is not None:
                for child, _ in st.transitions:
                    if child not in self.states:
                        continue
                    status = mark.get(child)
                    if status == 1:  # back edge onto the active path
                        raise ValueError(f"arm {self.arm_id!r}: cycle through state {child!r}")
                    if status is None:
                        stack.append((child, False))
        order.reverse()
        return tuple(order)

    def __getstate__(self) -> dict:
        # pickling and copying keep the fields only: the cached order and
        # compiled arm are rebuilt on first use (a read-only index mapping
        # does not pickle)
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def compiled(self) -> "CompiledArm":
        """The arm's states compiled into parallel tuples, in `topo_order`.

        Built on first use and kept on the arm, like the topological order,
        so every solve, evaluation and oracle call on the arm reads the same
        one.  Raises ``ValueError`` on a cycle, as `topo_order` does, and
        with the first of `_compile_faults` (an id with "|", a root that is
        not a state, a number that is not finite), which `validate_instance`
        reports whole.
        """
        return self._compiled

    @functools.cached_property
    def _compiled(self) -> "CompiledArm":
        faults = _compile_faults(self)
        if faults:
            raise ValueError(faults[0].message)
        order = self.topo_order()
        index = {sid: u for u, sid in enumerate(order)}
        states = [self.states[sid] for sid in order]
        costs = tuple([st.play_cost for st in states])
        kids = tuple([tuple([(index[c], p) for c, p in st.transitions if p > 0.0 and c in index]) for st in states])
        depth = [0] * len(order)
        for u, ks in enumerate(kids):
            for c, _ in ks:
                depth[c] = max(depth[c], depth[u] + 1)
        return CompiledArm(
            sids=order,
            index=MappingProxyType(index),
            keys=tuple([(self.arm_id, sid) for sid in order]),
            rewards=tuple([st.reward for st in states]),
            costs=costs,
            charges=tuple([c + (self.switch_cost if u == 0 else 0.0) for u, c in enumerate(costs)]),
            leaf=tuple([not st.transitions for st in states]),
            kids=kids,
            draws=2 * max(depth) + 1,
            integer_costs=float(self.switch_cost).is_integer()
            and all([not s.transitions or float(s.play_cost).is_integer() for s in self.states.values()]),
            switch_cost=self.switch_cost,
            states=self.states,
        )

    def max_exploration_cost(self) -> float:
        """Switch cost plus the maximum total play cost along any root-leaf path.

        Computed on every call, so that instance generators, which read it
        for every arm they draw, compile nothing.
        """
        best: dict[str, float] = {}
        for sid in reversed(self.topo_order()):
            st = self.states[sid]
            if st.is_leaf:
                best[sid] = 0.0
            else:
                best[sid] = st.play_cost + max(best.get(c, 0.0) for c, _ in st.transitions)
        return self.switch_cost + best.get(self.root, 0.0)

    def play_charge(self, state_id: str) -> float:
        """Cost of playing at a state, the switch cost included at the root."""
        return self.states[state_id].play_cost + (self.switch_cost if state_id == self.root else 0.0)

    def first_play_cost(self) -> float | None:
        """Cost of the first possible play (switch + root play); None if the root is a leaf."""
        if self.states[self.root].is_leaf:
            return None
        return self.play_charge(self.root)

    def is_two_level(self) -> bool:
        """True when the arm is a depth-1 star: root plays once, all children are leaves."""
        root = self.states[self.root]
        if root.is_leaf:
            return False
        for child, _ in root.transitions:
            if child not in self.states or not self.states[child].is_leaf:
                return False
        return len(self.states) == 1 + len(root.transitions)

    def structural_key(self) -> tuple:
        """Hashable fingerprint; arms with equal keys are interchangeable copies."""
        return self.compiled().structural_key


@dataclass(frozen=True, eq=False)
class CompiledArm:
    """An arm's reachable states as parallel tuples, indexed by their position
    u in the arm's topological order (the root is 0, a child comes after its
    parents).  Every field is immutable: one compiled arm is shared by every
    reader of the arm.

    Per state: its id and (arm id, state id) key, its reward, its play cost,
    its play charge (the switch cost included at the root), whether it is a
    leaf, and its children as (index, probability) for probability > 0.
    Per arm: `index` (state id -> u), `draws` (2 * height + 1, the most
    uniform draws one walk of the arm reads: one per visited state to stop
    or play, one per play for the child), whether every play and switch cost
    is an integer, the switch cost and the arm's states, reachable or not,
    from which the structural key (equal keys mean interchangeable copies) is
    read on first use.
    """

    sids: tuple[str, ...]
    index: Mapping[str, int]
    keys: tuple[tuple[str, str], ...]
    rewards: tuple[float, ...]
    costs: tuple[float, ...]
    charges: tuple[float, ...]
    leaf: tuple[bool, ...]
    kids: tuple[tuple[tuple[int, float], ...], ...]
    draws: int
    integer_costs: bool
    switch_cost: float
    states: Mapping[str, BeliefState]

    @functools.cached_property
    def structural_key(self) -> tuple:
        everything = sorted([(s.id, s.reward, s.play_cost, s.transitions) for s in self.states.values()])
        return self.switch_cost, self.sids[0], tuple(everything)

    @functools.cached_property
    def arrays(self) -> "StateArrays":
        """The states' rewards, charges and children as read-only arrays,
        built on first use: what batched walks and rules read of the arm."""
        n, n_kid = len(self.sids), max(1, *map(len, self.kids))
        cum = np.full((n_kid - 1, n), math.inf)
        kids = np.zeros((n, n_kid), dtype=np.intp)
        for u, ks in enumerate(self.kids):
            if ks:
                cum[: len(ks) - 1, u] = list(accumulate(p for _, p in ks))[:-1]
                kids[u, : len(ks)] = [c for c, _ in ks]
        out = StateArrays(np.array(self.rewards, dtype=float), np.array(self.charges, dtype=float), cum, kids)
        for a in out:
            a.flags.writeable = False
        return out

    @functools.cached_property
    def max_reachable(self) -> tuple[float, ...]:
        """Per state u, the largest reward of u and of every state reachable
        from it, built on first use: with costs >= 0, no policy that starts
        with the arm at u exploits more of it."""
        out = list(self.rewards)
        for u in reversed(range(len(out))):  # children come after parents
            out[u] = max([out[u], *[out[c] for c, _ in self.kids[u]]])
        return tuple(out)


class StateArrays(NamedTuple):
    """A compiled arm's per-state arrays, indexed by u: the reward, the charge,
    and the children `kids[u, c]` and `cum[c, u]`, child c's cumulative
    probability for each child but the last (+inf past them).  A state's
    cumulative probabilities add positive probabilities, so they never
    decrease: the first c with a draw below `cum[c, u]` is the number of them
    at or below it."""

    reward: np.ndarray
    charge: np.ndarray
    cum: np.ndarray
    kids: np.ndarray


@dataclass(frozen=True)
class ConcaveProblem:
    """Concave-utility exploitation data.

    Weights y_i in [0,1] are assigned under the packing constraint
    sum_i sigma_i y_i <= capacity.  State values are sampled on the grid
    {0, 1/grid, ..., 1}: ``value_tables[arm][state][l]`` is the utility of
    committing weight l/grid to the arm in that state.
    """

    capacity: float
    epsilon: float
    grid: int
    sigmas: Mapping[str, float]
    value_tables: Mapping[str, Mapping[str, tuple[float, ...]]]

    def table(self, arm_id: str, state_id: str) -> tuple[float, ...]:
        return self.value_tables[arm_id][state_id]

    def value_at(self, arm_id: str, state_id: str, weight: float) -> float:
        """Table value at an arbitrary weight, linear between grid points.

        Concavity makes the interpolant a conservative lower bound on the
        underlying utility.
        """
        zeta = self.table(arm_id, state_id)
        y = min(max(weight, 0.0), 1.0) * self.grid
        lo = min(int(math.floor(y)), self.grid - 1) if self.grid > 0 else 0
        frac = y - lo
        return zeta[lo] + frac * (zeta[lo + 1] - zeta[lo])


@dataclass(frozen=True)
class Objective:
    """Objective variant of an instance: budgeted, lagrangean, or concave."""

    kind: str  # "budgeted" | "lagrangean" | "concave"
    alpha: float = 1.0  # default bicriteria budget factor for budgeted runs
    concave: ConcaveProblem | None = None


BUDGETED = Objective("budgeted")


@dataclass(frozen=True)
class BanditInstance:
    """A set of arms plus a budget and an objective variant.

    Arm ids are unique: construction raises ValueError("duplicate arm id
    'a'") otherwise, so the loader, every reader and every lookup by id see
    one arm per id.
    """

    arms: tuple[ArmStateSpace, ...]
    budget: float | None = None
    objective: Objective = BUDGETED

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for a in self.arms:
            if a.arm_id in seen:
                raise ValueError(f"duplicate arm id {a.arm_id!r}")
            seen.add(a.arm_id)

    def arm(self, arm_id: str) -> ArmStateSpace:
        for a in self.arms:
            if a.arm_id == arm_id:
                return a
        raise KeyError(arm_id)

    def max_single_arm_cost(self) -> float:
        """c_max: the largest cost of fully exploring any one arm."""
        return max((a.max_exploration_cost() for a in self.arms), default=0.0)

    def has_integer_costs(self) -> bool:
        return all(a.compiled().integer_costs for a in self.arms)


def concave_grid_size(n_arms: int, epsilon: float) -> int:
    """Grid resolution L = ceil(n / epsilon)."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    return int(math.ceil(n_arms / epsilon))


def linear_value_tables(arms: Sequence[ArmStateSpace], grid: int) -> dict[str, dict[str, tuple[float, ...]]]:
    """Tables for the plain max-reward utility g_u(y) = r_u * y."""
    return {
        a.arm_id: {s.id: tuple(s.reward * l / grid for l in range(grid + 1)) for s in a.states.values()}
        for a in arms
    }


def make_concave_problem(
    arms: Sequence[ArmStateSpace],
    capacity: float,
    epsilon: float,
    sigmas: Mapping[str, float] | None = None,
    value_tables: Mapping[str, Mapping[str, Sequence[float]]] | None = None,
) -> ConcaveProblem:
    """Assemble a ConcaveProblem; defaults: sigma_i = 1, linear tables g = r*y."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    grid = concave_grid_size(len(arms), epsilon)
    if sigmas is None:
        sigmas = {a.arm_id: 1.0 for a in arms}
    if value_tables is None:
        value_tables = linear_value_tables(arms, grid)
    tables = {
        arm: {state: tuple(float(v) for v in tab) for state, tab in per_arm.items()}
        for arm, per_arm in value_tables.items()
    }
    return ConcaveProblem(
        capacity=float(capacity),
        epsilon=float(epsilon),
        grid=grid,
        sigmas={k: float(v) for k, v in sigmas.items()},
        value_tables=tables,
    )


# ---------------------------------------------------------------------------
# Builders


def build_two_level_arm(
    values: Sequence[float],
    probs: Sequence[float],
    play_cost: float,
    switch_cost: float = 0.0,
    arm_id: str = "arm",
) -> ArmStateSpace:
    """Star-shaped arm: one play fully reveals a reward drawn from the prior.

    The root reward is the prior mean sum_j p_j a_j; leaf j has reward a_j
    and is reached with probability p_j.  Duplicate values stay separate
    leaves.
    """
    if len(values) != len(probs):
        raise ValueError("values and probs must have the same length")
    if len(values) == 0:
        raise ValueError("need at least one (value, prob) pair")
    if any(v < 0 for v in values):
        raise ValueError("reward values must be non-negative")
    if any(p < 0 for p in probs):
        raise ValueError("probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > MODEL_TOL:
        raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
    if play_cost < 0 or switch_cost < 0:
        raise ValueError("costs must be non-negative")

    mean = float(sum(p * v for v, p in zip(values, probs)))
    leaves = {
        f"v{j}": BeliefState(id=f"v{j}", reward=float(v), play_cost=0.0)
        for j, v in enumerate(values)
    }
    root = BeliefState(
        id="root",
        reward=mean,
        play_cost=float(play_cost),
        transitions=tuple((f"v{j}", float(p)) for j, p in enumerate(probs)),
    )
    states = {"root": root, **leaves}
    return ArmStateSpace(arm_id=arm_id, root="root", states=states, switch_cost=float(switch_cost))


def build_beta_bernoulli_arm(
    alpha1: int,
    alpha2: int,
    depth: int,
    play_cost: float,
    switch_cost: float = 0.0,
    arm_id: str = "arm",
) -> ArmStateSpace:
    """Beta-posterior DAG for a Bernoulli arm, truncated after ``depth`` plays.

    State B(a,b) has reward a/(a+b); a success (probability a/(a+b)) moves to
    B(a+1,b), a failure to B(a,b+1).  The DAG has (depth+1)(depth+2)/2 states.
    """
    if alpha1 < 1 or alpha2 < 1:
        raise ValueError("Beta parameters must be positive integers")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if play_cost < 0 or switch_cost < 0:
        raise ValueError("costs must be non-negative")

    def name(a: int, b: int) -> str:
        return f"B({a},{b})"

    states: dict[str, BeliefState] = {}
    for d in range(depth + 1):
        for s in range(d + 1):
            a = alpha1 + s
            b = alpha2 + (d - s)
            reward = a / (a + b)
            if d < depth:
                transitions = (
                    (name(a + 1, b), a / (a + b)),
                    (name(a, b + 1), b / (a + b)),
                )
                cost = float(play_cost)
            else:
                transitions = ()
                cost = 0.0
            sid = name(a, b)
            states[sid] = BeliefState(id=sid, reward=reward, play_cost=cost, transitions=transitions)
    return ArmStateSpace(
        arm_id=arm_id, root=name(alpha1, alpha2), states=states, switch_cost=float(switch_cost)
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    """One model violation found by validate_instance."""

    arm_id: str | None
    state_id: str | None
    kind: str
    magnitude: float
    message: str


def _compile_faults(arm: ArmStateSpace) -> list[Diagnostic]:
    """What keeps the arm from compiling, in the order `compiled` checks it:
    each id with "|", a root that is not a state, and each switch cost,
    reward, play cost or transition probability that is NaN or infinite."""
    out = [Diagnostic(arm.arm_id, sid, "id", 1.0, "arm/state ids may not contain '|'")
           for sid in (None, *arm.states) if "|" in (arm.arm_id if sid is None else sid)]
    at = f"arm {arm.arm_id!r}"
    if arm.root not in arm.states:
        out.append(Diagnostic(arm.arm_id, None, "missing-root", 1.0, f"{at}: root state {arm.root!r} not defined"))
    bad = [] if math.isfinite(arm.switch_cost) else [(None, "switch cost", arm.switch_cost)]
    for s in arm.states.values():
        if not math.isfinite(s.reward):
            bad.append((s.id, "reward", s.reward))
        if not math.isfinite(s.play_cost):
            bad.append((s.id, "play cost", s.play_cost))
        bad += [(s.id, f"probability to {c!r}", p) for c, p in s.transitions if not math.isfinite(p)]
    for sid, what, v in bad:
        where = at if sid is None else f"{at} state {sid!r}"
        out.append(Diagnostic(arm.arm_id, sid, "non-finite", 1.0, f"{where}: {what} must be a finite number, got {v!r}"))
    return out


def concave_diagnostics(instance: BanditInstance) -> list[Diagnostic]:
    """What the concave solve refuses of the instance's concave data, in the
    order it checks it (it raises the first): the ConcaveProblem, capacity
    and epsilon, then per arm its value tables and sigma in [0, B], each
    reachable state's table (grid + 1 finite entries, TABLE_TOL's rules) and
    last the super-martingale rule.  A number that is NaN or infinite is
    reported alone, since the other rules read it.  An arm that does not
    compile is left to `_compile_faults`."""
    prob = instance.objective.concave
    if prob is None:
        return [Diagnostic(None, None, "concave", 1.0, "concave instance lacks ConcaveProblem data")]
    grid = prob.grid
    out: list[Diagnostic] = []

    def table(arm_id, sid, kind, magnitude, what):
        out.append(Diagnostic(arm_id, sid, kind, float(magnitude), f"arm {arm_id!r} state {sid!r}: value table {what}"))

    for name, v in (("capacity", prob.capacity), ("epsilon", prob.epsilon)):
        if not math.isfinite(v):
            out.append(Diagnostic(None, None, "non-finite", 1.0, f"concave {name} must be a finite number, got {v!r}"))
    try:
        concave_grid_size(0, prob.epsilon)  # the epsilon rule
    except ValueError as exc:
        out.append(Diagnostic(None, None, "concave", 1.0, str(exc)))
    for arm in instance.arms:
        try:
            ca = arm.compiled()  # the reachable states and their known children
        except ValueError:
            continue
        a, tables, sigma = arm.arm_id, prob.value_tables.get(arm.arm_id), prob.sigmas.get(arm.arm_id)
        if tables is None:
            out.append(Diagnostic(a, None, "concave", 1.0, f"missing value tables for arm {a!r}"))
        if sigma is None or not 0 <= sigma <= prob.capacity:
            kind = "concave" if sigma is None or math.isfinite(sigma) else "non-finite"
            out.append(Diagnostic(a, None, kind, 1.0, f"arm {a!r}: sigma must lie in [0, B], got {sigma!r}"))
        sized = tables is not None  # every reachable state's table has grid + 1 entries
        for sid in ca.sids if sized else ():
            zeta = tables.get(sid)
            if zeta is None or len(zeta) != grid + 1:
                table(a, sid, "concave", 1.0, f"must have {grid + 1} entries")
                sized = False
                continue
            if not all(map(math.isfinite, zeta)):
                table(a, sid, "non-finite", 1.0, "entries must be finite numbers")
                continue
            if zeta[0] < -TABLE_TOL:
                table(a, sid, "concave", -zeta[0], "must be non-negative")
            for l in range(grid):
                if zeta[l + 1] < zeta[l] - TABLE_TOL:
                    table(a, sid, "concave", zeta[l] - zeta[l + 1], "must be non-decreasing")
                    break
            for l in range(1, grid):
                if zeta[l + 1] - 2 * zeta[l] + zeta[l - 1] > TABLE_TOL:
                    table(a, sid, "concave", zeta[l + 1] - 2 * zeta[l] + zeta[l - 1], "fails concavity")
                    break
        if not sized:
            continue
        for sid, kids in zip(ca.sids, ca.kids):
            for l in range(grid + 1) if kids else ():
                mean = sum(p * tables[ca.sids[c]][l] for c, p in kids)
                if tables[sid][l] < mean - TABLE_TOL:
                    table(a, sid, "concave", mean - tables[sid][l], f"fails the super-martingale check at l={l}")
                    break
    non_finite = [d for d in out if d.kind == "non-finite"]
    return non_finite or out


def objective_diagnostics(instance: BanditInstance) -> list[Diagnostic]:
    """What every relaxation refuses of the objective, and raises: an unknown
    kind, or a budgeted or concave one whose budget is not a finite number
    >= 0.  `make_greedy_plan` applies `_objective_faults` to a plan variant."""
    return _objective_faults(instance.objective.kind, instance.budget)


def _objective_faults(kind: str, budget: float | None) -> list[Diagnostic]:
    if kind not in ("budgeted", "lagrangean", "concave"):
        return [Diagnostic(None, None, "objective", 1.0, f"unknown objective kind {kind!r}")]
    if kind != "lagrangean" and (budget is None or not 0 <= budget < math.inf):
        return [Diagnostic(None, None, "budget", 1.0, f"{kind} objective requires a finite budget >= 0, got {budget!r}")]
    return []


def alpha_diagnostics(alpha: float) -> list[Diagnostic]:
    """[] when alpha is a bicriteria factor, a finite number >= 1; else the
    diagnostic whose message `make_greedy_plan` raises."""
    if 1.0 <= alpha < math.inf:
        return []
    return [Diagnostic(None, None, "alpha", 1.0, f"bicriteria factor alpha must be a finite number >= 1, got {alpha!r}")]


def _validate_arm(arm: ArmStateSpace, out: list[Diagnostic]) -> None:
    def add(state_id, kind, magnitude, message):
        out.append(Diagnostic(arm.arm_id, state_id, kind, float(magnitude), message))

    faults = _compile_faults(arm)
    out += faults
    if faults:
        return  # every check below reads what these refuse
    if arm.switch_cost < 0:
        add(None, "negative-value", -arm.switch_cost, "switch cost is negative")

    for s in arm.states.values():
        if s.reward < 0:
            add(s.id, "negative-value", -s.reward, "reward is negative")
        if s.play_cost < 0:
            add(s.id, "negative-value", -s.play_cost, "play cost is negative")
        for child, p in s.transitions:
            if child not in arm.states:
                add(s.id, "unknown-state", 1.0, f"transition to undefined state {child!r}")
            if p < -MODEL_TOL or p > 1 + MODEL_TOL:
                add(s.id, "probability-range", max(-p, p - 1.0), f"transition probability {p!r} outside [0,1]")
        if s.transitions:
            total = sum(p for _, p in s.transitions)
            if abs(total - 1.0) > MODEL_TOL:
                add(s.id, "normalization", abs(total - 1.0), f"transition probabilities sum to {total!r}")
            if all(c in arm.states for c, _ in s.transitions):
                mean = sum(p * arm.states[c].reward for c, p in s.transitions)
                if abs(s.reward - mean) > MODEL_TOL:
                    add(
                        s.id,
                        "martingale",
                        abs(s.reward - mean),
                        f"reward {s.reward!r} != child mean {mean!r}",
                    )

    # DAG-ness and reachability from the root.
    try:
        reachable = set(arm.topo_order())
    except ValueError as exc:
        add(None, "cycle", 1.0, str(exc))
        return
    for sid in arm.states:
        if sid not in reachable:
            add(sid, "unreachable", 1.0, "state not reachable from root")


def validate_instance(instance: BanditInstance) -> list[Diagnostic]:
    """Model diagnostics; empty iff every arm is a reward-martingale DAG and
    every data rule a reader checks holds.

    Reports DAG violations, normalization and martingale errors beyond
    MODEL_TOL, negative quantities, `_compile_faults` (an arm with one is
    reported for those alone, since its other checks read them), a missing
    or invalid budget for budgeted and concave objectives,
    `concave_diagnostics`, and an objective alpha that `alpha_diagnostics`
    refuses (`plan` and `run` take it as their default); a reader raises the
    first message of the rule set it checks.  `BanditInstance` itself refuses duplicate arm ids.
    Non-integer costs are not flagged here; the exact evaluator and the DP
    oracle enforce integrality themselves.
    """
    out: list[Diagnostic] = []
    for arm in instance.arms:
        _validate_arm(arm, out)

    out += objective_diagnostics(instance)
    if instance.objective.kind == "concave":
        out += concave_diagnostics(instance)
    return out + alpha_diagnostics(instance.objective.alpha)


# ---------------------------------------------------------------------------
# JSON instance files


def instance_to_json(instance: BanditInstance) -> dict:
    """Plain-dict form of an instance (the on-disk schema)."""
    obj: dict = {"type": instance.objective.kind}
    if instance.objective.kind == "budgeted" and instance.objective.alpha != 1.0:
        obj["alpha"] = instance.objective.alpha
    prob = instance.objective.concave
    if prob is not None:
        obj["epsilon"] = prob.epsilon
        obj["B"] = prob.capacity
        obj["sigmas"] = dict(prob.sigmas)
        obj["value_tables"] = {
            arm: {state: list(tab) for state, tab in per_arm.items()}
            for arm, per_arm in prob.value_tables.items()
        }
    return {
        "budget": instance.budget,
        "objective": obj,
        "arms": [
            {
                "id": a.arm_id,
                "switch_cost": a.switch_cost,
                "root": a.root,
                "states": [
                    {
                        "id": s.id,
                        "reward": s.reward,
                        "play_cost": s.play_cost,
                        "children": [{"state": c, "prob": p} for c, p in s.transitions],
                    }
                    for s in a.states.values()
                ],
            }
            for a in instance.arms
        ],
    }


def _get(doc: Mapping, key: str, where: str):
    """doc[key]; a missing key is a ValueError naming it and where it is missing."""
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def _typed(value, kind: type, what: str, where: str):
    """The value if it is an instance of kind, else a ValueError saying where
    it is and what was expected."""
    if not isinstance(value, kind):
        raise ValueError(f"{where}: expected {what}, got {reprlib.repr(value)}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number as a float.  A boolean, a string, null, NaN or
    +-Infinity (which Python's json reads) is a ValueError saying where it
    is."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{where}: expected a finite number, got {reprlib.repr(value)}")


def instance_from_json(doc: Mapping) -> BanditInstance:
    """An instance from its plain-dict form.

    Raises ValueError, saying where, on a missing key, a state id repeated
    within an arm, or a value of the wrong JSON type: ids and roots are
    strings, arms, states and children lists of objects, and every number
    (reward, play and switch cost, probability, budget, alpha, B, epsilon,
    sigma, value-table entry) a finite number, so a boolean, NaN or
    Infinity is refused.  A path reads like the missing-key ones, for
    example "arm 'a0' state 'root': reward: expected a finite number, got
    'high'".
    """
    _typed(doc, Mapping, "an object", "instance")
    arms = []
    for k, a in enumerate(_typed(_get(doc, "arms", "instance"), list, "a list", "instance: arms")):
        _typed(a, Mapping, "an object", f"arm {k}")
        arm_id = _typed(_get(a, "id", f"arm {k}"), str, "a string", f"arm {k}: id")
        where = f"arm {arm_id!r}"
        states = {}
        for j, s in enumerate(_typed(_get(a, "states", where), list, "a list", f"{where}: states")):
            _typed(s, Mapping, "an object", f"{where} state {j}")
            sid = _typed(_get(s, "id", f"{where} state"), str, "a string", f"{where} state {j}: id")
            if sid in states:
                raise ValueError(f"{where}: duplicate state id {sid!r}")
            at = f"{where} state {sid!r}"
            children = []
            for c in _typed(s.get("children", []), list, "a list", f"{at}: children"):
                _typed(c, Mapping, "an object", f"{at}: child")
                child = _typed(_get(c, "state", at), str, "a string", f"{at}: child state")
                children.append((child, _number(_get(c, "prob", at), f"{at}: prob to {child!r}")))
            states[sid] = BeliefState(
                id=sid,
                reward=_number(_get(s, "reward", at), f"{at}: reward"),
                play_cost=_number(s.get("play_cost", 0.0), f"{at}: play_cost"),
                transitions=tuple(children),
            )
        arms.append(
            ArmStateSpace(
                arm_id=arm_id,
                root=_typed(_get(a, "root", where), str, "a string", f"{where}: root"),
                states=states,
                switch_cost=_number(a.get("switch_cost", 0.0), f"{where}: switch_cost"),
            )
        )
    obj_doc = doc.get("objective")
    obj_doc = {} if obj_doc is None else _typed(obj_doc, Mapping, "an object", "instance: objective")
    kind = _typed(obj_doc.get("type", "budgeted"), str, "a string", "objective: type")
    concave = None
    if kind == "concave":
        where = "concave objective"
        B, eps = (_number(_get(obj_doc, key, where), f"{where}: {key}") for key in ("B", "epsilon"))
        sigmas = {
            arm: _number(v, f"{where}: sigmas[{arm!r}]")
            for arm, v in _typed(_get(obj_doc, "sigmas", where), Mapping, "an object", f"{where}: sigmas").items()
        }
        tables: dict[str, dict[str, tuple[float, ...]]] = {}
        per_arm = _typed(_get(obj_doc, "value_tables", where), Mapping, "an object", f"{where}: value_tables")
        for arm, per_state in per_arm.items():
            at = f"{where}: value_tables[{arm!r}]"
            tables[arm] = {}
            for sid, tab in _typed(per_state, Mapping, "an object", at).items():
                entries = enumerate(_typed(tab, list, "a list", f"{at}[{sid!r}]"))
                tables[arm][sid] = tuple(_number(v, f"{at}[{sid!r}][{l}]") for l, v in entries)
        concave = make_concave_problem(arms, B, eps, sigmas, tables)
    alpha = _number(obj_doc.get("alpha", 1.0), "objective: alpha")
    budget = doc.get("budget")
    return BanditInstance(
        arms=tuple(arms),
        budget=None if budget is None else _number(budget, "instance: budget"),
        objective=Objective(kind=kind, alpha=alpha, concave=concave),
    )


def save_instance(instance: BanditInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> BanditInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
