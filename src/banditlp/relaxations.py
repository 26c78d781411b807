"""LP relaxations of exploration policies and their single-arm decompositions.

Three relaxations share one variable scheme per arm state u: w_u is the
probability the state is ever reached, z_u the probability the arm is played
there, and x_{u,l} the probability the arm is exploited there at weight level
l of the grid {0..L}/L.  The concave relaxation has the whole grid; the
budgeted and Lagrangean ones are the one-level grid L = 1 (exploit or not),
whose only variable x_u is level 1 and whose level 0, a dead stop, carries no
mass.  `_exploit_vars` and `_exploit_levels` (the same levels with their
values) are the only places that tell the two apart; a solution stores
every state's masses at levels 0..L, (0.0, x_u) when plain.
The optimal LP solution decomposes into one randomized single-arm policy per
arm; its statistics (exploit probability P, exploit reward R, exploration
cost C) drive the greedy rounding in `policies`.

w at each root is pinned to 1 (not exploring and not exploiting is always
allowed by x + z <= w, so nothing is lost) and z is pinned to 0 at leaves
(a leaf has no play to make), which keeps the extracted uniform-draw
thresholds well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lp import LinearConstraint, LinearProgram, LPSolutionRaw, solve_lp
from .statespace import ArmStateSpace, BanditInstance, ConcaveProblem

# from_raw rescales a state's x + z down to its w when they exceed it by at
# most CLEANUP_SLACK (more is an error).  TABLE_TOL is the slack of the concave
# value-table checks: non-negative, non-decreasing, concave, super-martingale.
CLEANUP_SLACK = 1e-6
TABLE_TOL = 1e-9


def var_name(kind: str, arm_id: str, state_id: str, level: int | None = None) -> str:
    base = f"{kind}|{arm_id}|{state_id}"
    return base if level is None else f"{base}|{level}"


def _exploit_vars(arm: ArmStateSpace, sid: str, grid: int | None) -> tuple[tuple[int, str], ...]:
    """A state's exploit levels as (level l, LP variable).

    Plain (grid None): the one variable x|a|s at level 1.  Concave grid:
    x|a|s|l for l = 0..L.
    """
    if grid is None:
        return ((1, var_name("x", arm.arm_id, sid)),)
    return tuple((l, var_name("x", arm.arm_id, sid, l)) for l in range(grid + 1))


def _exploit_levels(
    instance: BanditInstance, arm: ArmStateSpace, sid: str, grid: int | None
) -> tuple[tuple[int, str, float], ...]:
    """`_exploit_vars` with each level's value zeta(l): the state's reward
    when plain, the value table's entry l on the concave grid."""
    if grid is None:
        return ((1, var_name("x", arm.arm_id, sid), arm.states[sid].reward),)
    zeta = instance.objective.concave.table(arm.arm_id, sid)
    return tuple((l, var_name("x", arm.arm_id, sid, l), zeta[l]) for l in range(grid + 1))


def _check_ids(instance: BanditInstance) -> None:
    for arm in instance.arms:
        if "|" in arm.arm_id or any("|" in s for s in arm.states):
            raise ValueError("arm/state ids may not contain '|'")


def _parents(arm: ArmStateSpace, order: list[str]) -> dict[str, list[tuple[str, float]]]:
    par: dict[str, list[tuple[str, float]]] = {sid: [] for sid in order}
    for sid in order:
        for child, p in arm.states[sid].transitions:
            if child in par:
                par[child].append((sid, p))
    return par


def _relaxation_lp(instance: BanditInstance, grid: int | None) -> LinearProgram:
    """The relaxation of the instance's kind on its weight grid (None: plain).

    Rows: the cost row (except for lagrangean plays, which pay charge * z in
    the objective), one linking row (exploit-mass sum x <= 1 on the one-level
    grid, weight-packing sum sigma * l * x <= B * L * (1 + eps) on the concave
    grid), then per arm its flow and cap rows.  Only the bounds that can bind
    are declared (root w = 1, leaf z = 0); the flow and cap rows keep every
    other w, z and x within [0, 1].
    """
    kind = instance.objective.kind
    if kind != "lagrangean" and (instance.budget is None or not math.isfinite(instance.budget)):
        raise ValueError(f"{kind} relaxation needs a finite budget")
    _check_ids(instance)
    prob = instance.objective.concave
    lp_vars: list[tuple[str, float, float]] = []
    core: list[LinearConstraint] = []
    cost: dict[str, float] = {}
    link: dict[str, float] = {}
    objective: dict[str, float] = {}
    for arm in instance.arms:
        sigma = 1.0 if grid is None else prob.sigmas[arm.arm_id]
        order = arm.topo_order()
        parents = _parents(arm, order)
        caps = []
        for sid in order:
            st = arm.states[sid]
            w, z = var_name("w", arm.arm_id, sid), var_name("z", arm.arm_id, sid)
            lp_vars.append((w, 1.0, 1.0) if sid == arm.root else (w, 0.0, math.inf))
            lp_vars.append((z, 0.0, 0.0 if st.is_leaf else math.inf))
            cap = {z: 1.0, w: -1.0}
            for l, name, value in _exploit_levels(instance, arm, sid, grid):
                lp_vars.append((name, 0.0, math.inf))
                cap[name] = 1.0
                if sigma * l != 0.0:
                    link[name] = sigma * l
                if value != 0.0:
                    objective[name] = value
            c = 0.0 if st.is_leaf else arm.play_charge(sid)
            if c != 0.0:
                cost[z] = c
                if kind == "lagrangean":
                    objective[z] = -c
            caps.append(LinearConstraint(cap, "<=", 0.0, name=f"cap|{arm.arm_id}|{sid}"))
            if sid != arm.root:
                flow: dict[str, float] = {w: 1.0}
                for parent, p in parents[sid]:
                    if p != 0.0:
                        name = var_name("z", arm.arm_id, parent)
                        flow[name] = flow.get(name, 0.0) - p
                core.append(LinearConstraint(flow, "==", 0.0, name=f"flow|{arm.arm_id}|{sid}"))
        core += caps
    rows = [] if kind == "lagrangean" else [LinearConstraint(cost, "<=", float(instance.budget), name="cost")]
    if grid is None:
        rows.append(LinearConstraint(link, "<=", 1.0, name="exploit-mass"))
    else:
        rows.append(LinearConstraint(link, "<=", prob.capacity * grid * (1.0 + prob.epsilon), name="weight-packing"))
    return LinearProgram(lp_vars, rows + core, objective)


def build_budgeted_lp(instance: BanditInstance) -> LinearProgram:
    """Relaxation with the exploration-cost budget row and unit exploit mass."""
    if instance.objective.kind != "budgeted":
        raise ValueError(f"expected a budgeted instance, got {instance.objective.kind!r}")
    return _relaxation_lp(instance, None)


def build_lagrangean_lp(instance: BanditInstance) -> LinearProgram:
    """Profit relaxation: exploit reward minus play and switch cost, no budget."""
    if instance.objective.kind != "lagrangean":
        raise ValueError(f"expected a lagrangean instance, got {instance.objective.kind!r}")
    return _relaxation_lp(instance, None)


def _validate_tables(instance: BanditInstance, prob: ConcaveProblem, grid: int) -> None:
    for arm in instance.arms:
        tables = prob.value_tables.get(arm.arm_id)
        if tables is None:
            raise ValueError(f"missing value tables for arm {arm.arm_id!r}")
        sigma = prob.sigmas.get(arm.arm_id)
        if sigma is None or sigma < 0 or sigma > prob.capacity:
            raise ValueError(f"arm {arm.arm_id!r}: sigma must lie in [0, B], got {sigma!r}")
        order = arm.topo_order()
        for sid in order:
            zeta = tables.get(sid)
            if zeta is None or len(zeta) != grid + 1:
                raise ValueError(
                    f"arm {arm.arm_id!r} state {sid!r}: value table must have {grid + 1} entries"
                )
            if zeta[0] < -TABLE_TOL:
                raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-negative")
            for l in range(grid):
                if zeta[l + 1] < zeta[l] - TABLE_TOL:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-decreasing")
            for l in range(1, grid):
                if zeta[l + 1] - 2 * zeta[l] + zeta[l - 1] > TABLE_TOL:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table fails concavity")
        for sid in order:
            st = arm.states[sid]
            if st.is_leaf:
                continue
            for l in range(grid + 1):
                mean = sum(p * tables[c][l] for c, p in st.transitions)
                if tables[sid][l] < mean - TABLE_TOL:
                    raise ValueError(
                        f"arm {arm.arm_id!r} state {sid!r}: value table fails the super-martingale check at l={l}"
                    )


def build_concave_lp(instance: BanditInstance) -> LinearProgram:
    """Discretized concave-utility relaxation over the weight grid {0..L}/L."""
    if instance.objective.kind != "concave":
        raise ValueError(f"expected a concave instance, got {instance.objective.kind!r}")
    prob = instance.objective.concave
    if prob is None:
        raise ValueError("concave instance lacks ConcaveProblem data")
    _validate_tables(instance, prob, prob.grid)
    return _relaxation_lp(instance, prob.grid)


# ---------------------------------------------------------------------------
# Solutions and single-arm policies


@dataclass
class RelaxationSolution:
    """Cleaned per-state LP values plus the LP objective gamma*.

    x maps each state to its exploit masses at the levels 0..L of its weight
    grid; a plain solution (grid None) is the one-level grid (0.0, x_u).
    """

    gamma_star: float
    w: dict[tuple[str, str], float]
    x: dict[tuple[str, str], tuple[float, ...]]
    z: dict[tuple[str, str], float]
    grid: int | None = None
    pivots: int = 0  # the solver's work, copied from LPSolutionRaw
    bland_pivots: int = 0

    @classmethod
    def from_raw(
        cls,
        instance: BanditInstance,
        raw: LPSolutionRaw,
        grid: int | None = None,
    ) -> "RelaxationSolution":
        """Clamp and rescale an optimal LP point into executable thresholds.

        Variables are clamped into [0, w_u]; if z + exploit mass overshoots
        w_u by at most 1e-6 the state's values are rescaled proportionally; a
        larger overshoot means the point was not feasible and is rejected.  A
        variable missing from the point (a grid that does not match the LP)
        is rejected too.
        """
        if raw.status != "optimal":
            raise ValueError(f"cannot extract a policy from a {raw.status} LP solution")

        def value(name: str) -> float:
            try:
                return raw.values[name]
            except KeyError:
                raise ValueError(f"the LP solution has no variable {name!r}; does the grid match the LP?") from None

        w: dict[tuple[str, str], float] = {}
        x: dict[tuple[str, str], tuple[float, ...]] = {}
        z: dict[tuple[str, str], float] = {}
        for arm in instance.arms:
            for sid in arm.topo_order():
                key = (arm.arm_id, sid)
                wv = 1.0 if sid == arm.root else value(var_name("w", *key))
                wv = min(max(wv, 0.0), 1.0)
                zv = min(max(value(var_name("z", *key)), 0.0), wv)
                levels = _exploit_vars(arm, sid, grid)
                masses = [0.0] * (levels[-1][0] + 1)  # levels 0..L; plain has no level-0 variable
                for l, name in levels:
                    masses[l] = min(max(value(name), 0.0), wv)
                total = zv + sum(masses)
                if total > wv:
                    if total - wv > CLEANUP_SLACK:
                        raise ValueError(f"x+z exceeds w at {key} by {total - wv:.3g}")
                    scale = wv / total
                    zv *= scale
                    masses = [m * scale for m in masses]
                w[key] = wv
                x[key] = tuple(masses)
                z[key] = zv
        return cls(
            gamma_star=float(raw.objective_value),
            w=w,
            x=x,
            z=z,
            grid=grid,
            pivots=raw.pivots,
            bland_pivots=raw.bland_pivots,
        )

    def check_invariants(self, instance: BanditInstance, tol: float = 1e-6) -> list[str]:
        """Flow/disjointness violations beyond tol (empty for a clean solution)."""
        out: list[str] = []
        for arm in instance.arms:
            order = arm.topo_order()
            parents = _parents(arm, order)
            for sid in order:
                key = (arm.arm_id, sid)
                if self.z[key] + sum(self.x[key]) > self.w[key] + tol:
                    out.append(f"x+z > w at {key}")
                if sid == arm.root:
                    if self.w[key] != 1.0:
                        out.append(f"w at root {key} is {self.w[key]}, not 1")
                else:
                    inflow = sum(self.z[(arm.arm_id, p)] * prob for p, prob in parents[sid])
                    if abs(self.w[key] - inflow) > tol:
                        out.append(f"flow violated at {key} by {abs(self.w[key] - inflow):.3g}")
        return out


def build_relaxation(instance: BanditInstance) -> tuple[LinearProgram, int | None]:
    """The variant LP for the instance and its concave grid size (None otherwise)."""
    kind = instance.objective.kind
    if kind == "budgeted":
        return build_budgeted_lp(instance), None
    if kind == "lagrangean":
        return build_lagrangean_lp(instance), None
    if kind == "concave":
        return build_concave_lp(instance), instance.objective.concave.grid
    raise ValueError(f"unknown objective kind {kind!r}")


def solve_relaxation(instance: BanditInstance) -> RelaxationSolution:
    """Build the variant LP for the instance, solve it, and clean the optimum."""
    lp, grid = build_relaxation(instance)
    raw = solve_lp(lp)
    if raw.status != "optimal":
        raise ValueError(f"relaxation LP is {raw.status}")
    return RelaxationSolution.from_raw(instance, raw, grid)


@dataclass(frozen=True)
class SingleArmPolicy:
    """One arm's randomized stopping policy, summarized by its statistics.

    The policy itself is the solution's thresholds at the arm's states: draw
    q uniformly in [0, w]; play if q <= z, else exploit at the level whose
    mass q falls in, else stop dead (see `policies._Step`).
    """

    arm_id: str
    explore_prob: float  # P(phi): expected exploit weight E[l]/L (the exploit probability when plain)
    reward: float  # R(phi): expected exploit value E[zeta(l)]
    cost: float  # C(phi): expected switch + play cost


def extract_single_arm_policies(
    solution: RelaxationSolution, instance: BanditInstance
) -> list[SingleArmPolicy]:
    """One randomized stopping policy per arm, in instance order."""
    out: list[SingleArmPolicy] = []
    for arm in instance.arms:
        p = r = c = 0.0
        for sid in arm.topo_order():
            key = (arm.arm_id, sid)
            masses = solution.x[key]
            levels = _exploit_levels(instance, arm, sid, solution.grid)
            p += sum(l * masses[l] for l, _, _ in levels) / (len(masses) - 1)
            r += sum(masses[l] * value for l, _, value in levels)
            c += arm.play_charge(sid) * solution.z[key]
        out.append(SingleArmPolicy(arm_id=arm.arm_id, explore_prob=p, reward=r, cost=c))
    return out
