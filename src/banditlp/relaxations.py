"""LP relaxations of exploration policies and their single-arm decompositions.

Three relaxations share one variable scheme per arm state u: w_u is the
probability the state is ever reached, z_u the probability the arm is played
there, and x_{u,l} the probability the arm is exploited there at weight level
l of the grid {0..L}/L.  The concave relaxation has the whole grid; the
budgeted and Lagrangean ones are the one-level grid L = 1 (exploit or not),
whose only variable x_u is level 1 and whose level 0, a dead stop, carries no
mass.  `_exploit_vars` and `_arm_levels` (the same levels with their
values) tell the two apart, with the pricing (`_ArmStates`); a solution
stores every state's masses at levels 0..L, (0.0, x_u) when plain.
The optimal LP solution decomposes into one randomized single-arm policy per
arm; its statistics (exploit probability P, exploit reward R, exploration
cost C) drive the greedy rounding in `policies`.

w at each root is pinned to 1 (not exploring and not exploiting is always
allowed by x + z <= w, so nothing is lost) and z is pinned to 0 at leaves
(a leaf has no play to make), which keeps the extracted uniform-draw
thresholds well defined.

`build_relaxation` writes each relaxation as a `LinearProgram` (for
`--dump-lp`, HiGHS and the feasibility checks; `solve_lp` and `from_raw` are
the tableau reference path).  `solve_relaxation` never builds it: the LP is n
single-arm flow polytopes coupled by the linking row and, unless Lagrangean,
the cost row <= B, so it solves the Lagrangean dual

    g(lambda, mu) = lambda * B + mu * rhs + sum_i V_i(root_i),
    V_u = max(0, max_l zeta_u(l) - mu * link_l, -lambda' * c_u + sum p * V_child)

where link_l is sigma_i * l (1 when plain), rhs the linking row's right-hand
side, and lambda' = lambda, or 1 + lambda for Lagrangean plays, which pay c_u
itself (a leaf never plays).  Its minimum is gamma*.

* Pricing: one backward DP per arm gives the best deterministic policy at
  (lambda, mu), and one forward pass its occupancies (w, z, x) and totals
  R (the LP objective), C (cost) and P (link usage).
* Master: max sum theta_k R_k s.t. sum theta_k <= 1, sum theta_k C_k <= B,
  sum theta_k P_k <= rhs over the priced policies, the cuts (Kelley's cutting
  planes on g, which is Dantzig-Wolfe column generation with an aggregated
  master).  Every variant's master has these three rows; the Lagrangean's
  budget row is empty (B = 0, every C_k = 0), so its lambda stays 0.
  `_Master` is a revised simplex, created once per solve: each cut appends
  one column and re-optimises from the last optimal basis, which stays
  primal feasible, so a cut costs a pivot or two on a 3x3 basis inverse.
  Doing nothing is the slack of the first row, and a budget or capacity
  below 0 is rejected before the first cut, so the slack basis is feasible
  and the master has no phase 1.  Its row duals pi = c_B B^-1 are the next
  (lambda, mu).
* Stop and recover: once g(lambda, mu) - master <= GAP_TOL * (1 + |master|),
  the master's optimum is gamma* and the mixture sum theta_k occupancy_k an
  optimal LP point, written into `RelaxationSolution` by compiled index.
  Only the states that a cut with theta_k > 0 reached are cleaned; the rest
  are 0.  The final gap is the solution's certificate, `duality_gap`.

The data rules live in `statespace`: a solve raises the first of
`objective_diagnostics` (the kind and the budget), then of
`concave_diagnostics` on a concave instance, and an arm's ids and numbers are
refused when it compiles (`_compile_faults`); `validate_instance` reports
every one of them with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import mul
from typing import NamedTuple

# solve_lp is not called here; it stays importable from this module because
# pipebench's tracer wraps it here by name, with the builders and from_raw
from .lp import (  # noqa: F401
    _DEGENERATE_STREAK,
    _OPT_EPS,
    _PIVOT_EPS,
    _TIE_EPS,
    LinearConstraint,
    LinearProgram,
    LPSolutionRaw,
    LPSolverError,
    solve_lp,
)
from .statespace import ArmStateSpace, BanditInstance, CompiledArm, concave_diagnostics, objective_diagnostics

# A solution's cleanup rescales a state's x + z down to its w when they exceed
# it by at most CLEANUP_SLACK (more is an error).  The decomposition stops once
# g(lambda, mu) - gamma* is at most GAP_TOL * (1 + |gamma*|), and raises
# LPSolverError past CUT_LIMIT cuts.
CLEANUP_SLACK = 1e-6
GAP_TOL = 1e-9
CUT_LIMIT = 100


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


def _arm_levels(
    instance: BanditInstance, arm: ArmStateSpace, grid: int | None
) -> list[tuple[tuple[int, float], ...]]:
    """Each state's exploit levels as (level l, value zeta(l)), in the arm's
    topological order and each in the order of `_exploit_vars`: the state's
    reward at level 1 when plain, the value table's entry l on the concave
    grid."""
    ca = arm.compiled()
    if grid is None:
        return [((1, r),) for r in ca.rewards]
    tables = instance.objective.concave.value_tables[arm.arm_id]
    return [tuple(enumerate(tables[sid])) for sid in ca.sids]


def _checked_grid(instance: BanditInstance) -> int | None:
    """Validate the instance for its relaxation and return its weight grid
    size (None: plain).  Raises the first of `objective_diagnostics`, then,
    once per (ConcaveProblem, arms tuple), the first of
    `concave_diagnostics`; an arm's ids and numbers are checked when it
    compiles."""
    bad = objective_diagnostics(instance)
    if bad:
        raise ValueError(bad[0].message)
    if instance.objective.kind != "concave":
        return None
    prob = instance.objective.concave
    if prob is None or prob.__dict__.get("_checked_arms") is not instance.arms:
        diags = concave_diagnostics(instance)
        if diags:
            raise ValueError(diags[0].message)
        prob.__dict__["_checked_arms"] = instance.arms  # the problem is frozen; this is a cache
    return prob.grid


def _link_rhs(instance: BanditInstance, grid: int | None) -> float:
    """The linking row's right-hand side: unit exploit mass when plain,
    B * L * (1 + eps) weight units on the concave grid."""
    if grid is None:
        return 1.0
    prob = instance.objective.concave
    return prob.capacity * grid * (1.0 + prob.epsilon)


def _relaxation_lp(instance: BanditInstance, kind: str) -> LinearProgram:
    """The relaxation of the instance's kind, which must be the builder's
    kind, on its weight grid.

    Rows: the cost row (except for lagrangean plays, which pay charge * z in
    the objective), one linking row (exploit-mass sum x <= 1 on the one-level
    grid, weight-packing sum sigma * l * x <= B * L * (1 + eps) on the concave
    grid), then per arm its flow and cap rows.  Only the bounds that can bind
    are declared (root w = 1, leaf z = 0); the flow and cap rows keep every
    other w, z and x within [0, 1].
    """
    if instance.objective.kind != kind:
        raise ValueError(f"expected a {kind} instance, got {instance.objective.kind!r}")
    grid = _checked_grid(instance)
    prob = instance.objective.concave
    lp_vars: list[tuple[str, float, float]] = []
    core: list[LinearConstraint] = []
    cost: dict[str, float] = {}
    link: dict[str, float] = {}
    objective: dict[str, float] = {}
    for arm in instance.arms:
        sigma = 1.0 if grid is None else prob.sigmas[arm.arm_id]
        order = arm.topo_order()
        flows = {sid: {var_name("w", arm.arm_id, sid): 1.0} for sid in order[1:]}  # filled by the parents
        caps = []
        for sid, levels in zip(order, _arm_levels(instance, arm, grid)):
            st = arm.states[sid]
            w, z = var_name("w", arm.arm_id, sid), var_name("z", arm.arm_id, sid)
            lp_vars.append((w, 1.0, 1.0) if sid == arm.root else (w, 0.0, math.inf))
            lp_vars.append((z, 0.0, 0.0 if st.is_leaf else math.inf))
            cap = {z: 1.0, w: -1.0}
            for (l, name), (_, value) in zip(_exploit_vars(arm, sid, grid), levels):
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
            for child, p in st.transitions:
                if child in flows and p != 0.0:
                    flows[child][z] = flows[child].get(z, 0.0) - p
            if sid != arm.root:
                core.append(LinearConstraint(flows[sid], "==", 0.0, name=f"flow|{arm.arm_id}|{sid}"))
        core += caps
    rows = [] if kind == "lagrangean" else [LinearConstraint(cost, "<=", float(instance.budget), name="cost")]
    link_name = "exploit-mass" if grid is None else "weight-packing"
    rows.append(LinearConstraint(link, "<=", _link_rhs(instance, grid), name=link_name))
    return LinearProgram(lp_vars, rows + core, objective)


def build_budgeted_lp(instance: BanditInstance) -> LinearProgram:
    """Relaxation with the exploration-cost budget row and unit exploit mass."""
    return _relaxation_lp(instance, "budgeted")


def build_lagrangean_lp(instance: BanditInstance) -> LinearProgram:
    """Profit relaxation: exploit reward minus play and switch cost, no budget."""
    return _relaxation_lp(instance, "lagrangean")


def build_concave_lp(instance: BanditInstance) -> LinearProgram:
    """Discretized concave-utility relaxation over the weight grid {0..L}/L."""
    return _relaxation_lp(instance, "concave")


# ---------------------------------------------------------------------------
# Solutions and single-arm policies


def _clean_state(
    key: tuple[str, str], wv: float, zv: float, masses: list[float]
) -> tuple[float, tuple[float, ...]]:
    """Clamp z and the exploit masses into [0, w]; if their sum overshoots w
    by at most CLEANUP_SLACK, rescale them proportionally (more is an error)."""
    zv = min(max(zv, 0.0), wv)
    masses = [min(max(m, 0.0), wv) for m in masses]
    total = zv + sum(masses)
    if total > wv:
        if total - wv > CLEANUP_SLACK:
            raise ValueError(f"x+z exceeds w at {key} by {total - wv:.3g}")
        scale = wv / total
        zv *= scale
        masses = [m * scale for m in masses]
    return zv, tuple(masses)


class ArmValues(NamedTuple):
    """One arm's values in a solution, by the index u of the compiled arm
    `ca`: w_u, z_u and the exploit masses x_u at the levels 0..L."""

    ca: CompiledArm
    w: list[float]
    z: list[float]
    x: list[tuple[float, ...]]


class _ByKey:
    """A solution's w, x or z by (arm id, state id): as a hand-built solution
    was given it, else (given as None) read off the per-arm values on first
    use."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, solution, owner=None):
        if solution is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        if solution.__dict__[self.name] is None:
            arms = solution.__dict__.get("_arms", {}).values()
            solution.__dict__[self.name] = {k: v for a in arms for k, v in zip(a.ca.keys, getattr(a, self.name))}
        return solution.__dict__[self.name]

    def __set__(self, solution, value) -> None:
        solution.__dict__[self.name] = value


@dataclass
class RelaxationSolution:
    """Cleaned per-state LP values plus the LP objective gamma*.

    The values are kept per arm by compiled index (`arm_values`, outside the
    dataclass fields), as the solve writes them; w, x and z by (arm, state)
    are read off them on first use, or given by hand and read into them
    once per arm.  x holds each state's exploit masses at levels 0..L,
    (0.0, x_u) when plain.  Every reader (`check_invariants`, `lp_values`,
    the extraction, the evaluators and their step tables, `policies._tables`)
    reads the per-arm form, so the keyed dicts of a solved solution are
    read-only snapshots: an edit in place is not seen.  Change the values
    through a copy made with `dataclasses.replace`; copies and pickles keep
    the fields only (a compiled arm does not pickle).
    """

    gamma_star: float
    w: dict[tuple[str, str], float] = _ByKey("w")  # no default: __get__ raises on the class
    x: dict[tuple[str, str], tuple[float, ...]] = _ByKey("x")
    z: dict[tuple[str, str], float] = _ByKey("z")
    grid: int | None = None
    cuts: int = 0  # policies the decomposition priced into its master
    duality_gap: float | None = None  # g(lambda, mu) - gamma*; None when read from a tableau point
    master_pivots: int = 0  # the master's pivots over the solve
    master_bland_pivots: int = 0  # those whose entering column Bland's rule chose

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def arm_values(self, arm: ArmStateSpace) -> ArmValues:
        """The arm's values by its compiled index; read from w, x and z when
        the solve did not write them for this arm object."""
        ca = arm.compiled()
        kept: dict[str, ArmValues] = self.__dict__.setdefault("_arms", {})
        got = kept.get(arm.arm_id)
        if got is None or got.ca is not ca:
            w, x, z = self.w, self.x, self.z
            got = kept[arm.arm_id] = ArmValues(
                ca, [w[k] for k in ca.keys], [z[k] for k in ca.keys], [x[k] for k in ca.keys])
        return got

    @classmethod
    def from_raw(
        cls,
        instance: BanditInstance,
        raw: LPSolutionRaw,
        grid: int | None = None,
    ) -> "RelaxationSolution":
        """Clamp and rescale an optimal tableau point into executable thresholds.

        This reads a `solve_lp` optimum of `build_relaxation`'s LP, the
        reference path; `solve_relaxation` writes its solution directly.
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
                wv = 1.0 if sid == arm.root else min(max(value(var_name("w", *key)), 0.0), 1.0)
                levels = _exploit_vars(arm, sid, grid)
                masses = [0.0] * (levels[-1][0] + 1)  # levels 0..L; plain has no level-0 variable
                for l, name in levels:
                    masses[l] = value(name)
                w[key] = wv
                z[key], x[key] = _clean_state(key, wv, value(var_name("z", *key)), masses)
        return cls(gamma_star=float(raw.objective_value), w=w, x=x, z=z, grid=grid)

    def lp_values(self, instance: BanditInstance) -> dict[str, float]:
        """The solution as values of the variables of `build_relaxation`'s LP."""
        out: dict[str, float] = {}
        for arm in instance.arms:
            ca, w, z, x = self.arm_values(arm)
            for u, sid in enumerate(ca.sids):
                out[var_name("w", arm.arm_id, sid)], out[var_name("z", arm.arm_id, sid)] = w[u], z[u]
                for l, name in _exploit_vars(arm, sid, self.grid):
                    out[name] = x[u][l]
        return out

    def check_invariants(self, instance: BanditInstance, tol: float = 1e-6) -> list[str]:
        """Flow/disjointness violations beyond tol (empty for a clean solution)."""
        out: list[str] = []
        for arm in instance.arms:
            ca, w, z, x = self.arm_values(arm)
            inflow = [0.0] * len(w)
            for u, kids in enumerate(ca.kids):
                for c, p in kids:
                    inflow[c] += z[u] * p
            for u, key in enumerate(ca.keys):
                if z[u] + sum(x[u]) > w[u] + tol:
                    out.append(f"x+z > w at {key}")
                if u == 0 and w[0] != 1.0:
                    out.append(f"w at root {key} is {w[0]}, not 1")
                elif u and abs(w[u] - inflow[u]) > tol:
                    out.append(f"flow violated at {key} by {abs(w[u] - inflow[u]):.3g}")
        return out


def build_relaxation(instance: BanditInstance) -> tuple[LinearProgram, int | None]:
    """The variant LP for the instance and its concave grid size (None otherwise)."""
    grid = _checked_grid(instance)  # refuses an unknown kind
    build = {"budgeted": build_budgeted_lp, "lagrangean": build_lagrangean_lp, "concave": build_concave_lp}
    return build[instance.objective.kind](instance), grid


# ---------------------------------------------------------------------------
# The Lagrangean-dual decomposition

_STOP, _PLAY = -1, -2  # pricing actions; an exploit is the index of its option


class _ArmStates:
    """Every arm's states for pricing: its compiled arm's charges, children
    (a leaf has none and never plays) and rewards, in topological order, so
    a backward sweep is the DP and a forward one the flow.  The exploit
    options are (zeta(l), link sigma * l) at the levels l = first_level,
    ...: `options[i][u]` from level 0 on the concave grid; when plain
    (`options[i]` None) one, (reward, 1) at level 1.  The pricing skips a
    root's options when its exploit is forbidden.
    """

    def __init__(self, instance: BanditInstance, grid: int | None, exploit_at_roots: bool):
        self.first_level = 1 if grid is None else 0
        self.ids = [arm.arm_id for arm in instance.arms]
        self.compiled = [arm.compiled() for arm in instance.arms]
        self.roots = exploit_at_roots
        self.options: list[list | None] = []
        for arm in instance.arms:
            options = None
            if grid is not None:
                sigma = instance.objective.concave.sigmas[arm.arm_id]
                options = [tuple([(v, sigma * l) for l, v in levels]) for levels in _arm_levels(instance, arm, grid)]
            self.options.append(options)

    def price(self, cost_w: float, link_w: float) -> tuple[list[list[int]], float]:
        """Each arm's best action per state at the weights, and sum_i V_i(root).

        V_u = max(0, zeta(l) - link_w * link_l over the options,
        -cost_w * charge + sum p * V_child); ties keep the earlier of stop,
        the options in level order, play.  A plain option's value is
        reward - link_w, its link being 1.
        """
        acts = []
        roots = []
        stop, play, at_roots = _STOP, _PLAY, self.roots
        for ca, options in zip(self.compiled, self.options):
            charges, kids, rewards = ca.charges, ca.kids, ca.rewards
            value = [0.0] * len(kids)
            act = [stop] * len(kids)
            for u in range(len(kids) - 1, -1, -1):
                best, a = 0.0, stop
                if options is None:
                    v = rewards[u] - link_w
                    if v > 0.0 and (u or at_roots):
                        best, a = v, 0
                elif u or at_roots:
                    for k, (zeta, link) in enumerate(options[u]):
                        v = zeta - link_w * link
                        if v > best:
                            best, a = v, k
                ks = kids[u]
                if ks:
                    v = -cost_w * charges[u]
                    for c, p in ks:
                        v += p * value[c]
                    if v > best:
                        best, a = v, play
                value[u] = best
                act[u] = a
            acts.append(act)
            roots.append(value[0])
        return acts, sum(roots)

    def occupancy(
        self, acts: list[list[int]], play_w: float
    ) -> tuple[list[tuple[int, int, float]], float, float, float]:
        """The deterministic policy's reached states as (arm i, state u, w_u)
        and its totals R (exploit value minus play_w times the cost), C (play
        cost) and P (link usage)."""
        reached = []
        reward = cost = link = 0.0
        for i, (ca, options, act) in enumerate(zip(self.compiled, self.options, acts)):
            w = [0.0] * len(act)
            w[0] = 1.0
            for u, wu in enumerate(w):
                if wu == 0.0:
                    continue
                reached.append((i, u, wu))
                a = act[u]
                if a == _PLAY:
                    cost += wu * ca.charges[u]
                    for c, p in ca.kids[u]:
                        w[c] += p * wu
                elif a != _STOP:
                    zeta, coef = (ca.rewards[u], 1.0) if options is None else options[u][a]
                    reward += wu * zeta
                    link += wu * coef
        return reached, reward - play_w * cost, cost, link


class _Master:
    """The decomposition's master, max sum_k theta_k R_k s.t. sum_k theta_k
    a_k <= b, theta >= 0, by a revised simplex whose basis is kept from one
    cut to the next.

    Every b_i is non-negative (`solve_relaxation` rejects the rest), so the
    slack basis is feasible and the master needs no phase 1.  B^-1 is 3 x 3
    plain floats, updated by each pivot's elimination with the entering
    column d = B^-1 a_j.  The pivot rules are `lp._simplex`'s, with its
    tolerances: Dantzig's entering rule, ties to the lowest column, the
    smallest basic index leaving on a ratio tie, and Bland's rule after
    `_DEGENERATE_STREAK` degenerate pivots until the objective moves again.
    Columns rank as in its tableau: the cuts in the order they came, then
    the slacks by row.  A basis entry is a cut's index k, or -1 - i for row
    i's slack, so (entry < 0, |entry|) is the rank.

    A pass costs its arithmetic: pi, the cuts' reduced costs and the
    entering column are dot products written out as
    0 + a_0 b_0 + a_1 b_1 + a_2 b_2, and a slack is priced and entered by
    reading pi and B^-1 at its row.  An empty row (b_i and every cut's entry
    0: the Lagrangean's budget row) never passes a ratio test, so its row of
    B^-1 stays e_i, its slack stays basic at 0 and its dual at 0, and its
    terms in every other dot product add zeros: the master pivots, bit for
    bit, as on the other rows alone, whose slacks keep their ranks.  Every
    sum here, the value included, adds left to right from 0: the same bits
    on every Python version, and the bits of `sum`, which adds floats that
    way up to Python 3.11 (3.12 compensates its rounding).
    """

    def __init__(self, rhs: list[float]):
        m = len(rhs)
        self.rhs = rhs
        self.cuts: list[tuple[float, ...]] = []  # cut k's column
        self.rewards: list[float] = []  # and its R_k
        self.basis = [-1 - i for i in range(m)]
        self.inv = [[1.0 if k == i else 0.0 for k in range(m)] for i in range(m)]
        self.x = [abs(b) for b in rhs]  # the basic values, B^-1 b; a b of -0.0 starts at 0.0
        self.duals = [0.0] * m  # pi = c_B B^-1 at the last optimum, clamped at 0
        self.pivots = self.bland_pivots = 0

    def add_cut(self, column: tuple[float, ...], reward: float) -> None:
        """Append a cut's column and re-optimise from the current basis,
        which stays primal feasible."""
        self.cuts.append(column)
        self.rewards.append(reward)
        self._optimise()
        self.duals = [max(v, 0.0) for v in self.duals]

    @property
    def theta(self) -> list[float]:
        """The weight of every cut, read from the basic ones."""
        theta = [0.0] * len(self.cuts)
        for j, v in zip(self.basis, self.x):
            if j >= 0:
                theta[j] = max(v, 0.0)
        return theta

    @property
    def value(self) -> float:
        """sum_k theta_k R_k, added left to right."""
        value = 0.0
        for t, r in zip(self.theta, self.rewards):
            value += t * r
        return value

    def _column(self, j: int) -> list[float]:
        """d = B^-1 a_j for the basis entry j.  For a slack, e_i, it is
        column i of B^-1: the dot product's other terms are zeros, which
        change only the sign of a zero d_r, and no pivot reads that."""
        inv = self.inv
        if j < 0:
            return [row[-1 - j] for row in inv]
        a0, a1, a2 = self.cuts[j]
        return [0.0 + r0 * a0 + r1 * a1 + r2 * a2 for r0, r1, r2 in inv]

    def _optimise(self) -> None:
        """Pivot to the optimum: a cut is priced at its reward, a slack at 0."""
        x, basis, inv, cuts, rewards = self.x, self.basis, self.inv, self.cuts, self.rewards
        degenerate, bland = 0, False
        while True:
            (c0, c1, c2), (r0, r1, r2) = [rewards[j] if j >= 0 else 0.0 for j in basis], inv
            p0 = 0.0 + c0 * r0[0] + c1 * r1[0] + c2 * r2[0]
            p1 = 0.0 + c0 * r0[1] + c1 * r1[1] + c2 * r2[1]
            p2 = 0.0 + c0 * r0[2] + c1 * r1[2] + c2 * r2[2]
            pi = [p0, p1, p2]
            # Dantzig's rule over the cuts, then the slacks (reduced cost
            # -pi_i); Bland's takes the first
            enter, best = None, _OPT_EPS
            for k, (c, (a0, a1, a2)) in enumerate(zip(rewards, cuts)):
                reduced = c - (0.0 + p0 * a0 + p1 * a1 + p2 * a2)
                if reduced > best:
                    enter, best = k, reduced
                    if bland:
                        break
            if enter is None or not bland:
                for i, p in enumerate(pi):
                    if -p > best:
                        enter, best = -1 - i, -p
                        if bland:
                            break
            if enter is None:
                self.duals = pi
                return
            d = self._column(enter)
            leave, step = None, 0.0
            for r, v in enumerate(d):
                if v > _PIVOT_EPS and (leave is None or x[r] / v < step):
                    leave, step = r, x[r] / v
            if leave is None:
                raise LPSolverError("the decomposition's master is unbounded")
            ties = [r for r, v in enumerate(d) if v > _PIVOT_EPS and x[r] / v <= step + _TIE_EPS]
            if len(ties) > 1:
                leave = min(ties, key=lambda r: (basis[r] < 0, abs(basis[r])))
            if bland:
                self.bland_pivots += 1
            if step <= _PIVOT_EPS:
                degenerate += 1
                bland = bland or degenerate >= _DEGENERATE_STREAK
            else:
                degenerate, bland = 0, False
            self._pivot(leave, enter, d)

    def _pivot(self, r: int, j: int, d: list[float]) -> None:
        """Column j, whose B^-1 a_j is d, enters in row r."""
        inv, x = self.inv, self.x
        inv[r] = row = [v / d[r] for v in inv[r]]
        x[r] = xr = x[r] / d[r]
        for i, f in enumerate(d):
            if i != r and f != 0.0:
                inv[i] = [a - f * b for a, b in zip(inv[i], row)]
                x[i] -= f * xr
        self.basis[r] = j
        self.pivots += 1


def solve_relaxation(instance: BanditInstance, exploit_at_roots: bool = True) -> RelaxationSolution:
    """The instance's relaxation, solved by Kelley's cutting planes on g.

    Each round prices one product policy at the master's duals, the next
    (lambda, mu), and adds it as a cut (a column (1, C, P) of the master;
    C is 0 when Lagrangean, whose budget row is empty) until
    g(lambda, mu) - gamma* <= GAP_TOL * (1 + |gamma*|); the solution is the
    master's mixture of the cuts' occupancies.  `exploit_at_roots=False`
    drops the roots' exploit options from the pricing, which is the
    relaxation with root x fixed at 0 (`policies.nonadaptive_two_level`).

    Raises ValueError before the first cut on what `_checked_grid` refuses
    (a budget below 0 among it) and when the concave packing capacity
    B * L * (1 + eps) is negative, since the master has no phase 1, and
    LPSolverError when the gap is still open after CUT_LIMIT cuts.
    """
    grid = _checked_grid(instance)
    lagrangean = instance.objective.kind == "lagrangean"
    rhs = [1.0, 0.0 if lagrangean else float(instance.budget), _link_rhs(instance, grid)]
    if min(rhs) < 0.0:
        raise ValueError(f"relaxation needs a non-negative budget and capacity, got right-hand sides {rhs[1:]}")
    arms = _ArmStates(instance, grid, exploit_at_roots)
    play_w = 1.0 if lagrangean else 0.0  # lagrangean plays pay their charge in the objective
    cuts: list[tuple[list[list[int]], list[tuple[int, int, float]], float]] = []  # (actions, reached, R)
    master = _Master(rhs)
    gap = math.inf
    while True:
        duals = master.duals  # (pi_0, lambda, mu); lambda is 0 when lagrangean
        act, roots_value = arms.price(play_w + duals[1], duals[2])
        if cuts:
            gamma = master.value
            gap = sum(map(mul, duals[1:], rhs[1:])) + roots_value - gamma
            if gap <= GAP_TOL * (1.0 + abs(gamma)):
                break
        if len(cuts) >= CUT_LIMIT:
            raise LPSolverError(f"decomposition gap {gap:.3g} still open after {CUT_LIMIT} cuts")
        reached, reward, cost, link = arms.occupancy(act, play_w)
        cuts.append((act, reached, reward))
        master.add_cut((1.0, 0.0 if lagrangean else cost, link), reward)
    return _recover(arms, cuts, master, grid, gap)


def _recover(
    arms: _ArmStates,
    cuts: list[tuple[list[list[int]], list[tuple[int, int, float]], float]],
    master: _Master,
    grid: int | None,
    gap: float,
) -> RelaxationSolution:
    """The mixture sum_k theta_k * occupancy_k of the cuts, cleaned state by
    state; the rest of the mass does nothing.

    Only the states that some cut with theta > 0 reached carry mass and are
    cleaned; every other one is w = z = 0 with the one zero tuple of exploit
    masses, which is what cleaning its zeros gives.  A state's list of
    exploit masses is made when the first exploit lands there.  The values
    are written per arm by compiled index.
    """
    levels = (grid or 1) + 1  # levels 0..L
    first = arms.first_level
    w = [[0.0] * len(ca.sids) for ca in arms.compiled]
    z = [[0.0] * len(ca.sids) for ca in arms.compiled]
    x: list[list] = [[None] * len(ca.sids) for ca in arms.compiled]
    for (act, reached, _), t in zip(cuts, master.theta):
        if t == 0.0:
            continue
        for i, u, wu in reached:
            mass = t * wu
            w[i][u] += mass
            a = act[i][u]
            if a == _PLAY:
                z[i][u] += mass
            elif a != _STOP:
                masses = x[i][u]
                if masses is None:
                    x[i][u] = masses = [0.0] * levels
                masses[a + first] += mass
    zeros = (0.0,) * levels
    solution = RelaxationSolution(
        master.value, None, None, None, grid, cuts=len(cuts), duality_gap=gap,
        master_pivots=master.pivots, master_bland_pivots=master.bland_pivots,
    )
    kept = solution.__dict__["_arms"] = {}
    for arm_id, ca, wi, zi, xi in zip(arms.ids, arms.compiled, w, z, x):
        wi[0] = 1.0  # a root is reached with certainty, by cuts or by doing nothing
        for u, wv in enumerate(wi):
            if wv == 0.0:
                wi[u], zi[u], xi[u] = 0.0, 0.0, zeros
            else:
                wi[u] = wv = min(wv, 1.0)
                zi[u], xi[u] = _clean_state(ca.keys[u], wv, zi[u], zeros if xi[u] is None else xi[u])
        kept[arm_id] = ArmValues(ca, wi, zi, xi)
    return solution


@dataclass(frozen=True)
class SingleArmPolicy:
    """One arm's randomized stopping policy, summarized by its statistics.

    The policy itself is the solution's thresholds at the arm's states: draw
    q uniformly in [0, w]; play if q <= z, else exploit at the level whose
    mass q falls in, else stop dead (see `policies._ArmTable`).
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
        ca, _, z, x = solution.arm_values(arm)
        p = r = c = 0.0
        for charge, levels, masses, zv in zip(ca.charges, _arm_levels(instance, arm, solution.grid), x, z):
            p += sum(l * masses[l] for l, _ in levels) / (len(masses) - 1)
            r += sum(masses[l] * value for l, value in levels)
            c += charge * zv
        out.append(SingleArmPolicy(arm_id=arm.arm_id, explore_prob=p, reward=r, cost=c))
    return out
