"""LP relaxations of exploration policies and their single-arm decompositions.

Three relaxations share one variable scheme per arm state u: w_u is the
probability the state is ever reached, z_u the probability the arm is played
there, x_u (or the grid family x_{u,l}) the probability the arm is exploited
there.  The optimal LP solution decomposes into one randomized single-arm
policy per arm; its statistics (exploit probability P, exploit reward R,
exploration cost C) drive the greedy rounding in `policies`.

w at each root is pinned to 1 (not exploring and not exploiting is always
allowed by x + z <= w, so nothing is lost) and z is pinned to 0 at leaves
(a leaf has no play to make), which keeps the extracted uniform-draw
thresholds well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .lp import LinearConstraint, LinearProgram, LPSolutionRaw, solve_lp
from .statespace import ArmStateSpace, BanditInstance, ConcaveProblem, concave_grid_size

CLEANUP_SLACK = 1e-6


def var_name(kind: str, arm_id: str, state_id: str, level: int | None = None) -> str:
    base = f"{kind}|{arm_id}|{state_id}"
    return base if level is None else f"{base}|{level}"


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


def _core_rows(instance: BanditInstance, lp_vars, constraints, grid: int | None) -> None:
    """Variables plus flow and disjointness rows shared by all three LPs."""
    for arm in instance.arms:
        order = arm.topo_order()
        parents = _parents(arm, order)
        for sid in order:
            st = arm.states[sid]
            is_root = sid == arm.root
            lp_vars.append((var_name("w", arm.arm_id, sid), 1.0 if is_root else 0.0, 1.0))
            lp_vars.append((var_name("z", arm.arm_id, sid), 0.0, 0.0 if st.is_leaf else 1.0))
            if grid is None:
                lp_vars.append((var_name("x", arm.arm_id, sid), 0.0, 1.0))
            else:
                for l in range(grid + 1):
                    lp_vars.append((var_name("x", arm.arm_id, sid, l), 0.0, 1.0))
        for sid in order:
            if sid != arm.root:
                coeffs: dict[str, float] = {var_name("w", arm.arm_id, sid): 1.0}
                for parent, p in parents[sid]:
                    if p != 0.0:
                        name = var_name("z", arm.arm_id, parent)
                        coeffs[name] = coeffs.get(name, 0.0) - p
                constraints.append(
                    LinearConstraint(coeffs, "==", 0.0, name=f"flow|{arm.arm_id}|{sid}")
                )
        for sid in order:
            coeffs = {
                var_name("z", arm.arm_id, sid): 1.0,
                var_name("w", arm.arm_id, sid): -1.0,
            }
            if grid is None:
                coeffs[var_name("x", arm.arm_id, sid)] = 1.0
            else:
                for l in range(grid + 1):
                    coeffs[var_name("x", arm.arm_id, sid, l)] = 1.0
            constraints.append(LinearConstraint(coeffs, "<=", 0.0, name=f"cap|{arm.arm_id}|{sid}"))


def _cost_row(instance: BanditInstance) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    for arm in instance.arms:
        for sid in arm.topo_order():
            st = arm.states[sid]
            if st.is_leaf:
                continue
            c = st.play_cost + (arm.switch_cost if sid == arm.root else 0.0)
            if c != 0.0:
                coeffs[var_name("z", arm.arm_id, sid)] = c
    return coeffs


def build_budgeted_lp(instance: BanditInstance) -> LinearProgram:
    """Relaxation with the exploration-cost budget row and unit exploit mass."""
    if instance.objective.kind != "budgeted":
        raise ValueError(f"expected a budgeted instance, got {instance.objective.kind!r}")
    if instance.budget is None or not math.isfinite(instance.budget):
        raise ValueError("budgeted relaxation needs a finite budget")
    _check_ids(instance)

    lp_vars: list[tuple[str, float, float]] = []
    constraints: list[LinearConstraint] = []
    _core_rows(instance, lp_vars, constraints, grid=None)
    constraints.insert(0, LinearConstraint(_cost_row(instance), "<=", float(instance.budget), name="cost"))
    mass = {
        var_name("x", a.arm_id, sid): 1.0 for a in instance.arms for sid in a.topo_order()
    }
    constraints.insert(1, LinearConstraint(mass, "<=", 1.0, name="exploit-mass"))
    objective = {}
    for arm in instance.arms:
        for sid in arm.topo_order():
            r = arm.states[sid].reward
            if r != 0.0:
                objective[var_name("x", arm.arm_id, sid)] = r
    return LinearProgram(lp_vars, constraints, objective)


def build_lagrangean_lp(instance: BanditInstance) -> LinearProgram:
    """Profit relaxation: exploit reward minus play and switch cost, no budget."""
    if instance.objective.kind != "lagrangean":
        raise ValueError(f"expected a lagrangean instance, got {instance.objective.kind!r}")
    _check_ids(instance)

    lp_vars: list[tuple[str, float, float]] = []
    constraints: list[LinearConstraint] = []
    _core_rows(instance, lp_vars, constraints, grid=None)
    mass = {
        var_name("x", a.arm_id, sid): 1.0 for a in instance.arms for sid in a.topo_order()
    }
    constraints.insert(0, LinearConstraint(mass, "<=", 1.0, name="exploit-mass"))
    objective: dict[str, float] = {}
    for arm in instance.arms:
        for sid in arm.topo_order():
            st = arm.states[sid]
            if st.reward != 0.0:
                objective[var_name("x", arm.arm_id, sid)] = st.reward
            if not st.is_leaf:
                c = st.play_cost + (arm.switch_cost if sid == arm.root else 0.0)
                if c != 0.0:
                    objective[var_name("z", arm.arm_id, sid)] = -c
    return LinearProgram(lp_vars, constraints, objective)


def _validate_tables(instance: BanditInstance, prob: ConcaveProblem, grid: int) -> None:
    tol = 1e-9
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
            if zeta[0] < -tol:
                raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-negative")
            for l in range(grid):
                if zeta[l + 1] < zeta[l] - tol:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-decreasing")
            for l in range(1, grid):
                if zeta[l + 1] - 2 * zeta[l] + zeta[l - 1] > tol:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table fails concavity")
        for sid in order:
            st = arm.states[sid]
            if st.is_leaf:
                continue
            for l in range(grid + 1):
                mean = sum(p * tables[c][l] for c, p in st.transitions)
                if tables[sid][l] < mean - tol:
                    raise ValueError(
                        f"arm {arm.arm_id!r} state {sid!r}: value table fails the super-martingale check at l={l}"
                    )


def build_concave_lp(instance: BanditInstance, epsilon: float | None = None) -> LinearProgram:
    """Discretized concave-utility relaxation over the weight grid {0..L}/L."""
    if instance.objective.kind != "concave":
        raise ValueError(f"expected a concave instance, got {instance.objective.kind!r}")
    prob = instance.objective.concave
    if prob is None:
        raise ValueError("concave instance lacks ConcaveProblem data")
    if instance.budget is None or not math.isfinite(instance.budget):
        raise ValueError("concave relaxation needs a finite budget")
    _check_ids(instance)
    eps = prob.epsilon if epsilon is None else float(epsilon)
    grid = concave_grid_size(len(instance.arms), eps)
    _validate_tables(instance, prob, grid)

    lp_vars: list[tuple[str, float, float]] = []
    constraints: list[LinearConstraint] = []
    _core_rows(instance, lp_vars, constraints, grid=grid)
    constraints.insert(0, LinearConstraint(_cost_row(instance), "<=", float(instance.budget), name="cost"))
    packing: dict[str, float] = {}
    objective: dict[str, float] = {}
    for arm in instance.arms:
        sigma = prob.sigmas[arm.arm_id]
        for sid in arm.topo_order():
            zeta = prob.table(arm.arm_id, sid)
            for l in range(grid + 1):
                name = var_name("x", arm.arm_id, sid, l)
                if sigma * l != 0.0:
                    packing[name] = sigma * l
                if zeta[l] != 0.0:
                    objective[name] = zeta[l]
    constraints.insert(
        1,
        LinearConstraint(packing, "<=", prob.capacity * grid * (1.0 + eps), name="weight-packing"),
    )
    return LinearProgram(lp_vars, constraints, objective)


# ---------------------------------------------------------------------------
# Solutions and single-arm policies


@dataclass
class RelaxationSolution:
    """Cleaned per-state LP values plus the LP objective gamma*."""

    variant: str
    gamma_star: float
    w: dict[tuple[str, str], float]
    x: dict[tuple[str, str], float]
    z: dict[tuple[str, str], float]
    x_grid: dict[tuple[str, str], tuple[float, ...]]
    grid: int | None = None

    @classmethod
    def from_raw(
        cls,
        instance: BanditInstance,
        raw: LPSolutionRaw,
        variant: str,
        grid: int | None = None,
    ) -> "RelaxationSolution":
        """Clamp and rescale an optimal LP point into executable thresholds.

        Variables are clamped into [0, w_u]; if z + exploit mass overshoots
        w_u by at most 1e-6 the pair is rescaled proportionally; a larger
        overshoot means the point was not feasible and is rejected.
        """
        if raw.status != "optimal":
            raise ValueError(f"cannot extract a policy from a {raw.status} LP solution")
        w: dict[tuple[str, str], float] = {}
        x: dict[tuple[str, str], float] = {}
        z: dict[tuple[str, str], float] = {}
        xg: dict[tuple[str, str], tuple[float, ...]] = {}
        for arm in instance.arms:
            for sid in arm.topo_order():
                key = (arm.arm_id, sid)
                wv = 1.0 if sid == arm.root else raw.values.get(var_name("w", *key), 0.0)
                wv = min(max(wv, 0.0), 1.0)
                zv = min(max(raw.values.get(var_name("z", *key), 0.0), 0.0), wv)
                if grid is None:
                    xv = min(max(raw.values.get(var_name("x", *key), 0.0), 0.0), wv)
                    total = zv + xv
                    if total > wv:
                        if total - wv > CLEANUP_SLACK:
                            raise ValueError(f"x+z exceeds w at {key} by {total - wv:.3g}")
                        scale = wv / total
                        zv *= scale
                        xv *= scale
                    x[key] = xv
                else:
                    grid_vals = [
                        min(max(raw.values.get(var_name("x", key[0], key[1], l), 0.0), 0.0), wv)
                        for l in range(grid + 1)
                    ]
                    total = zv + sum(grid_vals)
                    if total > wv:
                        if total - wv > CLEANUP_SLACK:
                            raise ValueError(f"x+z exceeds w at {key} by {total - wv:.3g}")
                        scale = wv / total
                        zv *= scale
                        grid_vals = [g * scale for g in grid_vals]
                    xg[key] = tuple(grid_vals)
                w[key] = wv
                z[key] = zv
        return cls(
            variant=variant,
            gamma_star=float(raw.objective_value),
            w=w,
            x=x,
            z=z,
            x_grid=xg,
            grid=grid,
        )

    def check_invariants(self, instance: BanditInstance, tol: float = 1e-6) -> list[str]:
        """Flow/disjointness violations beyond tol (empty for a clean solution)."""
        out: list[str] = []
        for arm in instance.arms:
            order = arm.topo_order()
            parents = _parents(arm, order)
            for sid in order:
                key = (arm.arm_id, sid)
                mass = self.x.get(key, 0.0) + sum(self.x_grid.get(key, ()))
                if self.z[key] + mass > self.w[key] + tol:
                    out.append(f"x+z > w at {key}")
                if sid == arm.root:
                    if self.w[key] != 1.0:
                        out.append(f"w at root {key} is {self.w[key]}, not 1")
                else:
                    inflow = sum(self.z[(arm.arm_id, p)] * prob for p, prob in parents[sid])
                    if abs(self.w[key] - inflow) > tol:
                        out.append(f"flow violated at {key} by {abs(self.w[key] - inflow):.3g}")
        return out


def build_relaxation(instance: BanditInstance, epsilon: float | None = None) -> tuple[LinearProgram, int | None]:
    """The variant LP for the instance and its concave grid size (None otherwise)."""
    kind = instance.objective.kind
    if kind == "budgeted":
        return build_budgeted_lp(instance), None
    if kind == "lagrangean":
        return build_lagrangean_lp(instance), None
    if kind == "concave":
        lp = build_concave_lp(instance, epsilon)
        eps = instance.objective.concave.epsilon if epsilon is None else epsilon
        return lp, concave_grid_size(len(instance.arms), eps)
    raise ValueError(f"unknown objective kind {kind!r}")


def solve_relaxation(
    instance: BanditInstance, epsilon: float | None = None, tol: float | None = None
) -> RelaxationSolution:
    """Build the variant LP for the instance, solve it, and clean the optimum."""
    lp, grid = build_relaxation(instance, epsilon)
    raw = solve_lp(lp, tol)
    if raw.status != "optimal":
        raise ValueError(f"relaxation LP is {raw.status}")
    return RelaxationSolution.from_raw(instance, raw, instance.objective.kind, grid)


@dataclass(frozen=True)
class StatePolicy:
    """Uniform-draw thresholds at one state: draw q in [0,w]; play if q <= z,
    exploit if q <= z + exploit mass, otherwise stop dead."""

    w: float
    z: float
    x: float = 0.0
    x_grid: tuple[float, ...] | None = None

    @property
    def exploit_mass(self) -> float:
        return self.x if self.x_grid is None else sum(self.x_grid)


@dataclass(frozen=True)
class SingleArmPolicy:
    """One arm's randomized stopping policy plus its summary statistics."""

    arm_id: str
    states: Mapping[str, StatePolicy]
    explore_prob: float  # P(phi): exploit probability (expected weight for concave)
    reward: float  # R(phi): expected exploit reward/value
    cost: float  # C(phi): expected switch + play cost

    def recompute_stats(self, arm: ArmStateSpace, grid: int | None, concave: ConcaveProblem | None):
        """Recompute (P, R, C) from the thresholds; used by invariant tests."""
        p = r = c = 0.0
        for sid, sp in self.states.items():
            st = arm.states[sid]
            cost = st.play_cost + (arm.switch_cost if sid == arm.root else 0.0)
            c += cost * sp.z
            if grid is None:
                p += sp.x
                r += sp.x * st.reward
            else:
                zeta = concave.table(arm.arm_id, sid)
                p += sum(l * v for l, v in enumerate(sp.x_grid)) / grid
                r += sum(v * zeta[l] for l, v in enumerate(sp.x_grid))
        return p, r, c


def extract_single_arm_policies(
    solution: RelaxationSolution, instance: BanditInstance
) -> list[SingleArmPolicy]:
    """One randomized stopping policy per arm, in instance order."""
    concave = instance.objective.concave
    out: list[SingleArmPolicy] = []
    for arm in instance.arms:
        states: dict[str, StatePolicy] = {}
        for sid in arm.topo_order():
            key = (arm.arm_id, sid)
            states[sid] = StatePolicy(
                w=solution.w[key],
                z=solution.z[key],
                x=solution.x.get(key, 0.0),
                x_grid=solution.x_grid.get(key),
            )
        policy = SingleArmPolicy(arm_id=arm.arm_id, states=states, explore_prob=0.0, reward=0.0, cost=0.0)
        p, r, c = policy.recompute_stats(arm, solution.grid, concave)
        out.append(
            SingleArmPolicy(arm_id=arm.arm_id, states=states, explore_prob=p, reward=r, cost=c)
        )
    return out
