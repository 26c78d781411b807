"""The exact pass as first written, kept verbatim as the reference twin of
`banditlp.policies.evaluate_plan_exact`: one outcome distribution per arm and
remaining budget, cached by (arm, budget) and clamped at the arm's largest
exploration cost.  The library reads every budget off one unbudgeted list of
outcomes per arm, and must reproduce this pass's value and cost bit for bit
(`test_policies.py`).  Two edits: the arm's largest exploration cost is
read from `ArmStateSpace.max_exploration_cost()`, which computes the same
float as the compiled arm's field that this pass first read, and the plan is
checked by `_check_plan`, the one plan rule, which took the place of the
`_check_rule` this pass first called.
"""

from __future__ import annotations

from banditlp.policies import AUDIT_TOL, _RULES, GreedyPlan, _ArmTable, _check_plan, _tables
from banditlp.relaxations import RelaxationSolution
from banditlp.statespace import BanditInstance


def _arm_outcome_dist(tab: _ArmTable, avail: float | None) -> dict[tuple[int, int | None, float], float]:
    """Exact twin of `_walk_arm`: the distribution of its (state u, level, spent).

    spent is the arm's own spend, switch included; level None marks a play
    that would take spent past avail + AUDIT_TOL (never when avail is None).
    Integer-valued costs stay exact in float arithmetic.
    """
    out: dict[tuple[int, int | None, float], float] = {}  # each key is written once
    ca = tab.ca
    masses: list[dict[float, float] | None] = [{0.0: 1.0}] + [None] * (len(ca.sids) - 1)  # spent -> probability
    for u, cur in enumerate(masses):
        if not cur:
            continue
        pz, pn, charge = tab.pz[u], tab.pn[u], ca.charges[u]
        for spent, pr in cur.items():
            for level, p in enumerate(tab.px[u], 1):
                if p > 0.0:
                    out[u, level, spent] = pr * p
            if pn > 0.0:
                out[u, 0, spent] = pr * pn
            if pz > 0.0:
                if avail is not None and spent + charge > avail + AUDIT_TOL:
                    out[u, None, spent] = pr * pz
                    continue
                key = spent + charge
                for c, p_child in ca.kids[u]:
                    bucket = masses[c] = masses[c] or {}
                    bucket[key] = bucket.get(key, 0.0) + pr * pz * p_child
    return out


def evaluate_plan_exact(
    instance: BanditInstance,
    plan: GreedyPlan,
    solution: RelaxationSolution,
    rule: str = "order",
) -> tuple[float, float]:
    """Exact expected (value, exploration cost) of a rounded plan, all variants.

    One forward pass convolves each arm's outcome distribution, in plan order,
    with a frontier of run states.  Plans with a budget (budgeted, bicriteria,
    concave) need integer costs, so that every remaining budget B - k, part
    of the state, is exact in floats (B itself may be fractional, as alpha * C
    often is); lagrangean plans accept any costs.  The concave pass raises
    RuntimeError if a reachable run breaks the budget or packs more than 2B
    before halving.
    """
    _check_plan(instance, plan, rule)
    if plan.budget is not None and not instance.has_integer_costs():
        raise ValueError("exact evaluation under a budget requires integer costs")
    tables = _tables(instance, solution)
    value, frontier, capped, after, finish, _, _ = _RULES[plan.variant](instance, plan, solution, rule)
    cost = 0.0
    # An arm's outcomes depend on the remaining budget only below its largest
    # exploration cost: with more, no play of the arm is ever budget-stopped
    # (the costs are integers, so the spends are exact).
    dists: dict[tuple[str, float | None], dict] = {}
    for ra in plan.order:
        tab = tables[ra.arm_id]
        full = tab.arm.max_exploration_cost()
        nxt: dict = {}
        for key, pr in frontier.items():
            avail = min(key[0], full) if capped else None
            dist = dists.get((tab.arm_id, avail))
            if dist is None:
                dist = dists[tab.arm_id, avail] = _arm_outcome_dist(tab, avail)
            for (u, level, spent), p in dist.items():
                mass = pr * p
                cost += mass * spent
                v, nkey = after(tab, key, u, level, spent)
                value += mass * v
                if nkey is not None:
                    nxt[nkey] = nxt.get(nkey, 0.0) + mass
        frontier = nxt
    for key, pr in frontier.items():
        value += pr * finish(key)
    return value, cost
