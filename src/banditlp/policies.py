"""Sequential rounding of single-arm policies and their evaluation.

The greedy plans order arms by a bang-per-buck ratio of the single-arm
statistics, then explore the arms one at a time in that order: each arm's
randomized stopping policy runs to its end and the arm is never revisited.
A rounded policy is therefore a plan order plus one per-arm step, described
per state, by compiled index, in the arm's step table `_ArmTable`: draw q
uniformly in [0, w]; play if q <= z; otherwise exploit at the smallest level
l with q <= cuts[l], where level 0 (or q past the last cut) is a dead stop.
The cuts are z + x_0, z + x_0 + x_1, ... over the solution's exploit masses
at levels 0..L; a plain solution is the one-level grid (0, x).  The table
also holds the exact probabilities pz, px (per level) and pn of those
outcomes.

Every consumer reads that one table, built once per solution and arm
(`_tables`), and every run, sampled or exact, applies one rule between arms
per variant, defined once in `_RULES` in a scalar and an array form:

* `_walk_arm` samples one arm's run; one driver, `_sample_run`, walks the plan's
  arms with it for Monte-Carlo runs and recorded traces alike and applies the
  variant's rule after each arm:
  - budgeted, rule "order": an unaffordable play stops exploration and
    exploits the current arm where it stands;
  - budgeted, rule "violate" (the analysis twin): the budget is checked only
    after an arm's policy ends, so a run may overshoot by one arm's cost;
  - lagrangean: no budget; stops at the first exploit and pays for every play;
  - concave: takes the exploit level as the arm's grid weight, moves on until
    the weights fill the packing capacity, then halves all weights.
* `_arm_outcomes` is the walk's exact twin without a budget, its outcomes
  (state, level, spent) and its plays with their probabilities.  One exact
  forward pass convolves them over the plan order for all three variants,
  reading each run state's budget stops off the plays, and applies the same
  rules to a frontier of run states.
* `GreedyOrderProcess` branches on pz, px and pn at each joint state for the
  statistics oracle.

Sampled runs read counter-based Philox4x64-10 draws (`_windows`): a run's
walk reads at most W draws, the plan's draw bound, and replication k of a
Monte-Carlo call reads window k, the draws [k*W, (k+1)*W) of the one stream
keyed [seed mod 2**64, 0]; a trace reads window 0.  A chunk of windows is one
numpy `Generator.random` call, and results are reproducible regardless of
scheduling.  A call with at least `_BATCH_MIN_REPS` replications takes the
batched runner (`banditlp.batched`): it walks all replications in lockstep,
arm by arm, with the float operations of `_walk_arm` in the same order, then
applies the rule's array form to all of them at once.  Its values, costs and
audits are bit-identical to the loop over `_sample_run`, which smaller calls
keep and which drives every trace.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .relaxations import ArmValues, RelaxationSolution, SingleArmPolicy, solve_relaxation
from .statespace import ArmStateSpace, BanditInstance, _objective_faults, alpha_diagnostics

# A state with occupancy w below UNREACHABLE_W is never entered: its step is a
# dead stop.  AUDIT_TOL is the slack of every float comparison of a spend with
# a budget, so that fractional costs are not decided by rounding: the first-play
# test, the walk's affordability test and the exact pass's reach and budget-stop
# tests, the violate overshoot, and the audits of verify_trace,
# monte_carlo_evaluate and the concave exact pass (spend against a budget or
# cap, event costs against the trace cost, and packed units against
# 2 * capacity * L).
UNREACHABLE_W = 1e-9
AUDIT_TOL = 1e-9
# nonadaptive_two_level: slack of the gamma*/7 prior-best test; the root play
# mass z_i below which an arm's leaf statistics count as zero; and the budget
# share m_i up to which an arm joins the probe set for free.
TWO_LEVEL_TIE = 1e-12
TWO_LEVEL_MIN_Z = 1e-12
TWO_LEVEL_FREE_SHARE = 1e-15

# Monte-Carlo calls with at least this many replications take the batched
# runner (`batched.batched_runs`), smaller ones the scalar loop.  In process,
# best of 25 rounds on a 2-core VM, ms per call on seed 1's plans, scalar / batched:
#   replications  32           64           96           128          200
#   suite         0.094/0.100  0.182/0.103  0.267/0.108  0.380/0.123  0.580/0.130
#   concave-mc    0.162/0.161  0.299/0.162  0.461/0.181  0.590/0.187  0.938/0.215
#   ladder        0.340/0.670  0.621/0.698  0.890/0.699  1.291/0.788  1.895/0.867
# The deeper walks of `ladder`'s 5x4-7x4 Beta ladders take more numpy calls per
# arm (0.75/0.73 at 72); from 96 on, the batched runner is the faster on all three.
_BATCH_MIN_REPS = 96


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class RankedArm:
    """An arm's greedy key: value rate nu over congestion rate mu."""

    arm_id: str
    nu: float
    mu: float
    ratio: float


@dataclass(frozen=True)
class GreedyPlan:
    variant: str  # "budgeted" | "lagrangean" | "concave"
    order: tuple[RankedArm, ...]
    budget: float | None  # effective execution budget (alpha * C for bicriteria)
    alpha: float = 1.0


def _ratio(nu: float, mu: float) -> float:
    if mu > 0.0:
        return nu / mu
    if nu > 0.0:
        return math.inf  # free value first
    return -math.inf  # dead weight last


def _cost_share(cost: float, budget: float | None) -> float:
    if cost == 0.0:
        return 0.0
    return cost / budget


def make_greedy_plan(
    policies: Sequence[SingleArmPolicy],
    instance: BanditInstance,
    variant: str | None = None,
    alpha: float = 1.0,
) -> GreedyPlan:
    """Rank arms for sequential execution.

    budgeted:   nu = R,       mu = alpha*P + C_phi/C   (alpha > 1 is the
                bicriteria variant, executed with budget alpha*C)
    lagrangean: nu = R - C_phi, mu = P
    concave:    nu = R,       mu = (sigma/B)*P + C_phi/C

    Raises ValueError, before any policy is read, on a variant, an alpha or
    a budget that `_check_variant`, `alpha_diagnostics` or the objective rule refuses.
    """
    if variant is None:
        variant = instance.objective.kind
    _check_variant(instance, variant)
    bad = alpha_diagnostics(alpha) + _objective_faults(variant, instance.budget)
    if bad:
        raise ValueError(bad[0].message)
    ranked, prob = [], instance.objective.concave
    for pol in policies:
        if variant == "budgeted":
            nu, mu = pol.reward, alpha * pol.explore_prob + _cost_share(pol.cost, instance.budget)
        elif variant == "lagrangean":
            nu, mu = pol.reward - pol.cost, pol.explore_prob
        else:
            sigma = prob.sigmas[pol.arm_id]
            nu, mu = pol.reward, (sigma / prob.capacity) * pol.explore_prob + _cost_share(pol.cost, instance.budget)
        ranked.append(RankedArm(pol.arm_id, nu, mu, _ratio(nu, mu)))
    ranked.sort(key=lambda r: (-r.ratio, r.arm_id))
    budget = None if variant == "lagrangean" else instance.budget
    if variant == "budgeted":
        budget = alpha * budget
    return GreedyPlan(variant=variant, order=tuple(ranked), budget=budget, alpha=alpha)


# ---------------------------------------------------------------------------
# Execution tables and draw windows


class _ArmTable:
    """One arm's step table under a solution, per state by compiled index u.

    `cuts[u][l]` is the base (the solution's z, 0 at a leaf) plus the exploit
    masses of levels 0..l, so a draw q > z[u] lands on the smallest level l
    with q <= cuts[u][l] (a dead stop past the last cut).  z[u] is the base,
    or -inf at a state without children, which never plays, not even on a
    draw of 0.  pz[u], px[u][l - 1] and pn[u] are the probabilities of a
    play, an exploit at level l >= 1 and a dead stop (level 0 included; all
    of it below UNREACHABLE_W).  The rest is the compiled arm's (`ca`).  No
    reference leads back to the solution, which keeps the table.
    """

    __slots__ = ("arm", "arm_id", "ca", "w", "z", "cuts", "pz", "px", "pn")

    def __init__(self, arm: ArmStateSpace, values: ArmValues):
        self.arm, self.arm_id, self.ca, self.w = arm, arm.arm_id, values.ca, values.w
        self.z, self.cuts, self.pz, self.px, self.pn = z, cuts, pz, px, pn = [], [], [], [], []
        for w, base, masses, leaf, kids in zip(values.w, values.z, values.x, values.ca.leaf, values.ca.kids):
            base = 0.0 if leaf else base
            cut = tuple(accumulate(masses, initial=base))[1:]
            cuts.append(cut)
            z.append(base if kids else -math.inf)
            if w < UNREACHABLE_W:
                pz.append(0.0)
                px.append((0.0,) * (len(masses) - 1))
                pn.append(1.0)
            else:
                pz.append(base / w)
                px.append(tuple(max((hi - lo) / w, 0.0) for lo, hi in zip(cut, cut[1:])))
                pn.append(max(1.0 - pz[-1] - sum(px[-1]), 0.0))


def _tables(instance: BanditInstance, solution: RelaxationSolution) -> dict[str, _ArmTable]:
    """The step tables of the instance's arms under the solution.

    They are kept on the solution object, outside its dataclass fields, so
    every evaluation of one solution shares one table per arm and a copy
    starts without any.  A table serves an arm while it is the same object.
    """
    if instance.objective.kind == "concave" and solution.grid is None:
        raise ValueError("concave plans need a solution with grid exploit masses")
    kept = solution.__dict__.setdefault("_step_tables", {})
    out = {}
    for arm in instance.arms:
        tab = kept.get(arm.arm_id)
        if tab is None or tab.arm is not arm:
            tab = kept[arm.arm_id] = _ArmTable(arm, solution.arm_values(arm))
        out[arm.arm_id] = tab
    return out


_MASK64 = 0xFFFFFFFFFFFFFFFF
# Replications are drawn `_CHUNK` draws at a time (2 MB of floats), which
# bounds the scratch memory of both Monte-Carlo runners.
_CHUNK = 1 << 18
# One Philox generator per thread, re-keyed to a stream and its position
# before every read: nothing one read leaves in it reaches the next.
_PHILOX = threading.local()


def _philox_generator() -> tuple[np.random.Philox, np.random.Generator]:
    try:
        return _PHILOX.pair
    except AttributeError:
        bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        _PHILOX.pair = (bg, np.random.Generator(bg))
        return _PHILOX.pair


def _seed_key(seed) -> int:
    """A seed's Philox key word: any integer (Python or numpy) mod 2**64.

    Floats raise TypeError.
    """
    return operator.index(seed) & _MASK64


def _draw_width(plan: GreedyPlan, tables: dict[str, _ArmTable]) -> int:
    """A run's draw bound W: the sum over the plan's arms of the draws one
    walk reads (`CompiledArm.draws`), rounded up to a 4-draw Philox block."""
    return 4 * ((sum(tables[ra.arm_id].ca.draws for ra in plan.order) + 3) // 4)


def _windows(seed_key: int, first: int, rows: int, width: int) -> np.ndarray:
    """The draw windows of replications first..first+rows-1, one per row.

    Replication k reads window k, the draws [k*width, (k+1)*width) of the
    stream that a fresh ``Philox(key=np.array([seed_key, 0],
    dtype=np.uint64))`` generator draws; width is a multiple of 4, so a
    window starts at a Philox block.
    """
    bg, gen = _philox_generator()
    block = first * width // 4
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": [block & _MASK64, block >> 64, 0, 0], "key": [seed_key, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.random((rows, width))


def _window_chunks(seed_key: int, reps: int, width: int):
    """Yields (first replication, its windows) for replications 0..reps-1,
    at most `_CHUNK` draws at a time."""
    step = max(1, _CHUNK // max(width, 1))
    for lo in range(0, reps, step):
        yield lo, _windows(seed_key, lo, min(step, reps - lo), width)


class _Window:
    """One run's window as a stream: ``random()`` returns its next draw, and
    a read past its end raises StopIteration."""

    __slots__ = ("random",)

    def __init__(self, draws: list[float]):
        self.random = iter(draws).__next__


def _affordable_first_play(instance: BanditInstance, budget: float) -> bool:
    for arm in instance.arms:
        first = arm.first_play_cost()
        if first is not None and first <= budget + AUDIT_TOL:
            return True
    return False


def _argmax_root(instance: BanditInstance) -> tuple[str | None, str | None, float]:
    """The best prior mean as (arm id, root, reward), the first arm on a tie;
    (None, None, 0.0) without arms, where nothing is exploited."""
    best = None
    for arm in instance.arms:
        r = arm.states[arm.root].reward
        if best is None or r > best[2]:
            best = (arm.arm_id, arm.root, r)
    return (None, None, 0.0) if best is None else best


def prior_best_value(instance: BanditInstance) -> tuple[str | None, float]:
    """Naive no-exploration comparator: pick the best prior mean outright.
    An instance without arms gives (None, 0.0)."""
    arm_id, _, r = _argmax_root(instance)
    return arm_id, r


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceEvent:
    arm: str
    state: str
    action: str  # switch | play | stop-exploit | stop-null | budget-stop
    cost: float
    q: float | None


@dataclass
class ExecutionTrace:
    variant: str
    seed: int
    events: list[TraceEvent]
    exploited: tuple[str, str] | None
    total_cost: float
    value: float
    weights: dict[str, float] | None = None
    weight_numerators: dict[str, int] | None = None
    grid: int | None = None
    visited: list[str] = field(default_factory=list)


def trace_to_jsonl(trace: ExecutionTrace) -> str:
    """One JSON object per event plus a final summary record."""
    lines = [
        json.dumps(
            {"arm": e.arm, "state": e.state, "action": e.action, "cost": e.cost, "q": e.q}
        )
        for e in trace.events
    ]
    summary = {
        "summary": True,
        "variant": trace.variant,
        "seed": trace.seed,
        "value": trace.value,
        "cost": trace.total_cost,
        "exploited_arm": None if trace.exploited is None else trace.exploited[0],
        "exploited_state": None if trace.exploited is None else trace.exploited[1],
    }
    if trace.weights is not None:
        summary["weights"] = trace.weights
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


class _Run:
    """Mutable per-trace scratch; collects events only when recording."""

    __slots__ = ("record", "events", "visited", "spent")

    def __init__(self, record: bool):
        self.record = record
        self.events: list[TraceEvent] = []
        self.visited: list[str] = []
        self.spent = 0.0

    def event(self, arm, state, action, cost, q):
        if self.record:
            self.events.append(TraceEvent(arm, state, action, cost, q))


def _walk_arm(tab: _ArmTable, rng: _Window, run: _Run, avail: float | None):
    """Run one arm's stopping policy to its end; returns (state u, level).

    level is the exploit level where the policy stopped (0 for a dead stop,
    1 for a plain exploit, l on the concave grid), or None when a play would
    take the run's total spend past avail + AUDIT_TOL (None: no budget check).
    A play moves to the first child whose cumulative probability (added left
    to right) is above the next draw, else to the last child.
    """
    arm_id, ca, sids = tab.arm_id, tab.ca, tab.ca.sids
    run.visited.append(arm_id)
    u = 0
    while True:
        w = tab.w[u]
        if w < UNREACHABLE_W:
            run.event(arm_id, sids[u], "stop-null", 0.0, None)
            return u, 0
        q = rng.random() * w
        if q > tab.z[u]:
            level = 0  # also past the last cut
            for l, cut in enumerate(tab.cuts[u]):
                if q <= cut:
                    level = l
                    break
            run.event(arm_id, sids[u], "stop-exploit" if level else "stop-null", 0.0, q)
            return u, level
        charge = ca.charges[u]
        if avail is not None and run.spent + charge > avail + AUDIT_TOL:
            run.event(arm_id, sids[u], "budget-stop", 0.0, q)
            return u, None
        if u == 0:  # the root; no state leads back to it
            run.event(arm_id, sids[0], "switch", ca.switch_cost, None)
        run.event(arm_id, sids[u], "play", ca.costs[u], q)
        run.spent += charge
        draw, cum = rng.random(), 0.0
        for c, p in ca.kids[u]:  # past the last child's sum, the last child
            cum += p
            if draw < cum:
                break
        u = c


# ---------------------------------------------------------------------------
# Rules between arms


def _budgeted_rule(instance, plan, solution, rule):
    """Key (remaining budget, best dead-stop reward so far)."""
    if not _affordable_first_play(instance, plan.budget):
        return _argmax_root(instance)[2], {}, False, None, None, None, None

    # Under "order" the walk itself keeps a run within the budget; testing
    # the remainder there too would let fractional costs, rounded per arm,
    # end a run that the walk's running total keeps going.
    violate = rule == "violate"

    def after(tab, key, u, level, spent):
        r = tab.ca.rewards[u]
        if level != 0 or violate and spent > key[0] + AUDIT_TOL:
            return r, None  # an exploit, a budget stop or a violate overshoot: exploit here
        return 0.0, (key[0] - spent, r if r > key[1] else key[1])

    def after_rows(tab, key, state, level, spent):
        rem, best = key
        r = tab.ca.arrays.reward[state]
        end = level != 0
        if violate:
            end |= spent > rem + AUDIT_TOL
        return np.where(end, r, 0.0), (rem - spent, np.where(r > best, r, best)), ~end

    # max(best, 0.0) is best unless 0.0 > best
    return (0.0, {(float(plan.budget), -1.0): 1.0}, not violate, after, lambda key: max(key[1], 0.0),
            after_rows, lambda key: np.where(0.0 > key[1], 0.0, key[1]))


def _lagrangean_rule(instance, plan, solution, rule):
    """No key: every play is paid for and the run stops at the first exploit."""

    def after(tab, key, u, level, spent):
        return (tab.ca.rewards[u] - spent, None) if level else (-spent, key)

    def after_rows(tab, key, state, level, spent):
        end = level != 0
        return np.where(end, tab.ca.arrays.reward[state] - spent, -spent), key, ~end

    return 0.0, {(): 1.0}, False, after, lambda key: 0.0, after_rows, lambda key: 0.0


def _concave_rule(instance, plan, solution, rule):
    """Key (remaining budget, packed units sum sigma_i * numerator_i).  The value
    adds over arms: the base has every arm at its root with weight 0."""
    prob, L = instance.objective.concave, solution.grid
    cap = prob.capacity * L

    def check(arm_id, overspent, overpacked):
        if overspent:
            raise RuntimeError(f"a concave run spends past the budget on arm {arm_id!r}")
        if overpacked:
            raise RuntimeError(f"pre-scaling weights exceed 2B after arm {arm_id!r}")

    def after(tab, key, u, level, spent):
        n = L if level is None else level  # a budget stop packs L units and ends the run
        units = key[1] + prob.sigmas[tab.arm_id] * n
        check(tab.arm_id, spent > key[0] + AUDIT_TOL, units > 2 * cap + AUDIT_TOL)
        sids = tab.ca.sids
        gain = prob.value_at(tab.arm_id, sids[u], n / (2 * L)) - prob.value_at(tab.arm_id, sids[0], 0.0)
        return gain, None if level is None or units >= cap else (key[0] - spent, units)

    def after_rows(tab, key, state, level, spent):
        rem, packed = key
        n = np.where(level < 0, L, level)
        units = packed + prob.sigmas[tab.arm_id] * n
        check(tab.arm_id, (spent > rem + AUDIT_TOL).any(), (units > 2 * cap + AUDIT_TOL).any())
        # one value_at per distinct (state, numerator)
        codes, inverse = np.unique(state * (L + 1) + n, return_inverse=True)
        sids = tab.ca.sids
        root = prob.value_at(tab.arm_id, sids[0], 0.0)
        gains = [prob.value_at(tab.arm_id, sids[c // (L + 1)], c % (L + 1) / (2 * L)) - root for c in codes.tolist()]
        return np.array(gains)[inverse], (rem - spent, units), (level >= 0) & ~(units >= cap)

    base = sum(prob.value_at(a.arm_id, a.root, 0.0) for a in instance.arms)
    return base, {(float(plan.budget), 0.0): 1.0}, True, after, lambda key: 0.0, after_rows, lambda key: 0.0


# The one definition of each variant's rule between arms, read by the sampled
# runs, the batched runner and the exact pass.  Each returns (base value, start
# keys, whether the budget caps an arm's spend, after, finish, after_rows,
# finish_rows).  A run starts from its start key (no key: the run ends before
# any arm, worth the base value).  after(tab, key, u, level, spent) gives the
# value of an arm's outcome, state u of its step table, with spent the arm's
# own spend, and the next key
# (None: the run ends); finish(key) values a key that outlives the plan.  Both
# are pure: the exact pass calls them once per frontier key.  after_rows and
# finish_rows are the same rule over many runs at once, for the batched runner:
# the key is a tuple of arrays, states are compiled indices, a budget stop is
# level -1, and after_rows also returns which runs go on.  They repeat the
# scalar float operations elementwise, so each run gets the scalar rule's bits.
_RULES = {"budgeted": _budgeted_rule, "lagrangean": _lagrangean_rule, "concave": _concave_rule}


def _spend_cap(instance: BanditInstance, plan: GreedyPlan, rule: str) -> float | None:
    """A run's largest legal spend: the budget (None for lagrangean plans), plus c_max under violate."""
    return plan.budget + instance.max_single_arm_cost() if rule == "violate" else plan.budget


def _check_variant(instance: BanditInstance, variant: str) -> None:
    """A plan variant is one of `_RULES`; a concave one needs concave data."""
    if variant not in _RULES:
        raise ValueError(f"unknown plan variant {variant!r}")
    if variant == "concave" and instance.objective.concave is None:
        raise ValueError("a concave plan needs an instance with concave data")


def _check_plan(instance: BanditInstance, plan: GreedyPlan, rule: str, variant: str | None = None) -> None:
    """The plan rule, which every plan reader applies first: `_check_variant`,
    the reader's own variant if it names one, the rule "order" or "violate"
    (on a plain budgeted plan only), and each entry an arm of the instance
    named once, as the paper's plans explore each arm at most once."""
    _check_variant(instance, plan.variant)
    if variant is not None and plan.variant != variant:
        raise ValueError(f"expected a {variant} plan, got {plan.variant!r}")
    if rule not in ("order", "violate"):
        raise ValueError(f"unknown budget rule {rule!r}; expected 'order' or 'violate'")
    if rule == "violate" and (plan.variant != "budgeted" or plan.alpha != 1.0):
        raise ValueError("the violate rule applies to plain budgeted plans only")
    ids, named = {a.arm_id for a in instance.arms}, set()
    for ra in plan.order:
        if ra.arm_id in named:
            raise ValueError(f"the plan names arm {ra.arm_id!r} twice")
        if ra.arm_id not in ids:
            raise ValueError(f"the plan names arm {ra.arm_id!r}, which the instance does not have")
        named.add(ra.arm_id)


# ---------------------------------------------------------------------------
# Sampled runs


def _sample_run(plan, tables, rules, rng, run: _Run, walked: list | None = None) -> tuple[float, bool]:
    """One sampled run: walk the plan's arms in order, applying the variant's rule
    (`_RULES`) after each.  Returns the run's value and whether the rule ended
    it; walked, if given, collects each walked arm's (table, state u, level).

    The walk tests a play against the budget with the run's running total, the
    trace's own cost; the rule sees the arm's own spend.
    """
    value, start, capped, after, finish, _, _ = rules
    if not start:
        return value, False
    (key,) = start
    avail = plan.budget if capped else None
    for ra in plan.order:
        tab = tables[ra.arm_id]
        before = run.spent
        u, level = _walk_arm(tab, rng, run, avail)
        if walked is not None:
            walked.append((tab, u, level))
        v, key = after(tab, key, u, level, run.spent - before)
        value += v
        if key is None:
            return value, True
    return value + finish(key), False


def _execute(instance, plan, solution, rng_seed, rule, variant) -> ExecutionTrace:
    _check_plan(instance, plan, rule, variant)
    tables = _tables(instance, solution)
    run, walked = _Run(True), []
    rules = _RULES[plan.variant](instance, plan, solution, rule)
    window = _windows(_seed_key(rng_seed), 0, 1, _draw_width(plan, tables))[0]
    value, ended = _sample_run(plan, tables, rules, _Window(window.tolist()), run, walked)
    trace = ExecutionTrace(
        variant=plan.variant,
        seed=operator.index(rng_seed),
        events=run.events,
        exploited=None,
        total_cost=run.spent,
        value=value,
        visited=run.visited,
    )
    if plan.variant == "concave":
        L = solution.grid
        numerators = {a.arm_id: 0 for a in instance.arms}
        numerators.update((tab.arm_id, L if level is None else level) for tab, _, level in walked)
        trace.weights = {a: n / (2 * L) for a, n in numerators.items()}
        trace.weight_numerators, trace.grid = numerators, L
    elif ended:
        tab, u, level = walked[-1]
        trace.exploited = (tab.arm_id, tab.ca.sids[u])
        if level == 0:  # only a violate overshoot ends a run at a dead stop
            run.event(tab.arm_id, tab.ca.sids[u], "budget-stop", 0.0, None)
    elif plan.variant == "budgeted" and instance.arms:
        # Out of arms (or none affordable): exploit the best final state, the
        # first arm in instance order on a tie.  Without arms nothing is.
        final = {tab.arm_id: tab.ca.sids[u] for tab, u, _ in walked}
        arm = max(instance.arms, key=lambda a: a.states[final.get(a.arm_id, a.root)].reward)
        trace.exploited = (arm.arm_id, final.get(arm.arm_id, arm.root))
    return trace


def execute_greedy_order(
    instance: BanditInstance, plan: GreedyPlan, solution: RelaxationSolution, rng_seed: int
) -> ExecutionTrace:
    """One sampled run of the budget-respecting greedy policy."""
    return _execute(instance, plan, solution, rng_seed, "order", "budgeted")


def execute_greedy_violate(
    instance: BanditInstance, plan: GreedyPlan, solution: RelaxationSolution, rng_seed: int
) -> ExecutionTrace:
    """One sampled run of the analysis twin that checks the budget only between arms."""
    return _execute(instance, plan, solution, rng_seed, "violate", "budgeted")


def execute_lagrangean_greedy(
    instance: BanditInstance, plan: GreedyPlan, solution: RelaxationSolution, rng_seed: int
) -> ExecutionTrace:
    return _execute(instance, plan, solution, rng_seed, "order", "lagrangean")


def execute_concave_greedy(
    instance: BanditInstance, plan: GreedyPlan, solution: RelaxationSolution, rng_seed: int
) -> ExecutionTrace:
    return _execute(instance, plan, solution, rng_seed, "order", "concave")


# ---------------------------------------------------------------------------
# Trace verification


def verify_trace(
    trace: ExecutionTrace, instance: BanditInstance, plan: GreedyPlan, rule: str = "order"
) -> list[str]:
    """Event-level invariant audit; returns human-readable violations.  A
    trace may come from outside the program, so all of them are checked."""
    _check_plan(instance, plan, rule)
    out: list[str] = []
    blocks: list[str] = []
    for e in trace.events:
        if not blocks or blocks[-1] != e.arm:
            blocks.append(e.arm)
    if len(set(blocks)) != len(blocks):
        out.append("an arm block is revisited")
    plan_ids = [ra.arm_id for ra in plan.order]
    if blocks and blocks != plan_ids[: len(blocks)]:
        out.append("arm blocks do not follow the plan order")
    switch_counts: dict[str, int] = {}
    for e in trace.events:
        if e.action == "switch":
            switch_counts[e.arm] = switch_counts.get(e.arm, 0) + 1
    if any(c > 1 for c in switch_counts.values()):
        out.append("an arm is switched into more than once")
    event_cost = sum(e.cost for e in trace.events)
    if abs(event_cost - trace.total_cost) > AUDIT_TOL:
        out.append("event costs do not add up to the trace cost")
    cap = _spend_cap(instance, plan, rule)
    if cap is not None and trace.total_cost > cap + AUDIT_TOL:
        out.append(f"{plan.variant} trace exceeds the budget" + (" + c_max" if rule == "violate" else ""))
    if plan.variant == "concave" and trace.weight_numerators is not None:
        prob = instance.objective.concave
        L = trace.grid
        units = sum(prob.sigmas[a] * n for a, n in trace.weight_numerators.items())
        if units > 2 * prob.capacity * L + AUDIT_TOL:
            out.append("pre-scaling weights exceed twice the packing capacity")
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


@dataclass
class MonteCarloReport:
    mean: float
    stderr: float
    reps: int
    values: np.ndarray
    max_cost: float
    mean_cost: float
    violations: list[str]


def monte_carlo_evaluate(
    instance: BanditInstance,
    plan: GreedyPlan,
    solution: RelaxationSolution,
    reps: int,
    seed: int,
    rule: str = "order",
) -> MonteCarloReport:
    """Mean realized value over reps independent traces with invariant checks.

    Replication k reads window k of the seed's stream, so it is fixed by
    (seed, k, plan): results depend neither on evaluation order nor on
    chunking, and the first k replications of a longer call equal a shorter
    call with the same seed.  The seed may be any integer, Python or numpy;
    it is taken mod 2**64.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_plan(instance, plan, rule)
    tables = _tables(instance, solution)
    rules = _RULES[plan.variant](instance, plan, solution, rule)
    if reps >= _BATCH_MIN_REPS:
        from .batched import batched_runs as runner  # batched imports this module
    else:
        runner = _scalar_runs
    runs = runner(plan, tables, rules, _seed_key(seed), reps)
    return _mc_report(runs, _spend_cap(instance, plan, rule))


# The run audits, in the order a run is checked: its spend against the cap,
# its walked arms against the plan order.  `_check_plan` lets each arm be
# walked once, and a walk starts at the root, to which no state leads back, so
# no run pays an arm's switch twice.
_AUDITS = (
    "trace cost exceeds the allowed cap",
    "visited arms do not form a plan-order prefix",
)


def _mc_report(runs, cap: float | None) -> MonteCarloReport:
    """Summarise (values, spend, off-plan flags) per replication.

    The mean and the standard error are what ``values.mean()`` and
    ``values.std(ddof=1)`` compute, from a few ufunc calls instead of their
    Python-level wrappers, whose fixed cost dominates a small call.
    """
    values, spent, off_plan = runs
    reps = len(values)
    over = spent > cap + AUDIT_TOL if cap is not None else np.zeros(reps, dtype=bool)
    mean = float(np.add.reduce(values)) / reps
    # equal values have no spread; np.std would report the mean's rounding error
    if values.min() < values.max():
        dev = values - mean
        dev *= dev
        stderr = math.sqrt(float(np.add.reduce(dev)) / (reps - 1)) / math.sqrt(reps)
    else:
        stderr = 0.0
    # each audit counts the runs that fail it; audits are listed in the order
    # of their first failure, by replication and then in _AUDITS order
    flags = (over, off_plan)
    failed = sorted((int(bad.argmax()), i, int(bad.sum())) for i, bad in enumerate(flags) if bad.any())
    return MonteCarloReport(
        mean=mean,
        stderr=stderr,
        reps=reps,
        values=values,
        max_cost=max(0.0, float(spent.max())),
        # accumulate adds left to right, as a running total does (sum is pairwise)
        mean_cost=float(np.add.accumulate(spent)[-1]) / reps,
        violations=[f"{_AUDITS[i]} (x{count})" for _, i, count in failed],
    )


def _scalar_runs(plan, tables, rules, seed_key: int, reps: int):
    """Replications 0..reps-1, one `_sample_run` each: their values, spends,
    and whether each broke the plan order."""
    values = np.empty(reps)
    spent = np.empty(reps)
    off_plan = np.zeros(reps, dtype=bool)
    plan_ids = [ra.arm_id for ra in plan.order]
    for lo, windows in _window_chunks(seed_key, reps, _draw_width(plan, tables)):
        for k, window in enumerate(windows.tolist(), lo):
            run = _Run(False)
            values[k], _ = _sample_run(plan, tables, rules, _Window(window), run)
            spent[k] = run.spent
            off_plan[k] = run.visited != plan_ids[: len(run.visited)]
    return values, spent, off_plan


# ---------------------------------------------------------------------------
# Exact evaluation


def _arm_outcomes(tab: _ArmTable) -> list[tuple[int, int | None, float, float]]:
    """Exact twin of `_walk_arm` without a budget: its (state u, level, spent, p).

    spent is the arm's own spend on arriving at u, switch included; level None
    is a play from u, whose children come later in the list.  With costs >= 0
    an arrival at spend s within a budget took the same plays, with the same
    float additions in the same order, as here, so a budget filters the list
    (`evaluate_plan_exact`).  Integer-valued costs stay exact in float
    arithmetic.
    """
    out = []
    ca = tab.ca
    masses: list[dict[float, float] | None] = [{0.0: 1.0}] + [None] * (len(ca.sids) - 1)  # spent -> probability
    for u, cur in enumerate(masses):
        if not cur:
            continue
        pz, pn, charge = tab.pz[u], tab.pn[u], ca.charges[u]
        for spent, pr in cur.items():
            for level, p in enumerate(tab.px[u], 1):
                if p > 0.0:
                    out.append((u, level, spent, pr * p))
            if pn > 0.0:
                out.append((u, 0, spent, pr * pn))
            if pz > 0.0:
                out.append((u, None, spent, pr * pz))
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

    One forward pass convolves each arm's outcomes (`_arm_outcomes`), in plan
    order, with a frontier of run states.  Under a key's remaining budget an
    outcome at a spend past it was never reached, and a play that would pass
    it is a budget stop.  Plans with a budget (budgeted, bicriteria,
    concave) need integer costs, so that every remaining budget B - k, part
    of the state, is exact in floats (B itself may be fractional, as alpha * C
    often is), and charges >= 0, so that a spend never falls back within a
    budget it passed; lagrangean plans accept any costs.  The concave pass raises
    RuntimeError if a reachable run breaks the budget or packs more than 2B
    before halving.
    """
    _check_plan(instance, plan, rule)
    if plan.budget is not None and not instance.has_integer_costs():
        raise ValueError("exact evaluation under a budget requires integer costs")
    tables = _tables(instance, solution)
    for tab in tables.values():
        if plan.budget is not None and min(tab.ca.charges) < 0.0:
            raise ValueError(f"exact evaluation under a budget requires play charges >= 0; arm {tab.arm_id!r} "
                             "has one below 0")
    value, frontier, capped, after, finish, _, _ = _RULES[plan.variant](instance, plan, solution, rule)
    cost = 0.0
    for ra in plan.order:
        tab = tables[ra.arm_id]
        charges, outcomes = tab.ca.charges, _arm_outcomes(tab)
        nxt: dict = {}
        for key, pr in frontier.items():
            limit = key[0] + AUDIT_TOL if capped else math.inf
            for u, level, spent, p in outcomes:
                if spent > limit or level is None and spent + charges[u] <= limit:
                    continue  # never reached, or a play whose children follow
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


# ---------------------------------------------------------------------------
# Compilation into a randomized joint-state process (for the statistics oracle)


class GreedyOrderProcess:
    """GreedyOrder as a randomized policy over joint states.

    Implements the `branches` protocol of
    ``oracle.enumerate_policy_statistics``: at each decision point the active
    arm's step splits into play / exploit / dead branches with the step
    table's pz, px and pn, with the budget gate and the argmax fallback
    mirrored from the executor.  The aux value is the index of the active arm
    in plan order (or "pre" before the affordability pre-check resolves).
    The gate reads the joint state's remaining budget, which starts at the
    instance's C, so a bicriteria plan (budget alpha * C) is refused.
    """

    def __init__(self, instance: BanditInstance, plan: GreedyPlan, solution: RelaxationSolution):
        _check_plan(instance, plan, "order", "budgeted")
        if plan.alpha != 1.0:
            raise ValueError("GreedyOrderProcess needs a plain budgeted plan (alpha 1)")
        self.instance = instance
        self.plan = plan
        self.tables = _tables(instance, solution)
        self.order = [self.tables[ra.arm_id] for ra in plan.order]
        self.arm_index = {a.arm_id: i for i, a in enumerate(instance.arms)}

    def initial_aux(self):
        return "pre"

    def _fallback(self, joint) -> tuple:
        best_arm, best_r = None, -1.0
        for i, arm in enumerate(self.instance.arms):
            r = arm.states[joint.states[i]].reward
            if r > best_r:
                best_arm, best_r = arm.arm_id, r
        return ("stop", best_arm)

    def branches(self, joint, aux):
        if aux == "pre":
            if not _affordable_first_play(self.instance, self.plan.budget):
                arm_id, _, _ = _argmax_root(self.instance)
                return [(1.0, ("stop", arm_id), None)]
            aux = 0
        if aux >= len(self.order):
            return [(1.0, self._fallback(joint), None)]
        tab = self.order[aux]
        u = tab.ca.index[joint.states[self.arm_index[tab.arm_id]]]
        pz, out = tab.pz[u], []
        if pz > 0.0:
            # the active arm is never left and re-entered, so charge holds the
            # switch cost exactly when the last play was on another arm
            if tab.ca.charges[u] > joint.budget:
                out.append((pz, ("stop", tab.arm_id), None))  # budget-stop: exploit in place
            else:
                out.append((pz, ("play", tab.arm_id), aux))
        for p in tab.px[u]:
            if p > 0.0:
                out.append((p, ("stop", tab.arm_id), None))
        if tab.pn[u] > 0.0:
            out.append((tab.pn[u], ("noop",), aux + 1))
        return out


# ---------------------------------------------------------------------------
# Non-adaptive probing for two-level instances


@dataclass(frozen=True)
class NonadaptiveResult:
    """A probe set plus decision rule with its exact value."""

    case: str  # "prior-best" | "boundary-arm" | "probe-set"
    probe_set: tuple[str, ...]
    select_arm: str | None  # fixed selection for the no-probe cases
    expected_value: float
    probe_cost: float
    gamma_star: float


def nonadaptive_two_level(
    instance: BanditInstance, solution: RelaxationSolution
) -> NonadaptiveResult:
    """Three-case probe-set construction for depth-1 star instances.

    Either exploits the best prior outright, or commits to the greedy
    boundary arm, or probes an affordable set S and then selects the best of
    the observed values and the unprobed priors.  The achieved exact value is
    at least gamma*/7.
    """
    if instance.objective.kind != "budgeted":
        raise ValueError("the non-adaptive construction applies to budgeted instances")
    for arm in instance.arms:
        if not arm.is_two_level():
            raise ValueError(f"arm {arm.arm_id!r} is not a two-level star")
    C = float(instance.budget)
    gamma = solution.gamma_star

    root_mass = sum(
        arm.states[arm.root].reward * sum(solution.x[(arm.arm_id, arm.root)]) for arm in instance.arms
    )
    if root_mass >= gamma / 7.0 - TWO_LEVEL_TIE:
        arm_id, _, r = _argmax_root(instance)
        return NonadaptiveResult("prior-best", (), arm_id, r, 0.0, gamma)

    # Re-solve with exploit mass forbidden at the roots.
    restricted = solve_relaxation(instance, exploit_at_roots=False)

    items = []
    for arm in instance.arms:
        z_i = restricted.z[(arm.arm_id, arm.root)]
        leaf_mass = sum(
            sum(restricted.x[(arm.arm_id, sid)]) for sid in arm.states if sid != arm.root
        )
        leaf_value = sum(
            sum(restricted.x[(arm.arm_id, sid)]) * arm.states[sid].reward
            for sid in arm.states
            if sid != arm.root
        )
        if z_i > TWO_LEVEL_MIN_Z:
            X_i = leaf_mass / z_i
            R_i = leaf_value / z_i
        else:
            X_i = R_i = 0.0
        c_i = arm.play_charge(arm.root)
        if C > 0:
            m_i = c_i / C + X_i
        else:
            m_i = X_i if c_i == 0 else math.inf
        items.append((arm.arm_id, R_i, X_i, c_i, m_i))
    items.sort(key=lambda it: (-_ratio(it[1], it[4]), it[0]))

    probe: list[str] = []
    probe_cost = 0.0
    boundary = None  # (arm_id, fractional z, R)
    remaining = 1.0
    for arm_id, R_i, X_i, c_i, m_i in items:
        if math.isinf(m_i):
            continue
        if m_i <= TWO_LEVEL_FREE_SHARE:
            probe.append(arm_id)
            probe_cost += c_i
            continue
        if m_i <= remaining:
            probe.append(arm_id)
            probe_cost += c_i
            remaining -= m_i
        else:
            boundary = (arm_id, remaining / m_i, R_i)
            remaining = 0.0
            break

    if boundary is not None and boundary[1] * boundary[2] > gamma / 7.0:
        arm = instance.arm(boundary[0])
        return NonadaptiveResult(
            "boundary-arm", (), arm.arm_id, arm.states[arm.root].reward, 0.0, gamma
        )

    probe_set = tuple(probe)
    value = _two_level_rule_value(instance, probe_set)
    return NonadaptiveResult("probe-set", probe_set, None, value, probe_cost, gamma)


def _two_level_rule_value(instance: BanditInstance, probe_set: tuple[str, ...]) -> float:
    """Exact value of: probe S, then pick max(observed values, unprobed priors).

    The probed arms' leaf rewards are independent, so P(max <= t) is the
    product of their leaf CDFs at t; the value sums t * P(max = t) over the
    sorted distinct rewards t from b, the best unprobed prior, up.
    """
    probed = [instance.arm(a) for a in probe_set]
    best = max(
        (a.states[a.root].reward for a in instance.arms if a.arm_id not in probe_set),
        default=0.0,
    )
    leaves = sorted(
        (arm.states[c].reward, i, p)
        for i, arm in enumerate(probed)
        for c, p in arm.states[arm.root].transitions
        if p > 0.0
    )
    cdf = [0.0] * len(probed)  # P(arm i's leaf reward <= t)
    value = below = 0.0  # below: P(max < t)
    k = 0
    for t in sorted({best, *(v for v, _, _ in leaves if v > best)}):
        while k < len(leaves) and leaves[k][0] <= t:
            cdf[leaves[k][1]] += leaves[k][2]
            k += 1
        at_most = math.prod(cdf)
        value += t * (at_most - below)
        below = at_most
    return value
