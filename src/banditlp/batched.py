"""Batched Monte-Carlo: the replications of one call walked in lockstep.

`batched_runs` is the twin of `policies._scalar_runs` for large calls.  It
returns the same per-replication values, spends and audit flags, bit for bit,
from the same draw windows:

* Draws.  Replication k reads window k of the call's one Philox4x64-10 stream
  (Salmon et al. 2011; `policies._windows`), so a chunk's draw matrix, one
  window per row, comes from one numpy `Generator.random` call.
* Walk.  Each plan arm's `_Step` table becomes arrays over its states
  (`_ArmArrays`), and `_walk_lockstep` steps every running replication at once
  with `policies._walk_arm`'s float operations, in its order.
* Rules.  After each arm, the variant's `after` is called once per distinct
  (key, state, level, arm spend), and each replication takes its group's
  result.  `after` is pure, so this is what one call per replication gives.
  A run's value is summed as `policies._sample_run` sums it: the base, each
  arm's value in plan order, then finish(key).

Replications are processed `policies._CHUNK` draws at a time, which bounds
the scratch memory; window k depends on k and the plan alone, so the chunking
changes no value.
"""

from __future__ import annotations

import math

import numpy as np

from .policies import AUDIT_TOL, UNREACHABLE_W, _draw_width, _window_chunks


class _ArmArrays:
    """One arm's step table as arrays over its reachable states, root first.

    Per state: w and `dead` (w < UNREACHABLE_W); z (-inf at a leaf); the
    cuts, padded with -inf and closed by +inf, whose column c stands for level
    `levels[c]` (the closing column for a dead stop); the charge; the
    cumulative child probabilities but the last, padded with -inf and closed
    by +inf, whose column c leads to state `kids[s, c]`.
    """

    __slots__ = ("ax", "sids", "w", "dead", "z", "cuts", "levels", "charge", "cum", "kids")

    def __init__(self, ax):
        ca = ax.ca  # the state order and the children come from the compiled arm
        sids = ca.sids
        steps = [ax[sid] for sid in sids]
        n, n_cut = len(sids), max(len(se.cuts) for se in steps)
        n_kid = max(1, max(map(len, ca.kids)))
        self.ax, self.sids = ax, sids
        self.w = np.array([se.w for se in steps])
        self.dead = self.w < UNREACHABLE_W
        self.z = np.array([se.z for se in steps])
        self.cuts = np.full((n, n_cut + 1), -math.inf)
        self.cuts[:, n_cut] = math.inf
        self.levels = np.arange(n_cut + 1)
        self.levels[n_cut] = 0
        self.charge = np.array(ca.charges)
        self.cum = np.full((n, n_kid), -math.inf)
        self.cum[:, n_kid - 1] = math.inf
        self.kids = np.zeros((n, n_kid), dtype=np.intp)
        for i, (se, kids) in enumerate(zip(steps, ca.kids)):
            self.cuts[i, : len(se.cuts)] = se.cuts
            if kids:
                self.cum[i, : len(kids) - 1] = se.cum_probs[:-1]
                self.kids[i] = kids[-1][0]
                self.kids[i, : len(kids) - 1] = [c for c, _ in kids[:-1]]


def _walk_lockstep(arr: _ArmArrays, rows, draws, ptr, spent, avail: float | None):
    """`_walk_arm` for the chunk rows `rows` at once, row r on draws[r, ptr[r]:].

    The float operations are the walk's, in its order: q = u * w, q > z, the
    first q <= cut, spent + charge > avail + AUDIT_TOL, spent += charge, the
    first u < cum.  Advances ptr and spent; returns each row's final state
    index, its level (-1 for a budget stop) and its number of switch charges.
    """
    m = len(rows)
    state = np.zeros(m, dtype=np.intp)
    level = np.zeros(m, dtype=np.intp)  # a dead state stops at level 0, without a draw
    switches = np.zeros(m, dtype=np.intp)
    limit = None if avail is None else avail + AUDIT_TOL
    act = np.arange(m)  # positions still walking
    while act.size:
        s = state[act]
        live = ~arr.dead[s]
        act, s = act[live], s[live]
        r = rows[act]
        p = ptr[r]
        q = draws[r, p] * arr.w[s]
        ptr[r] = p + 1
        stop = q > arr.z[s]
        level[act[stop]] = arr.levels[np.argmax(q[stop, None] <= arr.cuts[s[stop]], axis=1)]
        play = ~stop
        act, s, r, p = act[play], s[play], r[play], p[play]
        total = spent[r] + arr.charge[s]
        if limit is not None:
            ok = ~(total > limit)
            level[act[~ok]] = -1
            act, s, r, p, total = act[ok], s[ok], r[ok], p[ok], total[ok]
        spent[r] = total
        switches[act] += s == 0
        u = draws[r, p + 1]
        ptr[r] = p + 2
        state[act] = arr.kids[s, np.argmax(u[:, None] < arr.cum[s], axis=1)]
    return state, level, switches


def _groups(*columns):
    """Rows equal in every integer column share a group: returns each group's
    first row and each row's group.  np.lexsort orders the rows stably, so a
    group's first row in that order is its first row overall."""
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for col in columns:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def batched_runs(plan, tables, rules, seed_key: int, reps: int):
    """`policies._scalar_runs` with the replications of a chunk in lockstep:
    per replication, its value, its spend, whether its walked arms broke the
    plan order and whether it paid one arm's switch twice."""
    base, start, capped, after, finish = rules
    values = np.full(reps, base, dtype=float)
    spent = np.zeros(reps)
    off_plan = np.zeros(reps, dtype=bool)
    multi_switch = np.zeros(reps, dtype=bool)
    if not start:
        return values, spent, off_plan, multi_switch
    (start_key,) = start
    arms = [_ArmArrays(tables[ra.arm_id]) for ra in plan.order]
    avail = plan.budget if capped else None
    for lo, draws in _window_chunks(seed_key, reps, _draw_width(plan, tables)):
        n = len(draws)
        vals, sp = values[lo : lo + n], spent[lo : lo + n]  # views: the chunk writes through
        ptr = np.zeros(n, dtype=np.intp)
        # the rule's keys, told apart by repr: == merges 0.0 with -0.0 and 1 with 1.0
        keys, kid = [start_key], {repr(start_key): 0}
        key = np.zeros(n, dtype=np.intp)
        walked = np.zeros((n, len(arms)), dtype=bool)
        live = np.arange(n)
        for j, arr in enumerate(arms):
            if not live.size:
                break
            walked[live, j] = True
            before = sp[live]
            state, level, switches = _walk_lockstep(arr, live, draws, ptr, sp, avail)
            multi_switch[lo + live[switches > 1]] = True
            spend = sp[live] - before
            first, group = _groups(key[live] * len(arr.sids) + state, level, spend.view(np.int64))
            gain = np.empty(len(first))
            nxt = np.empty(len(first), dtype=np.intp)
            outcomes = (key[live][first], state[first], level[first], spend[first])
            for g, (k, s, l, c) in enumerate(zip(*(col.tolist() for col in outcomes))):
                gain[g], nkey = after(arr.ax, keys[k], arr.sids[s], None if l < 0 else l, c)
                if nkey is None:
                    nxt[g] = -1
                else:
                    nxt[g] = kid.setdefault(repr(nkey), len(keys))
                    if nxt[g] == len(keys):
                        keys.append(nkey)
            vals[live] += gain[group]
            key[live] = nxt[group]
            live = live[nxt[group] >= 0]
        if live.size:
            first, group = _groups(key[live])
            vals[live] += np.array([finish(keys[k]) for k in key[live][first].tolist()], dtype=float)[group]
        # a run's walked arms must be a prefix of the plan order
        off_plan[lo : lo + n] = (walked[:, 1:] & ~walked[:, :-1]).any(axis=1)
    return values, spent, off_plan, multi_switch
