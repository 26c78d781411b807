"""Batched Monte-Carlo: the replications of one call walked in lockstep.

`batched_runs` is the twin of `policies._scalar_runs` for large calls.  It
returns the same per-replication values and spends, bit for bit, from the
same draw windows:

* Draws.  Replication k reads window k of the call's one Philox4x64-10 stream
  (Salmon et al. 2011; `policies._windows`), so a chunk's draw matrix, one
  window per row, comes from one numpy `Generator.random` call.
* Walk.  Each plan arm's step table becomes arrays over its compiled states
  (`_ArmArrays`), and `_walk_lockstep` steps every running replication at once
  with `policies._walk_arm`'s float operations, in its order.
* Rules.  After each arm, the array form of the variant's rule
  (`after_rows`, `policies._RULES`) takes every running replication's outcome
  at once, with the scalar rule's float operations elementwise.  A run's
  value is summed as `policies._sample_run` sums it: the base, each arm's
  value in plan order, then its finish.

Replications are processed `policies._CHUNK` draws at a time, which bounds
the scratch memory; window k depends on k and the plan alone, so the chunking
changes no value.
"""

from __future__ import annotations

import math

import numpy as np

from .policies import AUDIT_TOL, UNREACHABLE_W, _draw_width, _window_chunks


class _ArmArrays:
    """One arm's step table (`policies._ArmTable`) as arrays, root first.

    Per state: the table's w and `dead` (w < UNREACHABLE_W), z, and cuts,
    opened by -inf and closed by +inf, whose column c stands for level
    `levels[c]`: -1 (a budget stop) for the opening column, 0 (a dead stop)
    for the closing one.  From the compiled arm's `StateArrays`: the charge,
    the child cumulative probabilities and the kids, flat (`kids[u * width +
    c]`).
    """

    __slots__ = ("tab", "w", "dead", "z", "cuts", "levels", "charge", "cum", "kids", "width")

    def __init__(self, tab):
        self.tab, fixed = tab, tab.ca.arrays
        self.charge, self.cum = fixed.charge, fixed.cum
        self.kids, self.width = fixed.kids.ravel(), fixed.kids.shape[1]
        self.w = np.array(tab.w, dtype=float)
        self.dead = self.w < UNREACHABLE_W
        self.z = np.array(tab.z, dtype=float)
        self.cuts = np.array([(-math.inf, *cut, math.inf) for cut in tab.cuts], dtype=float)
        self.levels = np.arange(-1, self.cuts.shape[1] - 1)
        self.levels[-1] = 0


def _walk_lockstep(arr: _ArmArrays, rows, draws, ptr, spent, avail: float | None):
    """`_walk_arm` for the chunk rows `rows` at once, row r on draws[r, ptr[r]:].

    The float operations are the walk's, in its order: q = u * w, q > z, the
    first q <= cut, spent + charge > avail + AUDIT_TOL, spent += charge, the
    first u < cum (the count of cum <= u, as `StateArrays` says).  The walking
    rows are carried as compact arrays of row, state and position in the flat
    draws.  Each stop writes the row's state, stopping draw q (+inf for a
    dead stop, -inf for a budget stop, so that the cuts give levels 0 and -1)
    and position into chunk-wide arrays; a play adds its charge to spent in
    place.  At the end ptr advances in place, and the rows' final states and
    levels are returned in the order of `rows`.
    """
    state, q_end, f_end = np.empty(len(ptr), dtype=np.intp), np.empty(len(ptr)), np.empty(len(ptr), dtype=np.intp)
    limit = None if avail is None else avail + AUDIT_TOL
    flat, width = draws.ravel(), draws.shape[1]
    r, s, f = rows, np.zeros(len(rows), dtype=np.intp), rows * width + ptr[rows]

    def stop(halt, q):
        """Settles the rows that halt marks, at draw q; returns the others."""
        at = r[halt]
        state[at], q_end[at], f_end[at] = s[halt], q, f[halt]
        return ~halt

    while r.size:
        dead = arr.dead[s]
        if np.count_nonzero(dead):  # a dead state stops without a draw
            go = stop(dead, math.inf)
            r, s, f = r[go], s[go], f[go]
        q = flat[f] * arr.w[s]
        f += 1
        halt = q > arr.z[s]
        if np.count_nonzero(halt):
            go = stop(halt, q[halt])
            r, s, f = r[go], s[go], f[go]
        total = spent[r] + arr.charge[s]
        if limit is not None:
            over = total > limit
            if np.count_nonzero(over):
                go = stop(over, -math.inf)
                r, s, f, total = r[go], s[go], f[go], total[go]
        spent[r] = total
        u = flat[f]
        f += 1
        k = s * arr.width
        for cum in arr.cum:
            k += u >= cum[s]
        s = arr.kids[k]
    ptr[rows] = f_end[rows] - rows * width
    s = state[rows]
    return s, arr.levels[(q_end[rows, None] <= arr.cuts[s]).argmax(axis=1)]


def batched_runs(plan, tables, rules, seed_key: int, reps: int):
    """`policies._scalar_runs` with the replications of a chunk in lockstep:
    per replication, its value and its spend."""
    base, start, capped, _, _, after_rows, finish_rows = rules
    values = np.full(reps, base, dtype=float)
    spent = np.zeros(reps)
    if not start:
        return values, spent
    (start_key,) = start
    arms = [_ArmArrays(tables[ra.arm_id]) for ra in plan.order]
    avail = plan.budget if capped else None
    for lo, draws in _window_chunks(seed_key, reps, _draw_width(plan, tables)):
        n = len(draws)
        vals, sp = values[lo : lo + n], spent[lo : lo + n]  # views: the chunk writes through
        ptr = np.zeros(n, dtype=np.intp)
        key = tuple(np.full(n, k, dtype=float) for k in start_key)
        live = np.arange(n)
        for arr in arms:
            before = sp[live]
            state, level = _walk_lockstep(arr, live, draws, ptr, sp, avail)
            gain, key, go = after_rows(arr.tab, key, state, level, sp[live] - before)
            vals[live] += gain
            live, key = live[go], tuple(k[go] for k in key)
            if not live.size:
                break
        else:
            vals[live] += finish_rows(key)
    return values, spent
