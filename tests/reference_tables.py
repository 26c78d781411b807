"""The concave value-table checks as first written, kept verbatim as the
reference twin of `banditlp.statespace.concave_diagnostics`: one pass that
raises at the first rule an instance breaks.  The solve raises the first of
`concave_diagnostics`, and on an instance without a NaN or infinite number
must raise this pass's message, or nothing when it raises nothing
(`test_relaxations.py`).  The one edit: TABLE_TOL is read from
`banditlp.statespace`, where the rules now live.
"""

from __future__ import annotations

import math

from banditlp.statespace import TABLE_TOL, BanditInstance, ConcaveProblem


def _validate_tables(instance: BanditInstance, prob: ConcaveProblem, grid: int) -> None:
    """Refuse a capacity or epsilon that is not a finite number, a sigma
    outside [0, B] (NaN included), and a value table of the wrong length,
    with an entry that is not a finite number, or that fails the checks of
    TABLE_TOL."""
    for name, v in (("capacity", prob.capacity), ("epsilon", prob.epsilon)):
        if not math.isfinite(v):
            raise ValueError(f"concave {name} must be a finite number, got {v!r}")
    for arm in instance.arms:
        tables = prob.value_tables.get(arm.arm_id)
        if tables is None:
            raise ValueError(f"missing value tables for arm {arm.arm_id!r}")
        sigma = prob.sigmas.get(arm.arm_id)
        if sigma is None or not 0 <= sigma <= prob.capacity:
            raise ValueError(f"arm {arm.arm_id!r}: sigma must lie in [0, B], got {sigma!r}")
        ca = arm.compiled()  # the reachable states and their known children, once the arm's numbers are checked
        for sid in ca.sids:
            zeta = tables.get(sid)
            if zeta is None or len(zeta) != grid + 1:
                raise ValueError(
                    f"arm {arm.arm_id!r} state {sid!r}: value table must have {grid + 1} entries"
                )
            if not all(map(math.isfinite, zeta)):
                raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table entries must be finite numbers")
            if zeta[0] < -TABLE_TOL:
                raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-negative")
            for l in range(grid):
                if zeta[l + 1] < zeta[l] - TABLE_TOL:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table must be non-decreasing")
            for l in range(1, grid):
                if zeta[l + 1] - 2 * zeta[l] + zeta[l - 1] > TABLE_TOL:
                    raise ValueError(f"arm {arm.arm_id!r} state {sid!r}: value table fails concavity")
        for sid, kids in zip(ca.sids, ca.kids):
            if not kids:
                continue
            for l in range(grid + 1):
                mean = sum(p * tables[ca.sids[c]][l] for c, p in kids)
                if tables[sid][l] < mean - TABLE_TOL:
                    raise ValueError(
                        f"arm {arm.arm_id!r} state {sid!r}: value table fails the super-martingale check at l={l}"
                    )
