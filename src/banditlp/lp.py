"""Minimal self-contained linear programming: model, simplex solver, text dump.

The relaxations are solved by `relaxations.solve_relaxation`'s decomposition,
not here, and so is its master (`relaxations._Master`, a warm-started revised
simplex that reuses this module's pivot rules and tolerances by name).  This
module is the model (`--dump-lp`, the HiGHS cross-checks,
`check_feasibility`) and the tableau reference solver: `solve_lp` and its
engine `_simplex`, the test oracle for the relaxations and for the master.

The solver is a dense two-phase tableau simplex.  Entering columns follow
Dantzig's rule until a streak of degenerate pivots, then Bland's rule until
the objective moves again, which guarantees termination on the highly
degenerate relaxations this package produces.  Everything is deterministic
for a fixed input.

Each Gauss-Jordan elimination touches only the rows whose entry in the
entering column is nonzero.  The relaxations' flow and cap rows involve a
handful of states each, so a pivot on a per-arm DAG updates a few dozen of
several hundred rows.  A skipped row would only have had +-0.0 subtracted,
which can change the sign of a zero entry but no magnitude, so every
comparison, pivot and returned value is what a full-tableau update gives.
The artificial columns and the phase-1 cost row are dropped once phase 1
ends.

Each finite upper bound on a free variable is one ``<=`` row after the
constraints, in variable order, and the LP is solved in one attempt.  Models
declare only the bounds that can bind: the relaxations' occupation
probabilities are at most 1 by their flow and cap rows already, so they are
declared ``[0, inf)`` and the tableau holds only the constraint rows.

Tolerances:

==========================  =====  ==========================================
name                        value  guards
==========================  =====  ==========================================
``DEFAULT_TOL``             1e-7   feasibility of the returned point (bounds;
                                   rows scaled by ``1 + |rhs|``); overridable
                                   by the ``tol`` argument
``_PIVOT_EPS``              1e-10  smallest usable pivot in the ratio test and
                                   in the post-phase-1 basis repair; a step
                                   no longer than this counts as degenerate
``_OPT_EPS``                1e-9   reduced cost below ``-_OPT_EPS`` enters
``_TIE_EPS``                1e-12  ratios within this of the minimum tie;
                                   the smallest basic index leaves
``_INFEASIBLE_EPS``         1e-8   phase-1 optimum above this, scaled by
                                   ``1 + max|b|``, means infeasible
``_SNAP_EPS``               1e-9   a value this close to a bound snaps to it
                                   (capped by the feasibility tolerance)
``_DEGENERATE_STREAK``      30     degenerate pivots in a row before Bland's
                                   rule takes over
==========================  =====  ==========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

DEFAULT_TOL = 1e-7
_PIVOT_EPS = 1e-10
_OPT_EPS = 1e-9
_TIE_EPS = 1e-12
_INFEASIBLE_EPS = 1e-8
_SNAP_EPS = 1e-9
_DEGENERATE_STREAK = 30


class LPSolverError(RuntimeError):
    """Numerical failure (non-convergence or an inconsistent final basis)."""


@dataclass
class LinearConstraint:
    coeffs: dict[str, float]
    relation: str  # "<=" or "=="
    rhs: float
    name: str = ""


@dataclass
class LinearProgram:
    """Maximize objective . x subject to linear constraints and box bounds."""

    variables: list[tuple[str, float, float]]  # (name, lower, upper); upper may be inf
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)

    def check_well_formed(self) -> None:
        """Raise ValueError naming a malformed variable, row or term.

        Every number must be finite, except that an upper bound may be +inf.
        """
        names = set()
        for name, lb, ub in self.variables:
            if name in names:
                raise ValueError(f"duplicate variable {name!r}")
            names.add(name)
            if not math.isfinite(lb):
                raise ValueError(f"variable {name!r} needs a finite lower bound")
            if math.isnan(ub):
                raise ValueError(f"variable {name!r} has a NaN upper bound")
            if lb > ub:
                raise ValueError(f"variable {name!r} has lower bound {lb} > upper bound {ub}")
        for con in self.constraints:
            if con.relation not in ("<=", "=="):
                raise ValueError(f"constraint relation must be <= or ==, got {con.relation!r}")
            for v in con.coeffs:
                if v not in names:
                    raise ValueError(f"constraint {con.name!r} references undeclared variable {v!r}")
        for v in self.objective:
            if v not in names:
                raise ValueError(f"objective references undeclared variable {v!r}")
        # A non-finite term makes the sum non-finite (NaN stays NaN, inf stays
        # inf or meets -inf in a NaN); the loops run only to name the culprit,
        # and find none when a sum of finite terms merely overflowed.
        total = sum(chain.from_iterable(con.coeffs.values() for con in self.constraints))
        total += sum(con.rhs for con in self.constraints) + sum(self.objective.values())
        if not math.isfinite(total):
            for idx, con in enumerate(self.constraints):
                label = con.name or f"c{idx}"
                if not math.isfinite(con.rhs):
                    raise ValueError(f"constraint {label!r} has a non-finite right-hand side {con.rhs}")
                for v, c in con.coeffs.items():
                    if not math.isfinite(c):
                        raise ValueError(f"constraint {label!r} has a non-finite coefficient {c} on {v!r}")
            for v, c in self.objective.items():
                if not math.isfinite(c):
                    raise ValueError(f"objective has a non-finite coefficient {c} on {v!r}")


@dataclass
class LPSolutionRaw:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: dict[str, float]
    objective_value: float | None
    pivots: int = 0  # every pivot, both phases and the basis repair between them
    bland_pivots: int = 0  # pivots whose entering column Bland's rule chose


def check_feasibility(
    lp: LinearProgram, values: Mapping[str, float], tol: float | None = None
) -> list[tuple[str, float]]:
    """Violations of constraints/bounds beyond tol, as (description, amount)."""
    tol = DEFAULT_TOL if tol is None else tol
    out: list[tuple[str, float]] = []
    for name, lb, ub in lp.variables:
        v = values.get(name, 0.0)
        if v < lb - tol:
            out.append((f"bound {name} >= {lb}", lb - v))
        if v > ub + tol:
            out.append((f"bound {name} <= {ub}", v - ub))
    for idx, con in enumerate(lp.constraints):
        lhs = sum(c * values.get(n, 0.0) for n, c in con.coeffs.items())
        slack = lhs - con.rhs
        label = con.name or f"c{idx}"
        scale = 1.0 + abs(con.rhs)
        if con.relation == "<=" and slack > tol * scale:
            out.append((f"constraint {label}", slack))
        elif con.relation == "==" and abs(slack) > tol * scale:
            out.append((f"constraint {label}", abs(slack)))
    return out


def objective_value(lp: LinearProgram, values: Mapping[str, float]) -> float:
    return sum(c * values.get(n, 0.0) for n, c in lp.objective.items())


def solve_lp(lp: LinearProgram, tol: float | None = None) -> LPSolutionRaw:
    """Solve a small LP to optimality with a deterministic two-phase simplex."""
    tol = DEFAULT_TOL if tol is None else tol
    lp.check_well_formed()

    names = [v[0] for v in lp.variables]
    lb = np.array([v[1] for v in lp.variables], dtype=float)
    ub = np.array([v[2] for v in lp.variables], dtype=float)
    index = {n: i for i, n in enumerate(names)}
    n_all = len(names)

    fixed = lb == ub
    free_idx = [i for i in range(n_all) if not fixed[i]]
    col_of = {i: j for j, i in enumerate(free_idx)}
    n = len(free_idx)

    # Rows over shifted variables y = x - lb >= 0, then y_j <= ub_j - lb_j.
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    rels: list[str] = []
    for con in lp.constraints:
        a = np.zeros(n)
        b = float(con.rhs)
        for name, c in con.coeffs.items():
            i = index[name]
            b -= c * lb[i]
            if not fixed[i]:
                a[col_of[i]] += c
        rows.append(a)
        rhs.append(b)
        rels.append(con.relation)
    for j, i in enumerate(free_idx):
        if math.isfinite(ub[i]):
            a = np.zeros(n)
            a[j] = 1.0
            rows.append(a)
            rhs.append(ub[i] - lb[i])
            rels.append("<=")
    cost = np.zeros(n)
    for name, c in lp.objective.items():
        i = index[name]
        if not fixed[i]:
            cost[col_of[i]] = -c  # maximize c.x  ==  minimize -c.y (constants aside)

    status, y, pivots, bland_pivots = _simplex(rows, rhs, rels, cost)
    if status != "optimal":
        return LPSolutionRaw(status, {}, None, pivots, bland_pivots)

    snap = min(tol, _SNAP_EPS)
    values: dict[str, float] = {}
    for i, name in enumerate(names):
        if fixed[i]:
            v = lb[i]
        else:
            v = lb[i] + y[col_of[i]]
            if abs(v - lb[i]) <= snap:
                v = lb[i]
            elif abs(v - ub[i]) <= snap:
                v = ub[i]
            v = min(max(v, lb[i]), ub[i])
        values[name] = float(v)

    bad = check_feasibility(lp, values, tol)
    if bad:
        worst = max(bad, key=lambda kv: kv[1])
        raise LPSolverError(f"solver returned an infeasible point: {worst[0]} by {worst[1]:.3g}")
    return LPSolutionRaw("optimal", values, objective_value(lp, values), pivots, bland_pivots)


def _simplex(
    rows: list[np.ndarray], rhs: list[float], rels: list[str], cost: np.ndarray
) -> tuple[str, np.ndarray, int, int]:
    """Minimize cost . y over the rows, y >= 0.

    Returns the status, y (zeros unless optimal), the pivot count and the
    Bland pivot count.
    """
    n = cost.size
    b_scale = 1.0 + float(np.abs(rhs).max(initial=0.0))

    m = len(rows)
    n_slack = sum(1 for r in rels if r == "<=")

    # Assemble equalities A y + S s = b with b >= 0; artificials where needed.
    A = np.zeros((m, n + n_slack))
    b = np.array(rhs, dtype=float)
    basis = [-1] * m
    art_rows = []
    si = 0
    for r in range(m):
        A[r, :n] = rows[r]
        if rels[r] == "<=":
            A[r, n + si] = 1.0
            slack_col = n + si
            si += 1
        else:
            slack_col = None
        if b[r] < 0:
            A[r] = -A[r]
            b[r] = -b[r]
            slack_col = None  # slack coefficient is now -1, unusable as basis
        if slack_col is not None:
            basis[r] = slack_col
        else:
            art_rows.append(r)

    n_art = len(art_rows)
    total = n + n_slack + n_art
    T = np.zeros((m, total + 1))
    T[:, : n + n_slack] = A
    T[:, -1] = b
    for k, r in enumerate(art_rows):
        T[r, n + n_slack + k] = 1.0
        basis[r] = n + n_slack + k

    # Cost rows (minimization form), with the negated objective in the last slot.
    c2 = np.zeros(total + 1)
    c2[:n] = cost
    c1 = np.zeros(total + 1)
    c1[n + n_slack : n + n_slack + n_art] = 1.0
    for r in art_rows:
        c1 -= T[r]

    costs = [c1, c2]  # cost rows kept in step with T
    max_iter = 50_000
    pivots = 0
    bland_pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots
        T[r] /= T[r, j]
        nz = T[:, j].nonzero()[0]
        nz = nz[nz != r]  # the other rows would only lose +-0.0
        T[nz] -= np.multiply.outer(T[nz, j], T[r])
        for crow in costs:
            if abs(crow[j]) > 0:
                crow -= crow[j] * T[r]
        basis[r] = j
        pivots += 1

    def run(cost: np.ndarray, allowed: int) -> str:
        """Pivot to optimality of `cost` over columns [0, allowed). Returns status."""
        nonlocal bland_pivots
        degenerate = 0
        bland = False
        while True:
            if pivots > max_iter:
                raise LPSolverError("simplex did not converge (iteration limit)")
            red = cost[:allowed]
            if bland:
                cands = np.nonzero(red < -_OPT_EPS)[0]
                if cands.size == 0:
                    return "optimal"
                j = int(cands[0])
            else:
                j = int(red.argmin())
                if red[j] >= -_OPT_EPS:
                    return "optimal"
            colvals = T[:, j]
            rows_in = (colvals > _PIVOT_EPS).nonzero()[0]
            if not rows_in.size:
                return "unbounded"
            ratios = T[rows_in, -1] / colvals[rows_in]
            best = ratios.min()
            ties = rows_in[ratios <= best + _TIE_EPS].tolist()
            r = ties[0] if len(ties) == 1 else min(ties, key=basis.__getitem__)
            if bland:
                bland_pivots += 1
            if best <= _PIVOT_EPS:
                degenerate += 1
                if degenerate >= _DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate = 0
                bland = False
            pivot(r, j)

    y = np.zeros(n + n_slack)
    # Phase 1: drive out artificials.
    if n_art:
        status = run(c1, total)
        phase1 = -c1[-1]
        if status != "optimal" or phase1 > _INFEASIBLE_EPS * b_scale:
            return "infeasible", y[:n], pivots, bland_pivots
        # Phase 2 never prices the artificials or reads c1: move the right-hand
        # side into the first artificial column and stop carrying the rest.
        k = n + n_slack
        T[:, k] = T[:, -1]
        T = T[:, : k + 1]
        c2[k] = c2[-1]
        c2 = c2[: k + 1]
        costs = [c2]
        drop: list[int] = []
        for r in range(m):
            if basis[r] >= n + n_slack:
                row = T[r, : n + n_slack]
                nz = np.nonzero(np.abs(row) > _PIVOT_EPS)[0]
                if nz.size:
                    pivot(r, int(nz[0]))
                else:
                    drop.append(r)  # redundant constraint
        if drop:
            keep = [r for r in range(m) if r not in set(drop)]
            T = T[keep]
            basis = [basis[r] for r in keep]
            m = len(keep)

    status = run(c2, n + n_slack)
    if status == "optimal":
        for r in range(m):
            y[basis[r]] = T[r, -1]
    return status, y[:n], pivots, bland_pivots


def format_lp(lp: LinearProgram) -> str:
    """Render in the conventional LP text interchange format."""

    def term_str(coeffs: Mapping[str, float]) -> str:
        parts: list[str] = []
        for name, c in coeffs.items():
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign} {mag:.17g} {name}".strip())
        return " ".join(parts) if parts else "0"

    lines = ["Maximize", f" obj: {term_str(lp.objective)}", "Subject To"]
    for idx, con in enumerate(lp.constraints):
        rel = "<=" if con.relation == "<=" else "="
        label = con.name or f"c{idx}"
        lines.append(f" {label}: {term_str(con.coeffs)} {rel} {con.rhs:.17g}")
    lines.append("Bounds")
    for name, lb, ub in lp.variables:
        hi = "+inf" if math.isinf(ub) else f"{ub:.17g}"
        lines.append(f" {lb:.17g} <= {name} <= {hi}")
    lines.append("End")
    return "\n".join(lines) + "\n"
