"""The decomposition's master and its recovery as first written, kept
verbatim as reference twins of `banditlp.relaxations._Master` and
`_recover`: the library's versions must reproduce every pivot, dual, theta
and recovered value of these bit for bit (`test_decomposition.py`).

The master reads `_DEGENERATE_STREAK` from this module at call time, so a
test that patches the streak patches it here too.
"""

from __future__ import annotations

from operator import mul

from banditlp.lp import _DEGENERATE_STREAK, _INFEASIBLE_EPS, _OPT_EPS, _PIVOT_EPS, _TIE_EPS, LPSolverError
from banditlp.relaxations import _PLAY, _STOP, RelaxationSolution, _ArmStates, _clean_state


class _Master:
    """The decomposition's master, max sum_k theta_k R_k s.t. sum_k theta_k
    a_k <= b, theta >= 0, by a revised simplex whose basis is kept from one
    cut to the next.

    B^-1 is m x m plain floats (m <= 3 rows), updated by each pivot's
    elimination with the entering column d = B^-1 a_j; the start is the
    slack basis, with an artificial column -e_i instead of the slack in a
    row whose b_i is negative.  The pivot rules
    are `lp._simplex`'s, with its tolerances: Dantzig's entering rule, ties
    to the lowest column, the smallest basic index leaving on a ratio tie,
    and Bland's rule after `_DEGENERATE_STREAK` degenerate pivots until the
    objective moves again.  Columns rank as in its tableau: the cuts in the
    order they came, then the slacks, then the artificials, each by row.  A
    basis entry is a cut's index k, or -1 - i for row i's slack and
    -1 - m - i for its artificial, so (entry < 0, |entry|) is the rank.
    """

    def __init__(self, rhs: list[float]):
        m = len(rhs)

        def unit(i: int, v: float) -> tuple[float, ...]:
            return tuple(v if k == i else 0.0 for k in range(m))

        self.rhs = rhs
        self.cuts: list[tuple[float, ...]] = []  # cut k's column
        self.rewards: list[float] = []  # and its R_k
        self.slacks = [unit(i, 1.0) for i in range(m)]
        self.artificials = {i: unit(i, -1.0) for i, b in enumerate(rhs) if b < 0.0}
        self.basis = [-1 - m - i if i in self.artificials else -1 - i for i in range(m)]
        self.inv = [list(unit(i, -1.0 if i in self.artificials else 1.0)) for i in range(m)]
        self.x = [abs(b) for b in rhs]  # the basic values, B^-1 b
        self.duals = [0.0] * m  # pi = c_B B^-1 at the last optimum, clamped at 0
        self.pivots = self.bland_pivots = 0

    def add_cut(self, column: tuple[float, ...], reward: float) -> None:
        """Append a cut's column and re-optimise from the current basis.

        While an artificial is basic (the first cut under a negative
        budget), phase 1 minimises the artificials, raises ValueError when
        they stay positive and pivots any left at zero out of the basis on
        the first column with a usable entry in its row, as `lp._simplex`
        does.  The slack of the artificial's own row always has one.
        """
        self.cuts.append(column)
        self.rewards.append(reward)
        m = len(self.rhs)
        if min(self.basis) < -m:
            self._optimise(phase1=True)
            rest = sum(v for j, v in zip(self.basis, self.x) if j < -m)
            if rest > _INFEASIBLE_EPS * (1.0 + max(map(abs, self.rhs))):
                raise ValueError("relaxation LP is infeasible")
            for r in range(m):
                if self.basis[r] < -m:
                    row = self.inv[r]
                    j, a = next((j, a) for j, _, a in self._priced(False) if abs(sum(map(mul, row, a))) > _PIVOT_EPS)
                    self._pivot(r, j, self._ftran(a))
        self._optimise(phase1=False)
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
        return sum(map(mul, self.theta, self.rewards))

    def _priced(self, phase1: bool) -> list[tuple[int, float, tuple[float, ...]]]:
        """The columns that may enter as (basis entry, profit, column),
        lowest rank first: a cut's profit is its reward in phase 2, an
        artificial's -1 in phase 1, every other 0."""
        m = len(self.rhs)
        cols = [(k, 0.0 if phase1 else r, a) for k, (r, a) in enumerate(zip(self.rewards, self.cuts))]
        cols += [(-1 - i, 0.0, a) for i, a in enumerate(self.slacks)]
        if phase1:
            cols += [(-1 - m - i, -1.0, a) for i, a in self.artificials.items()]
        return cols

    def _ftran(self, column: tuple[float, ...]) -> list[float]:
        return [sum(map(mul, row, column)) for row in self.inv]

    def _optimise(self, phase1: bool) -> None:
        x, basis = self.x, self.basis
        priced = self._priced(phase1)
        profit = {j: c for j, c, _ in priced}
        degenerate, bland = 0, False
        while True:
            cb = [profit[j] for j in basis]
            pi = [sum(map(mul, cb, col)) for col in zip(*self.inv)]
            enter, best = None, _OPT_EPS
            for j, c, a in priced:
                reduced = c - sum(map(mul, pi, a))
                if reduced > best:
                    enter, best, column = j, reduced, a
                    if bland:
                        break
            if enter is None:
                self.duals = pi
                return
            d = self._ftran(column)
            rows_in = [r for r, v in enumerate(d) if v > _PIVOT_EPS]
            if not rows_in:
                raise LPSolverError("the decomposition's master is unbounded")
            step = min(x[r] / d[r] for r in rows_in)
            ties = [r for r in rows_in if x[r] / d[r] <= step + _TIE_EPS]
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


def _recover(
    arms: _ArmStates,
    cuts: list[tuple[list[list[int]], list[tuple[int, int, float]], float]],
    master: _Master,
    grid: int | None,
    gap: float,
) -> RelaxationSolution:
    """The mixture sum_k theta_k * occupancy_k of the cuts, cleaned state by
    state; the rest of the mass does nothing."""
    keyed = [ca.keys for ca in arms.compiled]
    sizes = [len(keys) for keys in keyed]
    w = [[0.0] * n for n in sizes]
    z = [[0.0] * n for n in sizes]
    x = [[[0.0] * ((grid or 1) + 1) for _ in range(n)] for n in sizes]  # levels 0..L
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
                x[i][u][a + arms.first_level] += mass
    ws: dict[tuple[str, str], float] = {}
    xs: dict[tuple[str, str], tuple[float, ...]] = {}
    zs: dict[tuple[str, str], float] = {}
    for keys, wi, zi, xi in zip(keyed, w, z, x):
        for u, key in enumerate(keys):
            ws[key] = wv = 1.0 if u == 0 else min(wi[u], 1.0)
            zs[key], xs[key] = _clean_state(key, wv, zi[u], xi[u])
    return RelaxationSolution(
        master.value, ws, xs, zs, grid, cuts=len(cuts), duality_gap=gap,
        master_pivots=master.pivots, master_bland_pivots=master.bland_pivots,
    )
