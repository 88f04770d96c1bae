"""Exact linear solving of graded systems at c = 1.

Every system the package solves is graded: each nonzero entry is a
single power of c, and there are integer row potentials p and column
potentials g (the right-hand side b counted as one more column) with
entry (r, j) = q * c^(p_r - g_j).  Then A = D_row * A|_{c=1} * D_col with
invertible diagonal powers of c, so the rank over Q(c) is the rank at
c = 1, and x_j = xi_j * c^(g_j - g_b) solves A x = b whenever xi solves
the system at c = 1.  The grading is checked before any rank is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Sequence

from .errors import NotGraded
from .scalars import CScalar

_F0 = Fraction(0)


def _at_one(s: CScalar | None) -> Fraction:
    """Value at c = 1 of a zero or monomial entry."""
    return next(iter(s.terms.values()), _F0) if s else _F0


def _potentials(cols: Sequence[Dict[Hashable, CScalar]]) -> List[int]:
    """Column potentials g of a graded system, found by walking the
    bipartite row/column graph; raises NotGraded naming an entry that is
    not a single power of c or whose power conflicts with the others."""
    powers: List[list] = [[] for _ in cols]     # column -> (row, power)
    by_row: Dict[Hashable, list] = {}           # row -> (column, power)
    for j, col in enumerate(cols):
        for key, s in col.items():
            if s:
                if not s.is_monomial():
                    raise NotGraded(key, j, s)
                (k, _), = s.terms.items()
                powers[j].append((key, k))
                by_row.setdefault(key, []).append((j, k))
    g: List[int | None] = [None] * len(cols)
    p: Dict[Hashable, int] = {}
    for start in range(len(cols)):
        if g[start] is not None:
            continue
        g[start] = 0
        stack = [start]
        while stack:
            j = stack.pop()
            for key, k in powers[j]:
                if key in p:
                    if p[key] - g[j] != k:
                        raise NotGraded(key, j, cols[j][key])
                    continue
                p[key] = g[j] + k
                for j2, k2 in by_row[key]:
                    if g[j2] is None:
                        g[j2] = p[key] - k2
                        stack.append(j2)
    return g


class SpanSolver:
    """Solve  sum_i x_i * col_i = b  exactly for CScalar unknowns.

    Columns are dicts key->CScalar.  Rows (one per key) are fed at c = 1
    into an incremental Gauss-Jordan elimination over Q; each solved
    coefficient gets its power of c back from the potentials.  The caller
    is expected to verify the reconstruction at operator level.
    """

    def __init__(self, cols: Sequence[Dict[Hashable, CScalar]]):
        self.cols = list(cols)
        self.n = len(self.cols)
        keys = set()
        for c in self.cols:
            keys.update(c.keys())
        self.keys = sorted(keys)

    def _echelon(self, b: Dict[Hashable, CScalar]) -> Dict[int, List[Fraction]]:
        """Reduced echelon form at c = 1 of the rows of [cols | b], one
        row per key, as pivot column -> row with pivot entry 1."""
        n = self.n
        echelon: Dict[int, List[Fraction]] = {}
        extra = sorted(set(b).difference(self.keys))
        for key in self.keys + extra:
            if len(echelon) == n:
                break
            row = [_at_one(c.get(key)) for c in self.cols]
            row.append(_at_one(b.get(key)))
            for p, erow in echelon.items():
                f = row[p]
                if f:
                    row = [x - f * y for x, y in zip(row, erow)]
            pcol = next((j for j in range(n) if row[j]), None)
            if pcol is None:
                continue
            piv = row[pcol]
            row = [x / piv for x in row]
            # keep the form reduced, so each pivot row's last entry is x
            for p, erow in echelon.items():
                f = erow[pcol]
                if f:
                    echelon[p] = [x - f * y for x, y in zip(erow, row)]
            echelon[pcol] = row
        return echelon

    def solve(self, b: Dict[Hashable, CScalar]) -> List[CScalar]:
        n = self.n
        if n == 0:
            return []
        g = _potentials(self.cols + [b])
        echelon = self._echelon(b)
        # missing pivots get x = 0 (caller verifies residual)
        return [CScalar.c_power(g[j] - g[n], echelon[j][n])
                if j in echelon else CScalar.zero() for j in range(n)]

    def rank(self) -> int:
        """Rank of the column set (no right-hand side)."""
        _potentials(self.cols)
        return len(self._echelon({}))

    def nullity(self) -> int:
        return self.n - self.rank()
