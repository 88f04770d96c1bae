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
from typing import Dict, Hashable, List, Sequence, Tuple

from .errors import NotGraded
from .scalars import CScalar

_F0 = Fraction(0)


def _at_one(s: CScalar | None) -> Fraction:
    """Value at c = 1 of a zero or monomial entry."""
    return next(iter(s.terms.values()), _F0) if s else _F0


def _potentials(cols: Sequence[Dict[Hashable, CScalar]]
                ) -> Tuple[List[Tuple[int, int]], Dict[Hashable, tuple]]:
    """(component, potential) per column and per row key of a graded
    system, found by walking the bipartite row/column graph; a component
    is named by its first column and fixes its own offset.  Raises
    NotGraded naming an entry that is not a single power of c or whose
    power conflicts with the others."""
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
    g: List = [None] * len(cols)
    p: Dict[Hashable, Tuple[int, int]] = {}
    for start in range(len(cols)):
        if g[start] is not None:
            continue
        g[start] = (start, 0)
        stack = [start]
        while stack:
            j = stack.pop()
            gj = g[j][1]
            for key, k in powers[j]:
                if key in p:
                    if p[key][1] - gj != k:
                        raise NotGraded(key, j, cols[j][key])
                    continue
                p[key] = (start, gj + k)
                for j2, k2 in by_row[key]:
                    if g[j2] is None:
                        g[j2] = (start, gj + k - k2)
                        stack.append(j2)
    return g, p


class SpanSolver:
    """Solve  sum_i x_i * col_i = b  exactly for CScalar unknowns.

    Columns are dicts key->CScalar.  Each question runs one reduced
    Gauss-Jordan elimination over Q at c = 1 on the rows [A_key | b_key]
    in key order, up to n pivots, chosen in A alone so that they never
    depend on b; each solved coefficient gets its power of c back from
    the potentials.  The caller is expected to verify the reconstruction
    at operator level.
    """

    def __init__(self, cols: Sequence[Dict[Hashable, CScalar]]):
        self.cols = list(cols)
        self.n = len(self.cols)
        self.potentials, self.row_potentials = _potentials(self.cols)
        self.keys = sorted({key for c in self.cols for key in c})

    def _eliminate(self, b: Dict[Hashable, CScalar]
                   ) -> Dict[int, List[Fraction]]:
        """{pivot column j: its reduced row}; entry n of that row is x_j."""
        n = self.n
        echelon: Dict[int, List[Fraction]] = {}
        for key in self.keys:
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
            # keep the form reduced, so column n of each row holds x_P
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
        gb: Dict[int, int] = {}     # b's potential per component it meets
        for key, s in b.items():
            if s and not s.is_monomial():
                raise NotGraded(key, n, s)
            if s and key in self.row_potentials:
                comp, p = self.row_potentials[key]
                g = p - min(s.terms)
                if gb.setdefault(comp, g) != g:
                    raise NotGraded(key, n, s)
        # x_P is read off column n, and x = 0 off P (caller checks residual)
        xi = {j: row[n] for j, row in self._eliminate(b).items()}
        return [CScalar.c_power(g - gb[comp], xi[j]) if xi.get(j)
                else CScalar.zero()
                for j, (comp, g) in enumerate(self.potentials)]

    def rank(self) -> int:
        """Rank of the column set (no right-hand side)."""
        return len(self._eliminate({}))

    def nullity(self) -> int:
        return self.n - self.rank()
