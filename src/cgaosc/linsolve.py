"""Exact linear solving over the Laurent-coefficient ring.

Rows are scaled by a power of c to clear negative exponents, elimination
is fraction-free (multiply-and-subtract only) over Q[c], and divisions
happen once during back-substitution; solution components must reduce to
Laurent polynomials (monomial denominators), which is checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Sequence

from .errors import NonLaurentSolution
from .scalars import CScalar, _from_poly, _to_poly, poly_divmod, poly_trim

_F0 = Fraction(0)
_P0: List[Fraction] = []
_P1 = [Fraction(1)]


def _p_mul(a, b):
    if not a or not b:
        return _P0
    res = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    res[i + j] += x * y
    return poly_trim(res)


def _p_sub(a, b):
    n = max(len(a), len(b))
    res = [(a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0)
           for i in range(n)]
    return poly_trim(res)


def _p_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, a = poly_divmod(a, b)
        a, b = b, a
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _p_exact_div(a, b):
    q, r = poly_divmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _row_to_polys(row: Sequence[CScalar]) -> List[List[Fraction]]:
    """Scale a row of CScalars by a common power of c, return dense polys."""
    shift = min((s.min_power() for s in row if not s.is_zero()), default=0)
    out = []
    for s in row:
        if s.is_zero():
            out.append(_P0)
        else:
            poly, lo = _to_poly(s)
            out.append([_F0] * (lo - shift) + poly)
    return out


def _reduce_content(row):
    polys = [p for p in row if p]
    if not polys:
        return row
    g = polys[0]
    for p in polys[1:]:
        if len(g) == 1:
            break
        g = _p_gcd(g, p)
    if len(g) > 1:
        row = [_p_exact_div(p, g) if p else p for p in row]
    return row


class SpanSolver:
    """Solve  sum_i x_i * col_i = b  exactly for CScalar unknowns.

    Columns are dicts key->CScalar.  Rows (one per key) are fed into an
    incremental fraction-free echelon; back-substitution recovers the x_i.
    The caller is expected to verify the reconstruction at operator level.
    """

    def __init__(self, cols: Sequence[Dict[Hashable, CScalar]]):
        self.cols = list(cols)
        self.n = len(self.cols)
        keys = set()
        for c in self.cols:
            keys.update(c.keys())
        self.keys = sorted(keys)

    def _echelon(self, b: Dict[Hashable, CScalar]):
        """Fraction-free reduced echelon form of the rows of [cols | b],
        one row per key: (rows, pivot column of each row), sorted by
        pivot column."""
        n = self.n
        keys = self.keys
        zero = CScalar.zero()
        echelon: List[List[List[Fraction]]] = []   # rows in echelon form
        pivots: List[int] = []                     # pivot column per row
        extra = sorted(set(b).difference(keys))
        for key in keys + extra:
            if len(echelon) == n:
                break
            row_cs = [c.get(key, zero) for c in self.cols]
            row_cs.append(b.get(key, zero))
            if all(s.is_zero() for s in row_cs):
                continue
            row = _row_to_polys(row_cs)
            for erow, p in zip(echelon, pivots):
                if row[p]:
                    piv = erow[p]
                    mult = row[p]
                    row = [_p_sub(_p_mul(x, piv), _p_mul(mult, y))
                           for x, y in zip(row, erow)]
            pcol = next((j for j in range(n) if row[j]), None)
            if pcol is None:
                continue
            row = _reduce_content(row)
            # clear the new pivot column from the existing rows so the
            # system stays triangular for back-substitution
            for i, erow in enumerate(echelon):
                if erow[pcol]:
                    piv = row[pcol]
                    mult = erow[pcol]
                    echelon[i] = _reduce_content(
                        [_p_sub(_p_mul(x, piv), _p_mul(mult, y))
                         for x, y in zip(erow, row)])
            # keep echelon sorted by pivot column
            idx = 0
            while idx < len(pivots) and pivots[idx] < pcol:
                idx += 1
            echelon.insert(idx, row)
            pivots.insert(idx, pcol)
        return echelon, pivots

    def solve(self, b: Dict[Hashable, CScalar]) -> List[CScalar]:
        n = self.n
        if n == 0:
            return []
        zero = CScalar.zero()
        echelon, pivots = self._echelon(b)
        # back-substitute; missing pivots get x = 0 (caller verifies residual)
        x_num: List[List[Fraction]] = [_P0] * n
        x_den: List[List[Fraction]] = [_P1] * n
        for erow, p in zip(reversed(echelon), reversed(pivots)):
            num, den = erow[n], _P1
            for j in range(p + 1, n):
                if erow[j] and x_num[j]:
                    # num/den -= erow[j] * x_num[j]/x_den[j]
                    num = _p_sub(_p_mul(num, x_den[j]),
                                 _p_mul(_p_mul(erow[j], x_num[j]), den))
                    den = _p_mul(den, x_den[j])
            den = _p_mul(den, erow[p])
            if num:
                g = _p_gcd(num, den)
                if len(g) > 1:
                    num = _p_exact_div(num, g)
                    den = _p_exact_div(den, g)
            x_num[p], x_den[p] = num, den
        out = []
        for num, den in zip(x_num, x_den):
            if not num:
                out.append(zero)
                continue
            nz = [i for i, cf in enumerate(den) if cf]
            if len(nz) != 1:
                raise NonLaurentSolution(
                    "solution coefficient is not Laurent in c")
            k = nz[0]
            coef = den[k]
            out.append(_from_poly([cf / coef for cf in num], -k))
        return out

    def rank(self) -> int:
        """Rank of the column set (no right-hand side)."""
        return len(self._echelon({})[0])

    def nullity(self) -> int:
        return self.n - self.rank()
