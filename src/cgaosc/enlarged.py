"""Enlarged generator sets: the second-order operators w_{i,j} = {w_i, w_j}
added to the CGA, closing both as an ordinary Lie algebra and as a
Z2-graded algebra on the very same realized operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from typing import Dict, List, Tuple

from .errors import GradingViolation, JacobiFailure, LinearlyDependent
from .linsolve import SpanSolver
from .realizations import (AlgebraElement, C_LABEL, GenLabel, SpanBasis,
                           StructureTable, Z_MINUS, Z_PLUS, Z_ZERO,
                           free_span, label_sort_key, label_str, w_indices,
                           w_label, ww_label)
from .scalars import HalfInt, check_half_odd, from_raw, numerators
from .weyl import WeylOp


@dataclass
class EnlargedBasis:
    """The CGA operators of span with every {w_i, w_j} adjoined; the
    ranks and both structure tables are derived on first use."""
    span: SpanBasis = field(compare=False, repr=False)
    even: List[GenLabel]
    odd: List[GenLabel]
    realized: Dict[GenLabel, WeylOp]

    @property
    def labels(self) -> List[GenLabel]:
        return sorted(self.even + self.odd, key=label_sort_key)

    @cached_property
    def dims(self) -> Tuple[int, int]:
        """The certified (even, odd) rank of the realized operators."""
        return _certified_dims(self)

    @cached_property
    def tables(self) -> Tuple[StructureTable, StructureTable]:
        """The plain (ECGA) and the graded (SCGA) structure table.

        Only the CGA table (the table of span) is computed from the
        operators; the rest follows from it by the Leibniz rule.  That is
        their table only if they are independent, which dims certifies
        first."""
        self.dims  # raises LinearlyDependent before any table exists
        return _leibniz_tables(self)


def build_enlarged(span: SpanBasis) -> EnlargedBasis:
    """Adjoin all anticommutators {w_i, w_j} (i >= j) to the CGA set of
    span."""
    gens = span.gens
    realized = dict(gens)
    ws = w_indices(span.chart.ell)
    even = [Z_PLUS, Z_ZERO, Z_MINUS, C_LABEL]
    odd = [w_label(j) for j in ws]
    for a, i in enumerate(ws):
        for j in ws[:a + 1]:
            lbl = ww_label(i, j)
            realized[lbl] = gens[w_label(i)].anticommutator(gens[w_label(j)])
            even.append(lbl)
    return EnlargedBasis(span=span,
                         even=sorted(even, key=label_sort_key),
                         odd=sorted(odd, key=label_sort_key),
                         realized=realized)


@lru_cache(maxsize=None)
def free_enlarged(ell: HalfInt) -> EnlargedBasis:
    """Enlarged basis over the free-chart realization, cached per ell,
    on the operators and the CGA table of free_span(ell)."""
    return build_enlarged(free_span(ell))


def expected_dims(ell: HalfInt) -> Tuple[int, int, int]:
    """(even, odd, ecga) dimension formulas; integers for every
    half-odd ell, and raises BadEll for any other."""
    lf = check_half_odd(ell).as_fraction()
    even = 2 * lf ** 2 + 3 * lf + 5
    odd = 2 * lf + 1
    ecga = 2 * lf ** 2 + 5 * lf + 6
    return int(even), int(odd), int(ecga)


def closure_tables(basis: EnlargedBasis
                   ) -> Tuple[StructureTable, StructureTable]:
    """The plain (ECGA) and the graded (SCGA) structure table over the
    same realized operators: basis.tables, built once per basis."""
    return basis.tables


def _certified_dims(basis: EnlargedBasis) -> Tuple[int, int]:
    """(even, odd) rank of the realized operators, summed over their
    z0-degree groups, where w{i,j} has the degree of w_i plus that of
    w_j and a half-odd degree is odd.  Raises LinearlyDependent naming
    a group whose rank is below its size."""
    twice = {lb: d.twice for lb, d in basis.span.degrees.items()}
    groups: Dict[int, List[GenLabel]] = {}
    for lb in basis.labels:
        if lb[0] == "ww":
            twice[lb] = twice[("w", lb[1])] + twice[("w", lb[2])]
        groups.setdefault(twice[lb], []).append(lb)
    dims = [0, 0]
    for deg2, labels in groups.items():
        rank = SpanSolver([basis.realized[lb].terms for lb in labels]).rank()
        if rank < len(labels):
            raise LinearlyDependent(
                f"the realized operators of degree {HalfInt(deg2)} have "
                f"rank {rank}: {', '.join(map(label_str, labels))}")
        dims[deg2 % 2] += rank
    return dims[0], dims[1]


def _leibniz_tables(basis: EnlargedBasis
                    ) -> Tuple[StructureTable, StructureTable]:
    """Both enlarged tables from basis.span.table by int sums, without a
    Weyl product.  In label order, [x, w{i,j}] = {[x, w_i], w_j} +
    {w_i, [x, w_j]}, with [x, w] read from the entries before it; the
    graded table's odd-odd entries are {w_i, w_j} = w{i,j}.
    GradingViolation names a pair [x, w] outside span{w} + Q(c)c."""
    labels, odd = basis.labels, frozenset(basis.odd)
    span_w = odd | {C_LABEL}
    ww = {(a, b): ww_label(HalfInt(a[1]), HalfInt(b[1]))
          for a in odd for b in odd}
    plain = {pair: elem for pair, elem in basis.span.table.entries.items()
             if elem.terms}
    flat, den = numerators({(pair, lb): cs for pair, elem in plain.items()
                            if not odd.isdisjoint(pair)
                            for lb, cs in elem.terms.items()})
    rows: Dict[tuple, dict] = {}
    for (pair, lb), raw in flat.items():
        rows.setdefault(pair, {})[lb] = raw
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            if y[0] == "ww":
                acc: Dict[GenLabel, dict] = {}
                for wi, wj in ((("w", y[1]), ("w", y[2])),
                               (("w", y[2]), ("w", y[1]))):
                    # {[x, wi], wj}, where a c in [x, wi] is realized as c*1
                    row, sign = rows.get((x, wi)), 1
                    if row is None:
                        row, sign = rows.get((wi, x), {}), -1
                    if not row.keys() <= span_w:
                        elem = plain[(x, wi)] if sign > 0 else -plain[(wi, x)]
                        raise GradingViolation(
                            f"bracket ({label_str(x)}, {label_str(wi)}) is "
                            f"outside span{{w}} + Q(c)c: {elem!r}")
                    for lb, raw in row.items():
                        key, shift, f = ((wj, 1, 2 * sign) if lb == C_LABEL
                                         else (ww[lb, wj], 0, sign))
                        t = acc.setdefault(key, {})
                        for k, q in raw.items():
                            t[k + shift] = t.get(k + shift, 0) + f * q
                if not acc:
                    continue
                elem = AlgebraElement(from_raw(acc, den))
                if elem.terms:
                    plain[(x, y)] = elem
                    if x in odd:
                        rows[(x, y)] = acc
    graded = {pair: elem for pair, elem in plain.items()
              if not set(pair) <= odd}
    graded.update({(a, b): AlgebraElement.of(ww[a, b])
                   for i, a in enumerate(basis.odd) for b in basis.odd[i:]})
    return (StructureTable(labels, plain),
            StructureTable(labels, graded, odd))


# -- Jacobi verification on extracted tables --------------------------------

def check_jacobi(table: StructureTable, graded: bool) -> int:
    """Verify the (graded) Jacobi identity on every ordered triple.

    With the table's adjoint maps ad[x][d] = [x, d}, a triple (a, b, d)
    is checked in derivation form
        [[a,b},d} = [a,[b,d}} - (-1)^{|a||b|} [b,[a,d}},
    all parities even for the plain table.  The form is (-1)^{|a||d|}
    times the graded-cyclic Jacobi sum, and it is graded-antisymmetric in
    (a, b), so for a graded-antisymmetric bracket that keeps parity its
    residual at any ordered triple is +- its residual at the sorted
    triple: the n(n+1)(n+2)/6 triples a <= b <= d in label order cover
    all n^3.  A StructureTable is both by construction, with the parities
    of table.odd; graded says which table the caller means, and a table
    whose grading disagrees raises GradingViolation.

    The sums walk only the nonzero brackets, as (label, c-power,
    numerator) over the table-wide denominator D: for each pair a <= b,
    one sum keyed (d, label, c-power) over every d >= b, so any Laurent
    coefficient is checked exactly.  Returns n^3; raises JacobiFailure at
    the first sorted triple with a nonzero residual lhs - rhs (over D^2)."""
    labels, odd = table.labels, table.odd
    if graded != bool(odd):
        raise GradingViolation(f"graded={graded} but the table's odd labels "
                               f"are {sorted(odd, key=label_sort_key)}")
    den = lcm(*(q.denominator for elem in table.entries.values()
                for cs in elem.terms.values() for q in cs.terms.values()))
    pos = table.position
    ad: List[Dict[int, tuple]] = [{} for _ in labels]
    for (a, b), elem in table.entries.items():
        row = tuple((pos[lb], k, q.numerator * (den // q.denominator))
                    for lb, cs in elem.terms.items()
                    for k, q in cs.terms.items())
        ad[pos[a]][pos[b]] = row
        if a != b:  # the sign bracket(b, a) gives the mirrored entry
            ad[pos[b]][pos[a]] = (row if a in odd and b in odd else
                                  tuple((e, k, -q) for e, k, q in row))
    n = len(labels)
    for i in range(n):
        for j in range(i, n):
            sign = -1 if labels[i] in odd and labels[j] in odd else 1
            acc: Dict[tuple, int] = {}
            # [[a,b},d}, then -[a,[b,d}} and sign * [b,[a,d}}
            for e, ke, qe in ad[i].get(j, ()):
                for d, row in ad[e].items():
                    if d >= j:
                        for lb, k, q in row:
                            key = (d, lb, ke + k)
                            acc[key] = acc.get(key, 0) + qe * q
            for outer, inner, s in ((ad[j], ad[i], -1),
                                    (ad[i], ad[j], sign)):
                for d, row in outer.items():
                    if d >= j:
                        for e, ke, qe in row:
                            qe *= s
                            for lb, k, q in inner.get(e, ()):
                                key = (d, lb, ke + k)
                                acc[key] = acc.get(key, 0) + qe * q
            d = min((key[0] for key, v in acc.items() if v), default=None)
            if d is not None:
                res: Dict[GenLabel, dict] = {}
                for (dd, lb, k), v in acc.items():
                    if dd == d:
                        res.setdefault(labels[lb], {})[k] = v
                raise JacobiFailure((labels[i], labels[j], labels[d]),
                                    AlgebraElement(from_raw(res, den * den)),
                                    "graded" if graded else "plain")
    return n ** 3


def _check_sector(table: StructureTable, sector: List[GenLabel],
                  name: str) -> None:
    """Raise GradingViolation at the first pair of the sector, in label
    order, whose bracket in table leaves it, showing the part outside."""
    sector = sorted(sector, key=label_sort_key)
    inside = set(sector)
    for i, a in enumerate(sector):
        for b in sector[i:]:
            outside = {lb: v for lb, v in table.bracket(a, b).terms.items()
                       if lb not in inside}
            if outside:
                raise GradingViolation(
                    f"bracket ({label_str(a)}, {label_str(b)}) leaves the "
                    f"{name} sector: {AlgebraElement(outside)!r}")


def duality_report(basis: EnlargedBasis) -> Tuple[int, int]:
    """Both compatible structures on the same realized operators: the
    dimensions of the sp sector (the w_{i,j}), closed in the plain
    table, and of the osp sector (the w_{i,j} and the w_j), closed in
    the graded one; GradingViolation names a pair that leaves its
    sector.  The Jacobi identities of the two tables are check_jacobi's,
    not this check's."""
    ecga_table, scga_table = closure_tables(basis)
    ww = [lb for lb in basis.even if lb[0] == "ww"]
    osp = ww + basis.odd
    _check_sector(ecga_table, ww, "sp")
    _check_sector(scga_table, osp, "osp")
    return len(ww), len(osp)
