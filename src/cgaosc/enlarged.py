"""Enlarged generator sets: the second-order operators w_{i,j} = {w_i, w_j}
added to the CGA, closing both as an ordinary Lie algebra and as a
Z2-graded algebra on the very same realized operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import GradingViolation, JacobiFailure, NotClosed
from .realizations import (AlgebraElement, C_LABEL, GenLabel, SpanBasis,
                           StructureTable, Z_MINUS, Z_PLUS, Z_ZERO,
                           free_generators, label_sort_key, w_indices,
                           w_label, ww_label)
from .scalars import CScalar, HalfInt, check_half_odd
from .weyl import WeylOp


def is_odd_label(label: GenLabel) -> bool:
    return label[0] == "w"


@dataclass
class EnlargedBasis:
    ell: HalfInt
    even: List[GenLabel]
    odd: List[GenLabel]
    realized: Dict[GenLabel, WeylOp]

    @property
    def labels(self) -> List[GenLabel]:
        return sorted(self.even + self.odd, key=label_sort_key)


def build_enlarged(gens: Dict[GenLabel, WeylOp], ell: HalfInt) -> EnlargedBasis:
    """Adjoin all anticommutators {w_i, w_j} (i >= j) to the CGA set."""
    realized = dict(gens)
    ws = w_indices(ell)
    even = [Z_PLUS, Z_ZERO, Z_MINUS, C_LABEL]
    odd = [w_label(j) for j in ws]
    for a, i in enumerate(ws):
        for j in ws[:a + 1]:
            lbl = ww_label(i, j)
            realized[lbl] = gens[w_label(i)].anticommutator(gens[w_label(j)])
            even.append(lbl)
    return EnlargedBasis(ell=ell,
                         even=sorted(even, key=label_sort_key),
                         odd=sorted(odd, key=label_sort_key),
                         realized=realized)


@lru_cache(maxsize=None)
def free_enlarged(ell: HalfInt) -> EnlargedBasis:
    """Enlarged basis over the free-chart realization, cached per ell."""
    return build_enlarged(free_generators(ell), ell)


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
    """Both structure tables over the same realized operators.

    Each ordered product is computed once; commutators and (odd-odd)
    anticommutators are derived from the shared pair.  Results are
    cached on the basis object."""
    cached = getattr(basis, "_tables", None)
    if cached is not None:
        return cached
    span = SpanBasis(basis.realized)
    labels = basis.labels
    even_set = set(basis.even)
    odd_set = set(basis.odd)
    c_entries, c_kinds = {}, {}
    g_entries, g_kinds = {}, {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            odd_odd = is_odd_label(a) and is_odd_label(b)
            if a == b and not odd_odd:
                continue
            ab = basis.realized[a] * basis.realized[b]
            ba = basis.realized[b] * basis.realized[a]
            deg2 = span.degrees[a].twice + span.degrees[b].twice
            if a != b:
                comm = ab - ba
                if not comm.is_zero():
                    elem = span.expand(comm, deg2)
                    c_entries[(a, b)] = elem
                    c_kinds[(a, b)] = "commutator"
                    if not odd_odd:
                        g_entries[(a, b)] = elem
                        g_kinds[(a, b)] = "commutator"
                        target = even_set if (is_odd_label(a)
                                              == is_odd_label(b)) else odd_set
                        if any(lb not in target for lb in elem.coeffs):
                            raise GradingViolation(
                                f"bracket ({a}, {b}) leaves the graded "
                                f"sector: {elem}")
            if odd_odd:
                anti = ab + ba
                if not anti.is_zero():
                    elem = span.expand(anti, deg2)
                    if any(lb not in even_set for lb in elem.coeffs):
                        raise GradingViolation(
                            f"bracket {{{a}, {b}}} leaves the even "
                            f"sector: {elem}")
                    g_entries[(a, b)] = elem
                    g_kinds[(a, b)] = "anticommutator"
    tables = (StructureTable(labels, c_entries, c_kinds),
              StructureTable(labels, g_entries, g_kinds))
    basis._tables = tables
    return tables


def verify_ecga_closure(basis: EnlargedBasis) -> StructureTable:
    """Commutator closure of the full enlarged set."""
    return closure_tables(basis)[0]


def verify_scga_graded(basis: EnlargedBasis) -> StructureTable:
    """Graded closure: odd-odd pairs anticommute into the even span,
    the rest commute into the span of matching parity."""
    return closure_tables(basis)[1]


# -- Jacobi verification on extracted tables --------------------------------

def _add_scaled(acc: Dict[GenLabel, CScalar], row: Dict[GenLabel, CScalar],
                coef: CScalar) -> None:
    """acc += coef * row, on label -> coefficient maps."""
    for lb, v in row.items():
        prev = acc.get(lb)
        acc[lb] = v * coef if prev is None else prev + v * coef


def check_jacobi(table: StructureTable, graded: bool) -> int:
    """Verify the (graded) Jacobi identity on every ordered triple.

    With the table's adjoint maps ad[x][d] = [x, d}, each pair a <= b
    and each d is checked in derivation form
        [[a,b},d} = [a,[b,d}} - (-1)^{|a||b|} [b,[a,d}},
    all parities even for the plain table.  The form is (-1)^{|a||d|}
    times the cyclic Jacobi sum, and it is graded-antisymmetric in
    (a, b), so the pairs a <= b cover all n^3 ordered triples.

    Returns n^3; raises JacobiFailure with the residual lhs - rhs."""
    labels = table.labels
    ad = {x: {d: table.bracket(x, d).coeffs for d in labels}
          for x in labels}
    odd = {x: graded and is_odd_label(x) for x in labels}
    one, minus = CScalar.one(), CScalar.from_rational(-1)
    for i, a in enumerate(labels):
        ad_a = ad[a]
        for b in labels[i:]:
            ad_b, ab = ad[b], ad_a[b]
            sign = minus if odd[a] and odd[b] else one
            for d in labels:
                res: Dict[GenLabel, CScalar] = {}
                for e, k in ab.items():
                    _add_scaled(res, ad[e][d], k)
                for e, k in ad_b[d].items():
                    _add_scaled(res, ad_a[e], -k)
                for e, k in ad_a[d].items():
                    _add_scaled(res, ad_b[e], sign * k)
                if any(res.values()):
                    raise JacobiFailure((a, b, d), AlgebraElement(res),
                                        "graded" if graded else "plain")
    return len(labels) ** 3


@dataclass
class DualityReport:
    ell: HalfInt
    even_dim: int
    odd_dim: int
    ecga_dim: int
    sp_dim: int
    osp_dim: int
    sp_closed: bool
    osp_closed: bool

    def to_json(self) -> dict:
        return {
            "ell": {"twice": self.ell.twice},
            "evenDim": self.even_dim,
            "oddDim": self.odd_dim,
            "ecgaDim": self.ecga_dim,
            "spDim": self.sp_dim,
            "ospDim": self.osp_dim,
            "spClosed": self.sp_closed,
            "ospClosed": self.osp_closed,
        }


def duality_report(basis: EnlargedBasis) -> DualityReport:
    """Confirm both compatible structures on the same realized operators,
    with the dimension table and the sector decompositions."""
    ecga_table = verify_ecga_closure(basis)
    scga_table = verify_scga_graded(basis)
    check_jacobi(ecga_table, graded=False)
    check_jacobi(scga_table, graded=True)

    ww = [lb for lb in basis.even if lb[0] == "ww"]
    ww_set = set(ww)
    sp_closed = True
    for i, a in enumerate(ww):
        for b in ww[i + 1:]:
            if any(lb not in ww_set
                   for lb in ecga_table.bracket(a, b).coeffs):
                sp_closed = False
    osp = ww + [lb for lb in basis.odd]
    osp_set = set(osp)
    osp_closed = True
    for i, a in enumerate(osp):
        for b in osp[i:]:
            if any(lb not in osp_set
                   for lb in scga_table.bracket(a, b).coeffs):
                osp_closed = False
    return DualityReport(
        ell=basis.ell,
        even_dim=len(basis.even),
        odd_dim=len(basis.odd),
        ecga_dim=len(basis.even) + len(basis.odd),
        sp_dim=len(ww),
        osp_dim=len(osp),
        sp_closed=sp_closed,
        osp_closed=osp_closed,
    )
