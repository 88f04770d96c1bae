"""Generator factories for the centrally extended Conformal Galilei
Algebras at any half-odd integer ell, in both charts, together with
structure-constant extraction from the realizations.

Generator labels are plain tuples so they sort deterministically:
  ("z", 1) ("z", 0) ("z", -1)   sl(2) triple
  ("w", 2j)                     spin multiplet, j in half-integer steps
  ("c",)                        central charge
  ("ww", 2i, 2j), i >= j        anticommutators {w_i, w_j}
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from types import MappingProxyType
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import (BadTableEntry, GradingViolation, NormalizationUnavailable,
                     NotClosed)
from .linsolve import SpanSolver
from .scalars import CScalar, HalfInt, LinComb, check_half_odd
from .weyl import (ANTICOMMUTATOR, COMMUTATOR, Chart, WeylOp, bracket,
                   degree_of, prepare)

GenLabel = Tuple

Z_PLUS = ("z", 1)
Z_ZERO = ("z", 0)
Z_MINUS = ("z", -1)
C_LABEL = ("c",)
_KIND_ORDER = {"z": 0, "w": 1, "c": 2, "ww": 3}


def w_label(j: HalfInt) -> GenLabel:
    return ("w", j.twice)


def ww_label(i: HalfInt, j: HalfInt) -> GenLabel:
    a, b = sorted((i.twice, j.twice), reverse=True)
    return ("ww", a, b)


def label_sort_key(label: GenLabel):
    return (_KIND_ORDER[label[0]],) + tuple(-x for x in label[1:])


def label_str(label: GenLabel) -> str:
    def half(t):
        return str(HalfInt(t))
    if label[0] == "z":
        return {1: "z+1", 0: "z0", -1: "z-1"}[label[1]]
    if label[0] == "w":
        s = half(label[1])
        return f"w{'+' if label[1] > 0 else ''}{s}"
    if label[0] == "c":
        return "c"
    return "w{%s,%s}" % (half(label[1]), half(label[2]))


def w_indices(ell: HalfInt):
    """All j = -ell .. ell in integer steps of the doubled index."""
    return [HalfInt(t) for t in range(-ell.twice, ell.twice + 1, 2)]


def positive_w_indices(ell: HalfInt):
    return [HalfInt(t) for t in range(1, ell.twice + 1, 2)]


# -- normalizations ------------------------------------------------------

class Convention(NamedTuple):
    """One printed normalization of the oscillator chart."""
    realization: str            # its generator set: section7 or section5
    twice_ell: Optional[int]    # the one ell it exists at; None: every ell
    h: Optional[Fraction]       # H = h (Omega0 - z0); None: no spectrum


# section7 is the general-ell family; the ell=3/2 fixture prints its
# realization as section5 and its spectrum convention as section6
CONVENTIONS = {
    "section7": Convention("section7", None, Fraction(2)),
    "section5": Convention("section5", 3, None),
    "section6": Convention("section5", 3, Fraction(1)),
}


def convention(ell: HalfInt, name: str,
               use: Optional[str] = None) -> Convention:
    """The entry of name, the one place that refuses a normalization:
    ValueError for a name outside the use ("realization": a generator
    set, "spectrum": one with an h, None: any), NormalizationUnavailable
    at an ell where it does not exist."""
    check_half_odd(ell)
    conv = CONVENTIONS.get(name)
    if (conv is None or (use == "realization" and conv.realization != name)
            or (use == "spectrum" and conv.h is None)):
        raise ValueError(f"unknown normalization {name!r}")
    if conv.twice_ell not in (None, ell.twice):
        raise NormalizationUnavailable(
            f"the {name} normalization exists only at "
            f"ell={HalfInt(conv.twice_ell)}")
    return conv


def delta(ell: HalfInt) -> Fraction:
    """delta = (ell + 1/2)^2 / 4: the weight of the t^delta dressing,
    and the vacuum energy per unit of h."""
    return (ell.as_fraction() + Fraction(1, 2)) ** 2 / 4


def free_generators(ell: HalfInt) -> Dict[GenLabel, WeylOp]:
    """Realized generators of the centrally extended CGA in the free
    chart (t, y_1..y_L), with delta = (ell + 1/2)^2 / 4."""
    check_half_odd(ell)
    chart = Chart("free", ell)
    L = chart.L
    lf = ell.as_fraction()
    c = CScalar.c()

    t = WeylOp.var(chart, 0)
    dt = WeylOp.der(chart, 0)

    def y(a):  # a = 1..L
        return WeylOp.var(chart, a)

    def dy(a):
        return WeylOp.der(chart, a)

    gens: Dict[GenLabel, WeylOp] = {}
    gens[Z_PLUS] = dt

    z0 = -(t * dt) - WeylOp.const(chart, delta(ell))
    for a in range(1, L + 1):
        z0 = z0 - Fraction(2 * a - 1, 2) * (y(a) * dy(a))
    gens[Z_ZERO] = z0

    zm = 2 * (t * z0) + t * (t * dt)
    for a in range(1, L):
        zm = zm - (lf + a + Fraction(1, 2)) * (y(a + 1) * dy(a))
    zm = zm - WeylOp.var(chart, 1, power=2,
                         coef=c.scale(lf + Fraction(1, 2)) * Fraction(1, 2))
    gens[Z_MINUS] = zm

    half = Fraction(1, 2)
    for j in positive_w_indices(ell):
        jf = j.as_fraction()
        # w_{+j}
        op = WeylOp.zero(chart)
        for k in range(int(lf - jf) + 1):
            op = op + Fraction(comb(int(lf - jf), k)) * (
                t.power(int(lf - jf) - k) * dy(L - k))
        gens[w_label(j)] = op
        # w_{-j}
        op = WeylOp.zero(chart)
        for k in range(int(lf - half) + 1):
            op = op + Fraction(comb(int(lf + jf), k)) * (
                t.power(int(lf + jf) - k) * dy(L - k))
        pref = Fraction(factorial(int(lf + jf)),
                        factorial(int(lf - half)) * factorial(int(lf + half)))
        for a in range(1, int(jf + half) + 1):
            fac = Fraction((-1) ** a * factorial(int(lf + half) - a),
                           factorial(int(jf + half) - a))
            op = op - (t.power(int(jf + half) - a) * y(a)).scaled(
                c.scale(pref * fac))
        gens[w_label(-j)] = op

    gens[C_LABEL] = WeylOp.const(chart, CScalar.c())
    return gens


def osc_generators(ell: HalfInt,
                   normalization: str = "section7") -> Dict[GenLabel, WeylOp]:
    """Printed oscillator-chart generators, as a new dict over the
    operators built once per process.

    normalization="section7": the general family (Gaussian weight
    lambda = -c/(2l+1), delta = (l+1/2)^2/4).
    normalization="section5": the l=3/2 fixture (weight +c/2, delta=1).
    """
    return dict(_osc_generators(ell, normalization))


@lru_cache(maxsize=None)
def _osc_generators(ell: HalfInt,
                    normalization: str) -> Dict[GenLabel, WeylOp]:
    convention(ell, normalization, "realization")
    if normalization == "section5":
        return _osc_generators_s5()
    chart = Chart("osc", ell)
    L = chart.L
    lf = ell.as_fraction()
    half = Fraction(1, 2)
    c = CScalar.c()
    inv21 = Fraction(1, int(2 * lf + 1))

    def u(a):  # a = 1..L
        return WeylOp.var(chart, a - 1)

    def du(a):
        return WeylOp.der(chart, a)

    ds = WeylOp.der(chart, 0)

    def es(tw):
        return WeylOp.exp_s(chart, HalfInt(tw))

    gens: Dict[GenLabel, WeylOp] = {}

    core = ds - WeylOp.const(chart, delta(ell))
    for a in range(1, L + 1):
        core = core - Fraction(2 * a - 1, 2) * (u(a) * du(a))
    core = core + WeylOp.var(chart, 0, power=2,
                             coef=c.scale(half * inv21))
    gens[Z_PLUS] = es(-2) * core

    gens[Z_ZERO] = -ds

    core = -ds - WeylOp.const(chart, delta(ell))
    for a in range(1, L + 1):
        core = core - Fraction(2 * a - 1, 2) * (u(a) * du(a))
    for a in range(1, L):
        core = core - (lf + half + a) * (u(a + 1) * du(a))
    core = core + WeylOp.var(chart, 0, power=2,
                             coef=c.scale(half * (inv21 - lf - half)))
    if L >= 2:
        core = core + (u(1) * u(2)).scaled(
            c.scale(half * (2 * lf + 3) * inv21))
    gens[Z_MINUS] = es(2) * core

    for j in positive_w_indices(ell):
        jf = j.as_fraction()
        # w_{+j}
        op = WeylOp.zero(chart)
        for k in range(int(lf - jf) + 1):
            op = op + Fraction(comb(int(lf - jf), k)) * du(L - k)
        if j.twice == 1:
            op = op - WeylOp.var(chart, 0, coef=c.scale(inv21))
        gens[w_label(j)] = es(-j.twice) * op
        # w_{-j}
        op = WeylOp.zero(chart)
        for k in range(int(lf - half) + 1):
            op = op + Fraction(comb(int(lf + jf), k)) * du(L - k)
        pref = Fraction(factorial(int(lf + jf)),
                        factorial(int(lf - half)) * factorial(int(lf + half)))
        for a in range(1, int(jf + half) + 1):
            fac = Fraction((-1) ** a * factorial(int(lf + half) - a),
                           factorial(int(jf + half) - a))
            op = op - u(a).scaled(c.scale(pref * fac))
        op = op - u(1).scaled(c.scale(inv21 * comb(int(lf + jf),
                                                   int(lf - half))))
        gens[w_label(-j)] = es(j.twice) * op

    gens[C_LABEL] = WeylOp.const(chart, CScalar.c())
    return gens


def _osc_generators_s5() -> Dict[GenLabel, WeylOp]:
    ell = HalfInt(3)
    chart = Chart("osc", ell)
    c = CScalar.c()
    half = Fraction(1, 2)

    u = WeylOp.var(chart, 0)
    v = WeylOp.var(chart, 1)
    du = WeylOp.der(chart, 1)
    dv = WeylOp.der(chart, 2)
    ds = WeylOp.der(chart, 0)

    def es(tw):
        return WeylOp.exp_s(chart, HalfInt(tw))

    one = WeylOp.one(chart)
    gens: Dict[GenLabel, WeylOp] = {}
    gens[Z_PLUS] = es(-2) * (ds - half * (u * du) - Fraction(3, 2) * (v * dv)
                             - one + WeylOp.var(chart, 0, power=2,
                                                coef=c.scale(half)))
    gens[Z_ZERO] = -ds
    gens[Z_MINUS] = es(2) * (-ds - half * (u * du) - Fraction(3, 2) * (v * dv)
                             - 3 * (v * du)
                             - WeylOp.var(chart, 0, power=2,
                                          coef=c.scale(half))
                             - one + (u * v).scaled(c.scale(Fraction(3))))
    gens[("w", 3)] = es(-3) * dv
    gens[("w", 1)] = es(-1) * (dv + du - u.scaled(c))
    gens[("w", -1)] = es(1) * (dv + 2 * du - u.scaled(c))
    gens[("w", -3)] = es(3) * (dv + 3 * du - 3 * v.scaled(c))
    gens[C_LABEL] = WeylOp.const(chart, CScalar.c())
    return gens


# -- structure extraction -----------------------------------------------

class AlgebraElement(LinComb):
    """Finite linear combination of generator labels."""

    __slots__ = ()
    _order = staticmethod(label_sort_key)

    @classmethod
    def of(cls, label: GenLabel, coef=1) -> "AlgebraElement":
        return cls({label: coef})

    @property
    def coeffs(self) -> Dict[GenLabel, CScalar]:
        """Read-only alias of terms."""
        return self.terms

    def realize(self, gens: Dict[GenLabel, WeylOp], chart: Chart) -> WeylOp:
        out = WeylOp.zero(chart)
        for label, coef in self.terms.items():
            out = out + gens[label].scaled(coef)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({v})*{label_str(k)}" for k, v in self.sorted_terms()]
        return " + ".join(bits)


class StructureTable:
    """Brackets of a generator set re-expanded in the generator basis,
    graded by its odd labels (none for a Lie algebra).

    Entries are stored read-only for pairs a <= b in label order;
    lookups apply the symmetry of an anticommutator iff both labels are
    odd.  BadTableEntry refuses an odd label off the table and an entry
    out of label order or off the table, GradingViolation an entry
    outside its pair's parity sector (odd iff exactly one label is odd)
    or on an even diagonal."""

    def __init__(self, labels, entries, odd=frozenset()):
        self.labels = sorted(labels, key=label_sort_key)
        self.odd = frozenset(odd)
        known = set(self.labels)
        stray = self.odd - known
        if stray:
            raise BadTableEntry("odd labels outside the table: "
                                f"{sorted(stray, key=str)}")
        for (a, b), elem in entries.items():
            unknown = [lb for lb in (a, b, *elem.terms) if lb not in known]
            if unknown:
                raise BadTableEntry(f"entry ({a}, {b}) names labels "
                                    f"outside the table: {unknown}")
            if label_sort_key(a) > label_sort_key(b):
                raise BadTableEntry(f"entry ({a}, {b}) is out of label order")
            if a == b and a not in self.odd:
                raise GradingViolation(f"diagonal entry ({a}, {b}) of an "
                                       "even label breaks antisymmetry")
            sector = (a in self.odd) != (b in self.odd)
            if any((lb in self.odd) != sector for lb in elem.terms):
                raise GradingViolation(
                    f"bracket ({a}, {b}) leaves its parity sector: {elem}")
        self.entries = MappingProxyType(dict(entries))
        self.kinds = MappingProxyType(
            {(a, b): "anticommutator" if {a, b} <= self.odd else "commutator"
             for a, b in self.entries})

    def bracket(self, a: GenLabel, b: GenLabel) -> AlgebraElement:
        key = tuple(sorted((a, b), key=label_sort_key))
        entry = self.entries.get(key)
        if entry is None:
            return AlgebraElement()
        if (a, b) != key and not {a, b} <= self.odd:
            return -entry
        return entry

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (self.labels == other.labels
                and self.entries == other.entries
                and self.odd == other.odd)


class SpanBasis:
    """Degree-graded exact span solver over a realized generator set."""

    def __init__(self, gens: Dict[GenLabel, WeylOp]):
        self.gens = gens
        some = next(iter(gens.values()))
        self.chart = some.chart
        z0 = gens[Z_ZERO]
        self.degrees: Dict[GenLabel, HalfInt] = {}
        groups: Dict[int, list] = {}
        for label, op in gens.items():
            r = degree_of(op, z0)
            if r is None:
                raise NotClosed((label, Z_ZERO), op)
            self.degrees[label] = r
            groups.setdefault(r.twice, []).append(label)
        self.groups = {k: sorted(v, key=label_sort_key)
                       for k, v in groups.items()}

    def expand(self, op: WeylOp, deg2: int) -> AlgebraElement:
        """Re-expand op, of twice the grading deg2, in the span of the
        generators of that grading; raises NotClosed on failure."""
        if op.is_zero():
            return AlgebraElement()
        labels = self.groups.get(deg2)
        if not labels:
            raise NotClosed(("<none>",), op)
        xs = SpanSolver([self.gens[lb].terms for lb in labels]).solve(
            op.terms)
        elem = AlgebraElement({lb: x for lb, x in zip(labels, xs)})
        residual = op - elem.realize(self.gens, self.chart)
        if not residual.is_zero():
            raise NotClosed(tuple(labels), residual)
        return elem

    @cached_property
    def table(self) -> StructureTable:
        """The plain structure table of gens, built on first use."""
        return bracket_tables(self.gens, span=self)[0]


def bracket_tables(realized: Dict[GenLabel, WeylOp],
                   odd: frozenset = frozenset(),
                   span: Optional[SpanBasis] = None
                   ) -> Tuple[StructureTable, StructureTable]:
    """The plain and the graded structure table of a closed realized set.

    The plain table holds every commutator; the graded one shares its
    entries of the pairs that are not both odd and holds the
    anticommutators of the odd-odd pairs (the diagonal included).
    Raises NotClosed naming the pair whose bracket leaves the span.
    span, if given, is the SpanBasis of realized."""
    span = span or SpanBasis(realized)
    labels = sorted(realized, key=label_sort_key)
    ops = {label: prepare(op) for label, op in realized.items()}
    plain, graded = {}, {}

    def expand(op, a, b):
        try:
            return span.expand(op, span.degrees[a].twice
                               + span.degrees[b].twice)
        except NotClosed as exc:
            raise NotClosed((a, b), exc.residual) from exc

    for i, a in enumerate(labels):
        for b in labels[i:]:
            odd_odd = a in odd and b in odd
            if a != b:
                comm = bracket(ops[a], ops[b], COMMUTATOR)
                if not comm.is_zero():
                    plain[(a, b)] = expand(comm, a, b)
                    if not odd_odd:
                        graded[(a, b)] = plain[(a, b)]
            if odd_odd:
                anti = bracket(ops[a], ops[b], ANTICOMMUTATOR)
                if not anti.is_zero():
                    graded[(a, b)] = expand(anti, a, b)
    return (StructureTable(labels, plain),
            StructureTable(labels, graded, odd))


def extract_structure(gens: Dict[GenLabel, WeylOp]) -> StructureTable:
    """All pairwise commutators of a closed realized set, re-expanded in
    the span of the set."""
    return bracket_tables(gens)[0]


@lru_cache(maxsize=None)
def free_span(ell: HalfInt) -> SpanBasis:
    """The SpanBasis of free_generators(ell), built once per process,
    and so its table: free_enlarged, verify onshell and
    certify_transform read it, and none may edit its gens."""
    return SpanBasis(free_generators(ell))
