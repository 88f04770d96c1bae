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
from math import comb, factorial
from typing import Dict, Tuple

from .errors import GradingViolation, NormalizationUnavailable, NotClosed
from .linsolve import SpanSolver
from .scalars import CScalar, HalfInt, check_half_odd
from .weyl import Chart, WeylOp, degree_of

GenLabel = Tuple

Z_PLUS = ("z", 1)
Z_ZERO = ("z", 0)
Z_MINUS = ("z", -1)
C_LABEL = ("c",)


def w_label(j: HalfInt) -> GenLabel:
    return ("w", j.twice)


def ww_label(i: HalfInt, j: HalfInt) -> GenLabel:
    a, b = sorted((i.twice, j.twice), reverse=True)
    return ("ww", a, b)


def label_sort_key(label: GenLabel):
    order = {"z": 0, "w": 1, "c": 2, "ww": 3}
    return (order[label[0]],) + tuple(-x for x in label[1:])


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


def parse_label(s: str) -> GenLabel:
    s = s.strip()
    if s == "c":
        return C_LABEL
    if s.startswith("z"):
        return ("z", int(s[1:].replace("+", "")))
    if s.startswith("w{"):
        i, j = s[2:-1].split(",")
        return ww_label(HalfInt.from_fraction(Fraction(i)),
                        HalfInt.from_fraction(Fraction(j)))
    if s.startswith("w"):
        return ("w", HalfInt.from_fraction(Fraction(s[1:])).twice)
    raise ValueError(f"bad generator label {s!r}")


def w_indices(ell: HalfInt):
    """All j = -ell .. ell in integer steps of the doubled index."""
    return [HalfInt(t) for t in range(-ell.twice, ell.twice + 1, 2)]


def positive_w_indices(ell: HalfInt):
    return [HalfInt(t) for t in range(1, ell.twice + 1, 2)]


def free_generators(ell: HalfInt) -> Dict[GenLabel, WeylOp]:
    """Realized generators of the centrally extended CGA in the free
    chart (t, y_1..y_L), with delta = (ell + 1/2)^2 / 4."""
    check_half_odd(ell)
    chart = Chart("free", ell)
    L = chart.L
    lf = ell.as_fraction()
    delta = (lf + Fraction(1, 2)) ** 2 / 4
    c = CScalar.c()

    t = WeylOp.var(chart, 0)
    dt = WeylOp.der(chart, 0)

    def y(a):  # a = 1..L
        return WeylOp.var(chart, a)

    def dy(a):
        return WeylOp.der(chart, a)

    gens: Dict[GenLabel, WeylOp] = {}
    gens[Z_PLUS] = dt

    z0 = -(t * dt) - WeylOp.const(chart, delta)
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
    """Printed oscillator-chart generators.

    normalization="section7": the general family (Gaussian weight
    lambda = -c/(2l+1), delta = (l+1/2)^2/4).
    normalization="section5": the l=3/2 fixture (weight +c/2, delta=1).
    """
    check_half_odd(ell)
    if normalization == "section5":
        if ell.twice != 3:
            raise NormalizationUnavailable(
                "section5 normalization exists only at ell=3/2")
        return _osc_generators_s5()
    if normalization != "section7":
        raise ValueError(f"unknown normalization {normalization!r}")
    chart = Chart("osc", ell)
    L = chart.L
    lf = ell.as_fraction()
    half = Fraction(1, 2)
    delta = (lf + half) ** 2 / 4
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

    core = ds - WeylOp.const(chart, delta)
    for a in range(1, L + 1):
        core = core - Fraction(2 * a - 1, 2) * (u(a) * du(a))
    core = core + WeylOp.var(chart, 0, power=2,
                             coef=c.scale(half * inv21))
    gens[Z_PLUS] = es(-2) * core

    gens[Z_ZERO] = -ds

    core = -ds - WeylOp.const(chart, delta)
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

class AlgebraElement:
    """Finite linear combination of generator labels."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[GenLabel, CScalar] | None = None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero():
                    clean[k] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @classmethod
    def of(cls, label: GenLabel, coef=1) -> "AlgebraElement":
        c = coef if isinstance(coef, CScalar) else CScalar.from_rational(coef)
        return cls({label: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        res = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = res.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                res.pop(k, None)
            else:
                res[k] = s
        return AlgebraElement(res)

    def __sub__(self, other):
        return self + other.scaled(CScalar.from_rational(-1))

    def scaled(self, coef: CScalar) -> "AlgebraElement":
        if coef.is_zero():
            return AlgebraElement()
        return AlgebraElement({k: v * coef for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.sorted_terms()))

    def sorted_terms(self):
        return sorted(self.coeffs.items(),
                      key=lambda kv: label_sort_key(kv[0]))

    def head(self, k: int) -> "AlgebraElement":
        """The first k terms, in sorted order."""
        return AlgebraElement(dict(self.sorted_terms()[:k]))

    def realize(self, gens: Dict[GenLabel, WeylOp], chart: Chart) -> WeylOp:
        out = WeylOp.zero(chart)
        for label, coef in self.coeffs.items():
            out = out + gens[label].scaled(coef)
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = [f"({v})*{label_str(k)}" for k, v in self.sorted_terms()]
        return " + ".join(bits)


class StructureTable:
    """Brackets of a generator set re-expanded in the generator basis.

    Entries are stored for canonically ordered pairs (a <= b in label
    order); lookups apply the bracket symmetry."""

    def __init__(self, labels, entries, kinds):
        self.labels = sorted(labels, key=label_sort_key)
        self.entries: Dict[Tuple[GenLabel, GenLabel], AlgebraElement] = entries
        self.kinds: Dict[Tuple[GenLabel, GenLabel], str] = kinds

    def bracket(self, a: GenLabel, b: GenLabel) -> AlgebraElement:
        key = tuple(sorted((a, b), key=label_sort_key))
        entry = self.entries.get(key)
        if entry is None:
            return AlgebraElement()
        if (a, b) != key and self.kinds.get(key, "commutator") == "commutator":
            return entry.scaled(CScalar.from_rational(-1))
        return entry

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (self.labels == other.labels
                and self.entries == other.entries
                and self.kinds == other.kinds)


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
            if not isinstance(r, HalfInt):
                raise NotClosed((label, Z_ZERO), op)
            self.degrees[label] = r
            groups.setdefault(r.twice, []).append(label)
        self.groups = {k: sorted(v, key=label_sort_key)
                       for k, v in groups.items()}
        self._solvers: Dict[int, SpanSolver] = {}

    def expand(self, op: WeylOp, deg2: int) -> AlgebraElement:
        """Re-expand op, of twice the grading deg2, in the span of the
        generators of that grading; raises NotClosed on failure."""
        if op.is_zero():
            return AlgebraElement()
        labels = self.groups.get(deg2)
        if not labels:
            raise NotClosed(("<none>",), op)
        solver = self._solvers.get(deg2)
        if solver is None:
            solver = self._solvers[deg2] = SpanSolver(
                [self.gens[lb].terms for lb in labels])
        xs = solver.solve(op.terms)
        elem = AlgebraElement({lb: x for lb, x in zip(labels, xs)})
        residual = op - elem.realize(self.gens, self.chart)
        if not residual.is_zero():
            raise NotClosed(tuple(labels), residual)
        return elem


def bracket_tables(realized: Dict[GenLabel, WeylOp],
                   odd: frozenset = frozenset()
                   ) -> Tuple[StructureTable, StructureTable]:
    """The plain and the graded structure table of a closed realized set.

    Each pair's products a*b and b*a are computed once.  The plain table
    holds every commutator; the graded one holds the commutators of the
    pairs that are not both odd and the anticommutators of odd-odd pairs
    (the diagonal included), each of which must stay in its parity
    sector.  Raises NotClosed naming the pair whose bracket leaves the
    span, GradingViolation for one that leaves its sector."""
    span = SpanBasis(realized)
    labels = sorted(realized, key=label_sort_key)
    even = frozenset(labels) - odd
    c_entries, c_kinds = {}, {}
    g_entries, g_kinds = {}, {}

    def expand(op, a, b):
        try:
            return span.expand(op, span.degrees[a].twice
                               + span.degrees[b].twice)
        except NotClosed as exc:
            raise NotClosed((a, b), exc.residual) from exc

    for i, a in enumerate(labels):
        for b in labels[i:]:
            odd_odd = a in odd and b in odd
            if a == b and not odd_odd:
                continue
            ab = realized[a] * realized[b]
            ba = realized[b] * realized[a]
            if a != b:
                comm = ab - ba
                if not comm.is_zero():
                    elem = expand(comm, a, b)
                    c_entries[(a, b)] = elem
                    c_kinds[(a, b)] = "commutator"
                    if not odd_odd:
                        target = even if (a in odd) == (b in odd) else odd
                        if any(lb not in target for lb in elem.coeffs):
                            raise GradingViolation(
                                f"bracket ({a}, {b}) leaves the graded "
                                f"sector: {elem}")
                        g_entries[(a, b)] = elem
                        g_kinds[(a, b)] = "commutator"
            if odd_odd:
                anti = ab + ba
                if not anti.is_zero():
                    elem = expand(anti, a, b)
                    if any(lb not in even for lb in elem.coeffs):
                        raise GradingViolation(
                            f"bracket {{{a}, {b}}} leaves the even "
                            f"sector: {elem}")
                    g_entries[(a, b)] = elem
                    g_kinds[(a, b)] = "anticommutator"
    return (StructureTable(labels, c_entries, c_kinds),
            StructureTable(labels, g_entries, g_kinds))


def extract_structure(gens: Dict[GenLabel, WeylOp]) -> StructureTable:
    """All pairwise commutators of a closed realized set, re-expanded in
    the span of the set."""
    return bracket_tables(gens)[0]
