"""Normal-ordered algebra of differential operators in two coordinate
charts.

Free chart: variables (t, y_1..y_L) with derivatives (d_t, d_{y_a}).
Osc chart: variables (u_1..u_L) with derivatives (d_s, d_{u_a}); the time
variable s enters only through exponential weights exp(mu*s), never
polynomially.

Normal form: coefficient * exp(mu*s) * variable monomial * derivative
monomial, with all multiplication operators to the left of all
derivatives.  Equality of operators is equality of canonical term lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb
from operator import mul
from typing import Dict, NamedTuple, Tuple

from .errors import ChartMismatch, RelationViolation, UnsupportedWeight
from .scalars import (CScalar, HalfInt, LinComb, check_half_odd, from_raw,
                      numerators, rational, raw_acc, raw_mul)

Key = Tuple[int, Tuple[int, ...], Tuple[int, ...]]  # (2*mu, var, der)


class Chart:
    """Coordinate chart; L = ell + 1/2 space variables.  Variable i's
    derivative is slot i + shift of the der tuple: shift is 1 in the osc
    chart, whose slot 0 is d_s, and 0 in the free chart."""

    __slots__ = ("kind", "ell", "L", "shift")

    def __init__(self, kind: str, ell: HalfInt):
        if kind not in ("free", "osc"):
            raise ValueError(f"unknown chart kind {kind!r}")
        check_half_odd(ell)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "L", (ell.twice + 1) // 2)
        object.__setattr__(self, "shift", 1 if kind == "osc" else 0)

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

    def __reduce__(self):
        return type(self), (self.kind, self.ell)

    @property
    def nvars(self) -> int:
        # free: t plus L space vars; osc: L space vars (s is exponential-only)
        return self.L + 1 if self.kind == "free" else self.L

    @property
    def nders(self) -> int:
        return self.L + 1  # d_t or d_s, plus L space derivatives

    @property
    def gauss_var(self) -> int:
        """Index (into the var tuple) of the variable carrying Gaussian
        weights: y_1 in the free chart, u_1 in the osc chart."""
        return 1 if self.kind == "free" else 0

    def var_names(self):
        L = self.L
        if self.kind == "free":
            if self.ell.twice == 3:
                return ["t", "x", "y"]
            return ["t"] + [f"y{a}" for a in range(1, L + 1)]
        if self.ell.twice == 3:
            return ["u", "v"]
        return [f"u{a}" for a in range(1, L + 1)]

    def der_names(self):
        base = "dt" if self.kind == "free" else "ds"
        return [base] + ["d" + n for n in self.var_names()[
            1 if self.kind == "free" else 0:]]

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.kind == other.kind
                and self.ell == other.ell)

    def __hash__(self):
        return hash((self.kind, self.ell))

    def __repr__(self):
        return f"Chart({self.kind}, ell={self.ell})"


def falling(m: int, k: int) -> int:
    """The falling factorial m (m-1) ... (m-k+1), for any integer m and
    k >= 0: d^k x^m = falling(m, k) x^{m-k}, negative m included."""
    out = 1
    for i in range(k):
        out *= m - i
    return out


@lru_cache(maxsize=None)
def _poly_cross(n: int, m: int):
    """Expansion of d^n x^m for any integer m: the nonzero
    (k, C(n,k) falling(m,k)), the coefficient of x^{m-k} d^{n-k}."""
    return tuple((k, comb(n, k) * falling(m, k))
                 for k in range(n + 1) if falling(m, k))


@lru_cache(maxsize=None)
def _s_cross(n: int, mu2: int):
    """Expansion of d_s^n exp(mu s): list of (i, C(n,i) mu^i), mu = mu2/2."""
    mu = Fraction(mu2, 2)
    return tuple((i, Fraction(comb(n, i)) * mu ** i) for i in range(n + 1))


class WeylOp(LinComb):
    """Differential operator in canonical normal form."""

    __slots__ = ("chart",)

    def __init__(self, chart: Chart, terms: Dict[Key, CScalar] | None = None):
        object.__setattr__(self, "chart", chart)
        super().__init__(terms)
        # the osc chart's var tuple holds only the u's (s enters through
        # exp(mu s) alone), and the free chart carries no s-weight
        for (e, v, d) in self.terms:
            if (len(v) != chart.nvars or len(d) != chart.nders
                    or (e and chart.kind == "free")):
                raise ChartMismatch(f"term key {(e, v, d)} does not fit "
                                    f"the {chart.kind} chart")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "WeylOp":
        return cls(chart)

    @classmethod
    def const(cls, chart: Chart, coef) -> "WeylOp":
        key = (0, (0,) * chart.nvars, (0,) * chart.nders)
        return cls(chart, {key: coef})

    @classmethod
    def one(cls, chart: Chart) -> "WeylOp":
        return cls.const(chart, 1)

    @classmethod
    def var(cls, chart: Chart, index: int, power: int = 1,
            coef=None) -> "WeylOp":
        v = [0] * chart.nvars
        v[index] = power
        key = (0, tuple(v), (0,) * chart.nders)
        return cls(chart, {key: 1 if coef is None else coef})

    @classmethod
    def der(cls, chart: Chart, index: int, power: int = 1,
            coef=None) -> "WeylOp":
        d = [0] * chart.nders
        d[index] = power
        key = (0, (0,) * chart.nvars, tuple(d))
        return cls(chart, {key: 1 if coef is None else coef})

    @classmethod
    def exp_s(cls, chart: Chart, mu: HalfInt, coef=None) -> "WeylOp":
        if chart.kind != "osc":
            raise ChartMismatch("exp(mu s) exists only in the osc chart")
        key = (mu.twice, (0,) * chart.nvars, (0,) * chart.nders)
        return cls(chart, {key: 1 if coef is None else coef})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            return self.scaled(other)
        return NotImplemented

    # -- product and brackets --------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return bracket(prepare(self, False), prepare(other, False), PRODUCT)

    def commutator(self, other: "WeylOp") -> "WeylOp":
        """[a, b] = a*b - b*a.  The plain monomial product of each term
        pair is the same in a*b and b*a and cancels, so only the
        contraction terms of the two orders are formed."""
        return bracket(prepare(self), prepare(other), COMMUTATOR)

    def anticommutator(self, other: "WeylOp") -> "WeylOp":
        """{a, b} = a*b + b*a: twice the plain products, which the two
        orders share, plus the contraction terms of both orders."""
        return bracket(prepare(self, False), prepare(other, False),
                       ANTICOMMUTATOR)

    # -- misc ---------------------------------------------------------------
    def _check(self, other: "WeylOp"):
        if self.chart != other.chart:
            raise ChartMismatch(f"{self.chart} vs {other.chart}")

    def __repr__(self):
        from .latexout import op_plain
        return f"WeylOp({op_plain(self)})"


def _contractions(shift: int, d, v, e) -> list:
    """The choices of moving the derivatives d of a left term past the
    variables v and the weight exp(e s) of a right term: one tuple per
    slot with something to contract, of (der index, var index or -1, k,
    factor) for each k >= 0, k = 0 (factor 1) first.  Variable i meets
    derivative i + shift (Chart.shift); only the osc chart has an e, and
    there d[0] is d_s."""
    options = []
    if d[0] and e:
        options.append(tuple((0, -1, i, f) for i, f in _s_cross(d[0], e)))
    for i, m in enumerate(v):
        n = d[i + shift]
        if n and m:
            options.append(tuple(
                (i + shift, i, k, f) for k, f in _poly_cross(n, m)))
    return options


PRODUCT, COMMUTATOR, ANTICOMMUTATOR = (1, 1, 0), (0, 1, -1), (2, 1, 1)


class Operand(NamedTuple):
    """An operator prepared for the product loop: its (key, raw
    numerators) terms over den, and its terms by slot.  Slot i is
    derivative i and what it meets: variable i in the free chart, and
    in the osc chart u_i for i >= 1 and the weight exp(mu s) for d_s."""
    op: WeylOp
    terms: list
    den: int
    slots: list     # per term: (its derivative slots, its variable slots)
    by_der: dict    # slot -> the indices of the terms with that derivative
    by_var: dict    # slot -> the indices of the terms with that variable


def prepare(op: WeylOp, index: bool = True) -> Operand:
    """Only a commutator reads the slot index (a*b and {a, b} visit
    every pair), so index=False leaves it out."""
    raw, den = numerators(op.terms)
    shift = op.chart.shift
    slots, by_der, by_var = ([], {}, {}) if index else (None, None, None)
    for n, (e, v, d) in enumerate(raw if index else ()):
        ds = [i for i, p in enumerate(d) if p]
        vs = ([0] if e else []) + [i + shift for i, p in enumerate(v) if p]
        slots.append((ds, vs))
        for table, found in ((by_der, ds), (by_var, vs)):
            for i in found:
                table.setdefault(i, []).append(n)
    return Operand(op, list(raw.items()), den, slots, by_der, by_var)


def bracket(a: Operand, b: Operand, kind) -> WeylOp:
    """The kernel entry; kind is PRODUCT, COMMUTATOR or ANTICOMMUTATOR."""
    a.op._check(b.op)
    return a.op._like(from_raw(_product_terms(a, b, *kind), a.den * b.den))


def _product_terms(a: Operand, b: Operand, plain: int, s_ab: int,
                   s_ba: int) -> Dict[Key, dict]:
    """The one product loop, over two prepared operators a and b: the
    raw {key: {c-power: numerator}} map of plain times the plain
    monomial product of each term pair (no derivative moved past a
    variable or exp(mu s)), s_ab times the contraction terms of a*b and
    s_ba times those of b*a (some k >= 1 derivatives hit).  The orders
    share the plain product, so a term pair is visited and multiplied
    once; without it, only the pairs where a derivative of one term
    meets a variable of the other (in either order) are visited."""
    shift = a.op.chart.shift
    res: Dict[Key, dict] = {}
    tb = b.terms
    for n, ((e1, v1, d1), t1) in enumerate(a.terms):
        if plain:
            partners = range(len(tb))
        else:
            ds, vs = a.slots[n]
            partners = sorted({m for i in ds for m in b.by_var.get(i, ())}
                              | {m for i in vs for m in b.by_der.get(i, ())})
        for m in partners:
            (e2, v2, d2), t2 = tb[m]
            ab = _contractions(shift, d1, v2, e2) if s_ab else ()
            ba = _contractions(shift, d2, v1, e1) if s_ba else ()
            base = raw_mul(t1, t2)
            e = e1 + e2
            vsum = [x + y for x, y in zip(v1, v2)]
            dsum = [x + y for x, y in zip(d1, d2)]
            if plain:
                raw_acc(res, (e, tuple(vsum), tuple(dsum)), base, plain)
            for options, sign in ((ab, s_ab), (ba, s_ba)):
                if not options:
                    continue
                combos = product(*options)
                next(combos)  # all k = 0: the plain product, added above
                for combo in combos:
                    factor = sign
                    dd = list(dsum)
                    vv = list(vsum)
                    for di, vi, k, f in combo:
                        dd[di] -= k
                        if vi >= 0:
                            vv[vi] -= k
                        factor *= f
                    raw_acc(res, (e, tuple(vv), tuple(dd)), base, factor)
    return res


# -- grading ---------------------------------------------------------------

def degree_of(a: WeylOp, z0: WeylOp) -> HalfInt | None:
    """Return r (HalfInt) with [z0, a] = r*a, or None when a is not
    homogeneous."""
    r = z0.commutator(a).proportionality(a)
    if r is None or not r.is_rational():
        return None
    twice = 2 * r.as_rational()
    return HalfInt(int(twice)) if twice.denominator == 1 else None


# -- conjugation automorphisms ---------------------------------------------

def conjugate(a: WeylOp, weight) -> WeylOp:
    """Exact similarity transformation exp(-q) a exp(q).

    weight = ("gauss", kappa: CScalar) realizes q = kappa*x1^2/2 and maps
    d_{x1} -> d_{x1} + kappa*x1 (x1 = u_1 or y_1 per chart);
    weight = ("sshift", delta: Fraction) realizes q = delta*s in the osc
    chart and maps d_s -> d_s + delta.
    """
    kind = weight[0]
    chart = a.chart
    if kind == "gauss":
        kappa = weight[1]
        gvar = chart.gauss_var
        gder = gvar + chart.shift
        image = (WeylOp.der(chart, gder)
                 + WeylOp.var(chart, gvar, coef=kappa))
        return _conjugate_by_der_image(a, gder, image)
    if kind == "sshift":
        delta = rational(weight[1])
        if chart.kind != "osc":
            raise UnsupportedWeight("s-shift weights live in the osc chart")
        image = WeylOp.der(chart, 0) + WeylOp.const(chart, delta)
        return _conjugate_by_der_image(a, 0, image)
    raise UnsupportedWeight(f"unsupported conjugation weight {kind!r}")


def _conjugate_by_der_image(a: WeylOp, der_index: int,
                            image: WeylOp) -> WeylOp:
    chart = a.chart
    powers: Dict[int, WeylOp] = {0: WeylOp.one(chart)}

    def img_pow(n: int) -> WeylOp:
        if n not in powers:
            powers[n] = img_pow(n - 1) * image
        return powers[n]

    out = WeylOp.zero(chart)
    for (e, v, d), c in a.terms.items():
        n = d[der_index]
        rest = list(d)
        rest[der_index] = 0
        base = a._like({(e, v, tuple(rest)): c})
        if n == 0:
            out = out + base
        else:
            out = out + base * img_pow(n)
    return out


# -- substitution homomorphisms ---------------------------------------------

class Substitution:
    """Algebra homomorphism defined by images of every variable and
    derivative of the source chart.  The defining Heisenberg relations of
    the images are verified at construction.  Each power of an image is
    formed once per map."""

    def __init__(self, src: Chart, dst: Chart, var_images, der_images):
        if len(var_images) != src.nvars or len(der_images) != src.nders:
            raise ValueError("image count does not match chart")
        if src.kind == "osc":
            raise ChartMismatch("substitution source must be the free chart")
        self.src = src
        self.dst = dst
        self.var_images = list(var_images)
        self.der_images = list(der_images)
        self._check_relations()
        self._powers: Dict[Tuple[int, int], WeylOp] = {}

    def _check_relations(self):
        one = WeylOp.one(self.dst)
        zero = WeylOp.zero(self.dst)
        for i, dim in enumerate(self.der_images):
            for j, vim in enumerate(self.var_images):
                want = one if i == j else zero
                if dim.commutator(vim) != want:
                    raise RelationViolation(
                        f"[image(d_{i}), image(v_{j})] != "
                        f"{'1' if i == j else '0'}")
        for i, a in enumerate(self.var_images):
            for b in self.var_images[i + 1:]:
                if a.commutator(b) != zero:
                    raise RelationViolation("variable images do not commute")
        for i, a in enumerate(self.der_images):
            for b in self.der_images[i + 1:]:
                if a.commutator(b) != zero:
                    raise RelationViolation(
                        "derivative images do not commute")

    def _power(self, slot: int, p: int) -> WeylOp:
        """The image of source variable or derivative slot (variables
        first) to the power p >= 1; a negative power raises ValueError."""
        pw = self._powers.get((slot, p))
        if pw is None:
            if p < 0:
                names = self.src.var_names() + self.src.der_names()
                raise ValueError(f"negative power of {names[slot]}: a "
                                 "substitution maps polynomial operators "
                                 "only")
            if p == 1:
                pw = (self.var_images + self.der_images)[slot]
            else:
                pw = self._power(slot, p - 1) * self._power(slot, 1)
            self._powers[(slot, p)] = pw
        return pw

    def __call__(self, a: WeylOp) -> WeylOp:
        if a.chart != self.src:
            raise ChartMismatch("operator not in the substitution source")
        out: Dict[Key, CScalar] = {}
        one = WeylOp.one(self.dst)
        for (e, v, d), c in a.terms.items():
            pows = [self._power(slot, p) for slot, p in enumerate(v + d) if p]
            image = reduce(mul, pows) if pows else one
            for key, x in image.terms.items():
                out[key] = out[key] + x * c if key in out else x * c
        return WeylOp(self.dst, out)


def free_to_osc_substitution(ell: HalfInt) -> Substitution:
    """The change of variables t = e^s, y_a = e^{(a-1/2)s} u_a, with the
    derivative images fixed by the chain rule."""
    src = Chart("free", ell)
    dst = Chart("osc", ell)
    L = dst.L
    var_images = [WeylOp.exp_s(dst, HalfInt(2))]
    for a in range(1, L + 1):
        var_images.append(
            WeylOp.exp_s(dst, HalfInt(2 * a - 1)) * WeylOp.var(dst, a - 1))
    # d_t -> e^{-s} (d_s - sum_a (a - 1/2) u_a d_{u_a})
    dt = WeylOp.der(dst, 0)
    for a in range(1, L + 1):
        dt = dt - (WeylOp.var(dst, a - 1, coef=Fraction(2 * a - 1, 2))
                   * WeylOp.der(dst, a))
    dt = WeylOp.exp_s(dst, HalfInt(-2)) * dt
    der_images = [dt]
    for a in range(1, L + 1):
        der_images.append(
            WeylOp.exp_s(dst, HalfInt(-(2 * a - 1))) * WeylOp.der(dst, a))
    return Substitution(src, dst, var_images, der_images)
