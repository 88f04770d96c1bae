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
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import Dict, Iterable, Tuple

from .errors import ChartMismatch, RelationViolation, UnsupportedWeight
from .scalars import CScalar, HalfInt, check_half_odd
from .scalars import _wrap as _cs_wrap

Key = Tuple[int, Tuple[int, ...], Tuple[int, ...]]  # (2*mu, var, der)

_F0 = Fraction(0)
_F1 = Fraction(1)


class Chart:
    """Coordinate chart; L = ell + 1/2 space variables."""

    __slots__ = ("kind", "ell", "L")

    def __init__(self, kind: str, ell: HalfInt):
        if kind not in ("free", "osc"):
            raise ValueError(f"unknown chart kind {kind!r}")
        check_half_odd(ell)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "L", (ell.twice + 1) // 2)

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

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


@lru_cache(maxsize=None)
def _poly_cross(n: int, m: int):
    """Expansion of d^n x^m: list of (k, k! C(n,k) C(m,k))."""
    return tuple((k, Fraction(factorial(k) * comb(n, k) * comb(m, k)))
                 for k in range(min(n, m) + 1))


@lru_cache(maxsize=None)
def _s_cross(n: int, mu2: int):
    """Expansion of d_s^n exp(mu s): list of (i, C(n,i) mu^i), mu = mu2/2."""
    mu = Fraction(mu2, 2)
    return tuple((i, Fraction(comb(n, i)) * mu ** i) for i in range(n + 1))


class WeylOp:
    """Differential operator in canonical normal form."""

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: Dict[Key, CScalar] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    clean[k] = v
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        if chart.kind == "osc":
            # polynomial powers of s are never allowed in the osc chart;
            # the var tuple only holds u's so check lengths instead
            for (e, v, d) in clean:
                if len(v) != chart.nvars or len(d) != chart.nders:
                    raise ChartMismatch(
                        f"term key {(e, v, d)} does not fit the osc chart")
        else:
            for (e, v, d) in clean:
                if e != 0:
                    raise ChartMismatch(
                        "free chart carries no exponential s-weight")

    def __setattr__(self, *a):
        raise AttributeError("WeylOp is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "WeylOp":
        return cls(chart)

    @classmethod
    def const(cls, chart: Chart, coef) -> "WeylOp":
        if isinstance(coef, (int, Fraction)):
            coef = CScalar.from_rational(coef)
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
        c = CScalar.one() if coef is None else _as_cs(coef)
        return cls(chart, {key: c})

    @classmethod
    def der(cls, chart: Chart, index: int, power: int = 1,
            coef=None) -> "WeylOp":
        d = [0] * chart.nders
        d[index] = power
        key = (0, (0,) * chart.nvars, tuple(d))
        c = CScalar.one() if coef is None else _as_cs(coef)
        return cls(chart, {key: c})

    @classmethod
    def exp_s(cls, chart: Chart, mu: HalfInt, coef=None) -> "WeylOp":
        if chart.kind != "osc":
            raise ChartMismatch("exp(mu s) exists only in the osc chart")
        key = (mu.twice, (0,) * chart.nvars, (0,) * chart.nders)
        c = CScalar.one() if coef is None else _as_cs(coef)
        return cls(chart, {key: c})

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for k, v in other.terms.items():
            s = res.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                res.pop(k, None)
            else:
                res[k] = s
        return _wrap(self.chart, res)

    def __sub__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _wrap(self.chart, {k: -v for k, v in self.terms.items()})

    def scaled(self, coef) -> "WeylOp":
        c = _as_cs(coef)
        if c.is_zero():
            return WeylOp.zero(self.chart)
        return _wrap(self.chart,
                     {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            return self.scaled(other)
        return NotImplemented

    # -- product ------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            return self.scaled(other)
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        chart = self.chart
        osc = chart.kind == "osc"
        L = chart.L
        # accumulate raw {c-power: Fraction} dicts per normal-form key and
        # wrap into CScalars only once at the end
        res: Dict[Key, dict] = {}
        for (e1, v1, d1), c1 in self.terms.items():
            t1 = c1.terms
            for (e2, v2, d2), c2 in other.terms.items():
                base = _raw_mul(t1, c2.terms)
                e = e1 + e2
                # options[i]: choices (der index, var index or -1, k, factor)
                options = []
                if osc:
                    if d1[0] and e2:
                        options.append(tuple(
                            (0, -1, i, f) for i, f in _s_cross(d1[0], e2)))
                    for a in range(L):
                        n, m = d1[1 + a], v2[a]
                        if n and m:
                            options.append(tuple(
                                (1 + a, a, k, f)
                                for k, f in _poly_cross(n, m)))
                else:
                    for i in range(L + 1):
                        n, m = d1[i], v2[i]
                        if n and m:
                            options.append(tuple(
                                (i, i, k, f) for k, f in _poly_cross(n, m)))
                if not options:
                    key = (e, tuple(x + y for x, y in zip(v1, v2)),
                           tuple(x + y for x, y in zip(d1, d2)))
                    _raw_acc(res, key, base, _F1)
                    continue
                vsum = [x + y for x, y in zip(v1, v2)]
                for combo in product(*options):
                    factor = _F1
                    dd = list(d1)
                    vv = list(vsum)
                    for di, vi, k, f in combo:
                        dd[di] -= k
                        if vi >= 0:
                            vv[vi] -= k
                        factor *= f
                    key = (e, tuple(vv),
                           tuple(x + y for x, y in zip(dd, d2)))
                    _raw_acc(res, key, base, factor)
        out = {}
        for key, raw in res.items():
            cs = _raw_wrap(raw)
            if not cs.is_zero():
                out[key] = cs
        return _wrap(self.chart, out)

    def commutator(self, other: "WeylOp") -> "WeylOp":
        return self * other - other * self

    def anticommutator(self, other: "WeylOp") -> "WeylOp":
        return self * other + other * self

    def power(self, n: int) -> "WeylOp":
        res = WeylOp.one(self.chart)
        for _ in range(n):
            res = res * self
        return res

    # -- misc ---------------------------------------------------------------
    def _check(self, other: "WeylOp"):
        if self.chart != other.chart:
            raise ChartMismatch(f"{self.chart} vs {other.chart}")

    def sorted_terms(self) -> Iterable[Tuple[Key, CScalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def leading(self) -> Tuple[Key, CScalar]:
        return max(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.chart, tuple(sorted(self.terms.items(),
                                               key=lambda kv: kv[0]))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        from .latexout import op_plain
        return f"WeylOp({op_plain(self)})"


def _wrap(chart: Chart, terms: Dict[Key, CScalar]) -> WeylOp:
    obj = WeylOp.__new__(WeylOp)
    object.__setattr__(obj, "chart", chart)
    object.__setattr__(obj, "terms",
                       {k: v for k, v in terms.items() if not v.is_zero()})
    object.__setattr__(obj, "_hash", None)
    return obj


def _as_cs(coef) -> CScalar:
    if isinstance(coef, CScalar):
        return coef
    return CScalar.from_rational(coef)


def _raw_mul(t1: dict, t2: dict) -> dict:
    """Product of two raw {c-power: Fraction} dicts."""
    if len(t1) == 1 and len(t2) == 1:
        (k1, q1), = t1.items()
        (k2, q2), = t2.items()
        return {k1 + k2: q1 * q2}
    res: dict = {}
    for k1, q1 in t1.items():
        for k2, q2 in t2.items():
            k = k1 + k2
            s = res.get(k, _F0) + q1 * q2
            if s:
                res[k] = s
            else:
                del res[k]
    return res


def _raw_acc(res: Dict[Key, dict], key: Key, base: dict,
             factor: Fraction) -> None:
    acc = res.get(key)
    if acc is None:
        acc = {}
        res[key] = acc
    for k, q in base.items():
        acc[k] = acc.get(k, _F0) + q * factor


def _raw_wrap(raw: dict) -> CScalar:
    return _cs_wrap({k: q for k, q in raw.items() if q})


# -- grading ---------------------------------------------------------------

class _NonHomogeneous:
    def __repr__(self):
        return "NonHomogeneous"

    def __bool__(self):
        return False


NonHomogeneous = _NonHomogeneous()


def degree_of(a: WeylOp, z0: WeylOp):
    """Return r (HalfInt) with [z0, a] = r*a, or NonHomogeneous."""
    if a.is_zero():
        return HalfInt(0)
    b = z0.commutator(a)
    if b.is_zero():
        return HalfInt(0)
    key, ca = a.leading()
    cb = b.terms.get(key)
    if cb is None:
        return NonHomogeneous
    ratio = cb.try_div(ca)
    if ratio is None or not ratio.is_rational():
        return NonHomogeneous
    r = ratio.as_rational()
    if r.denominator not in (1, 2):
        return NonHomogeneous
    if b != a.scaled(ratio):
        return NonHomogeneous
    return HalfInt.from_fraction(r)


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
        gder = gvar + (0 if chart.kind == "free" else 1)
        image = (WeylOp.der(chart, gder)
                 + WeylOp.var(chart, gvar, coef=kappa))
        return _conjugate_by_der_image(a, gder, image)
    if kind == "sshift":
        delta = Fraction(weight[1])
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
        base = _wrap(chart, {(e, v, tuple(rest)): c})
        if n == 0:
            out = out + base
        else:
            out = out + base * img_pow(n)
    return out


# -- substitution homomorphisms ---------------------------------------------

class Substitution:
    """Algebra homomorphism defined by images of every variable and
    derivative of the source chart.  The defining Heisenberg relations of
    the images are verified at construction."""

    def __init__(self, src: Chart, dst: Chart, var_images, der_images,
                 check: bool = True):
        if len(var_images) != src.nvars or len(der_images) != src.nders:
            raise ValueError("image count does not match chart")
        if src.kind == "osc":
            raise ChartMismatch("substitution source must be the free chart")
        self.src = src
        self.dst = dst
        self.var_images = list(var_images)
        self.der_images = list(der_images)
        if check:
            self._check_relations()

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

    def __call__(self, a: WeylOp) -> WeylOp:
        if a.chart != self.src:
            raise ChartMismatch("operator not in the substitution source")
        out = WeylOp.zero(self.dst)
        for (e, v, d), c in a.terms.items():
            term = WeylOp.const(self.dst, c)
            for i, p in enumerate(v):
                if p:
                    term = term * self.var_images[i].power(p)
            for i, p in enumerate(d):
                if p:
                    term = term * self.der_images[i].power(p)
            out = out + term
        return out


def identity_substitution(chart: Chart) -> Substitution:
    return Substitution(
        chart, chart,
        [WeylOp.var(chart, i) for i in range(chart.nvars)],
        [WeylOp.der(chart, i) for i in range(chart.nders)],
        check=False)


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
