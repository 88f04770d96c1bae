"""Closed function class for eigenfunction work: sums of
exp(mu*s) * (monomial in the space variables) * exp(kappa * x1^2),
where x1 is u_1 (osc chart) or y_1 (free chart; then there is no s and the
monomial may also carry powers of t).

Every chart operator maps this class to itself, which is what makes exact
eigen-relation checks possible.  apply_op moves the Gaussian onto the
operator with weyl.conjugate and then applies each derivative to the
polynomial part in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .errors import ChartMismatch
from .scalars import CScalar
from .weyl import Chart, WeylOp, conjugate, falling

FKey = Tuple[int, Tuple[int, ...]]  # (2*mu, variable exponents)


class GaussFunc:
    """Function with one global Gaussian exponent kappa per instance."""

    __slots__ = ("chart", "kappa", "terms")

    def __init__(self, chart: Chart, kappa: CScalar,
                 terms: Dict[FKey, CScalar] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    clean[k] = v
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("GaussFunc is immutable")

    def __reduce__(self):
        return type(self), (self.chart, self.kappa, self.terms)

    @classmethod
    def monomial(cls, chart: Chart, kappa: CScalar, mu2: int = 0,
                 varpow: Tuple[int, ...] | None = None,
                 coef=None) -> "GaussFunc":
        if varpow is None:
            varpow = (0,) * chart.nvars
        if chart.kind == "free" and mu2 != 0:
            raise ChartMismatch("free-chart functions carry no s-weight")
        c = CScalar.one() if coef is None else _as_cs(coef)
        return cls(chart, kappa, {(mu2, tuple(varpow)): c})

    @classmethod
    def zero(cls, chart: Chart, kappa: CScalar) -> "GaussFunc":
        return cls(chart, kappa)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "GaussFunc"):
        if self.chart != other.chart:
            raise ChartMismatch("charts differ")
        if self.kappa != other.kappa and self.terms and other.terms:
            raise ChartMismatch(
                "cannot combine GaussFuncs with different Gaussian weights")

    def __add__(self, other):
        if not isinstance(other, GaussFunc):
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
        kappa = self.kappa if self.terms else other.kappa
        return GaussFunc(self.chart, kappa, res)

    def __sub__(self, other):
        if not isinstance(other, GaussFunc):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, coef) -> "GaussFunc":
        c = _as_cs(coef)
        return GaussFunc(self.chart, self.kappa,
                         {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GaussFunc):
            return NotImplemented
        if self.chart != other.chart or self.terms != other.terms:
            return False
        if not self.terms:
            return True
        return self.kappa == other.kappa

    def __hash__(self):
        return hash((self.chart, self.kappa,
                     tuple(sorted(self.terms.items()))))

    def proportionality(self, other: "GaussFunc") -> CScalar | None:
        """Return r with self = r * other, or None."""
        if self.chart != other.chart:
            return None
        if other.is_zero():
            return CScalar.zero() if self.is_zero() else None
        if self.is_zero():
            return CScalar.zero()
        if self.kappa != other.kappa:
            return None
        key = max(other.terms)
        mine = self.terms.get(key)
        if mine is None:
            return None
        r = mine.try_div(other.terms[key])
        if r is None:
            return None
        if self == other.scaled(r):
            return r
        return None

    def sorted_terms(self):
        return sorted(self.terms.items())

    def head(self, k: int) -> "GaussFunc":
        """The first k terms, in sorted order."""
        return GaussFunc(self.chart, self.kappa, dict(self.sorted_terms()[:k]))

    def __repr__(self):
        names = self.chart.var_names()
        parts = []
        for (mu2, vp), c in self.sorted_terms():
            bits = [f"({c})"]
            if mu2:
                bits.append(f"e^({Fraction(mu2, 2)}s)")
            for n, p in zip(names, vp):
                if p == 1:
                    bits.append(n)
                elif p:
                    bits.append(f"{n}^{p}")
            parts.append("*".join(bits))
        body = " + ".join(parts) if parts else "0"
        return f"GaussFunc({body}; kappa={self.kappa})"


def _as_cs(coef) -> CScalar:
    if isinstance(coef, CScalar):
        return coef
    return CScalar.from_rational(coef)


def apply_op(op: WeylOp, f: GaussFunc) -> GaussFunc:
    """Exact image of f = P e^{kappa x1^2} under op, computed as
    e^{kappa x1^2} (conjugate(op, ("gauss", 2 kappa)) P): each term of the
    conjugated operator meets each term of P in closed form,
    d^n x^p = falling(p, n) x^{p-n} and d_s^n e^{mu s} = mu^n e^{mu s}."""
    if op.chart != f.chart:
        raise ChartMismatch("operator and function live in different charts")
    chart = op.chart
    osc = chart.kind == "osc"
    if not f.kappa.is_zero():
        op = conjugate(op, ("gauss", f.kappa + f.kappa))
    res: Dict[FKey, CScalar] = {}
    for (e, v, d), c_op in op.terms.items():
        space_ders = d[1:] if osc else d
        for (mu2, m), c_f in f.terms.items():
            factor = Fraction(mu2, 2) ** d[0] if osc and d[0] else 1
            for p, n in zip(m, space_ders):
                if n:
                    factor *= falling(p, n)
            if factor:
                key = (mu2 + e, tuple(p - n + q for p, n, q
                                      in zip(m, space_ders, v)))
                _acc(res, key, (c_op * c_f).scale(factor))
    return GaussFunc(chart, f.kappa, res)


def _acc(d, k, v):
    if v.is_zero():
        return
    prev = d.get(k)
    s = v if prev is None else prev + v
    if s.is_zero():
        d.pop(k, None)
    else:
        d[k] = s
