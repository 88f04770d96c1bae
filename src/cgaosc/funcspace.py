"""Closed function class for eigenfunction work: sums of
exp(mu*s) * (monomial in the space variables) * exp(kappa * x1^2),
where x1 is u_1 (osc chart) or y_1 (free chart; then there is no s and the
monomial may also carry powers of t).

Every chart operator maps this class to itself, which is what makes exact
eigen-relation checks possible.  apply_op moves the Gaussian onto the
operator with weyl.conjugate and then applies each derivative to the
polynomial part in closed form, in one loop on integer numerators:
each operator term is prepared once per call, each term pair adds its
products into one {key: {c-power: int}} map, and from_raw makes the
coefficients once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Tuple

from .errors import ChartMismatch
from .scalars import CScalar, LinComb, from_raw, numerators
from .weyl import Chart, WeylOp, conjugate

FKey = Tuple[int, Tuple[int, ...]]  # (2*mu, variable exponents)


class GaussFunc(LinComb):
    """Function with one global Gaussian exponent kappa per instance."""

    __slots__ = ("chart", "kappa")

    def __init__(self, chart: Chart, kappa: CScalar,
                 terms: Dict[FKey, CScalar] | None = None):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "kappa", kappa)
        super().__init__(terms)
        for (mu2, vp) in self.terms:
            if len(vp) != chart.nvars or (mu2 and chart.kind == "free"):
                raise ChartMismatch(f"term key {(mu2, vp)} does not fit "
                                    f"the {chart.kind} chart")

    @classmethod
    def monomial(cls, chart: Chart, kappa: CScalar, mu2: int = 0,
                 varpow: Tuple[int, ...] | None = None,
                 coef=1) -> "GaussFunc":
        if varpow is None:
            varpow = (0,) * chart.nvars
        return cls(chart, kappa, {(mu2, tuple(varpow)): coef})

    @classmethod
    def zero(cls, chart: Chart, kappa: CScalar) -> "GaussFunc":
        return cls(chart, kappa)

    def _check(self, other: "GaussFunc"):
        if self.chart != other.chart:
            raise ChartMismatch("charts differ")
        if self.kappa != other.kappa and self.terms and other.terms:
            raise ChartMismatch(
                "cannot combine GaussFuncs with different Gaussian weights")

    def _space(self):
        # zero functions are equal whatever their kappa
        return (self.chart, self.kappa if self.terms else None)

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


def apply_op(op: WeylOp, f: GaussFunc) -> GaussFunc:
    """Exact image of f = P e^{kappa x1^2} under op, computed as
    e^{kappa x1^2} (conjugate(op, ("gauss", 2 kappa)) P): each term of the
    conjugated operator meets each term of P in closed form,
    d^n x^p = falling(p, n) x^{p-n} and d_s^n e^{mu s} = mu^n e^{mu s},
    mu^n = (2 mu)^n / 2^n.  All sums run on int numerators over one
    denominator, 2^S d_op d_f for S the highest d_s order: each operator
    term is prepared once per call (its d_s order n, its nonzero space
    derivatives, its exponent shift v - d and its (c-power, numerator)
    pairs times 2^(S - n)), each term pair adds its products straight
    into a {key: {c-power: int}} map, and from_raw makes the
    coefficients once."""
    if op.chart != f.chart:
        raise ChartMismatch("operator and function live in different charts")
    osc = op.chart.kind == "osc"
    if not f.kappa.is_zero():
        op = conjugate(op, ("gauss", f.kappa + f.kappa))
    t_op, d_op = numerators(op.terms)
    t_f, d_f = numerators(f.terms)
    t_f = [(mu2, m, list(c_f.items())) for (mu2, m), c_f in t_f.items()]
    top = max((d[0] for _, _, d in t_op), default=0) if osc else 0
    res: Dict[FKey, dict] = {}
    for (e, v, d), c_op in t_op.items():
        s_der, space_ders = (d[0], d[1:]) if osc else (0, d)
        ders = [(i, n) for i, n in enumerate(space_ders) if n]
        shift = tuple(map(sub, v, space_ders))
        c_op = [(k, q << (top - s_der)) for k, q in c_op.items()]
        for mu2, m, c_f in t_f:
            factor = mu2 ** s_der
            for i, n in ders:
                p = m[i]
                for j in range(n):  # falling(p, n), inlined
                    factor *= p - j
            if not factor:
                continue
            key = (mu2 + e, tuple(map(add, m, shift)))
            acc = res.get(key)
            if acc is None:
                acc = res[key] = {}
            for k1, q1 in c_op:
                q1 *= factor
                for k2, q2 in c_f:
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + q1 * q2
    return f._like(from_raw(res, d_op * d_f << top))
