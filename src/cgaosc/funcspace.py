"""Closed function class for eigenfunction work: sums of
exp(mu*s) * (monomial in the space variables) * exp(kappa * x1^2),
where x1 is u_1 (osc chart) or y_1 (free chart; then there is no s and the
monomial may also carry powers of t).

Every chart operator maps this class to itself, which is what makes exact
eigen-relation checks possible.  One kernel applies operators: prepare(op)
readies each operator term once, and image() applies it to an integer
polynomial part in closed form, adding every product into one
{key: {c-power: int}} map.  apply_op is conjugate (the Gaussian moves onto
the operator), prepare, image, from_raw; spectrum prepares its operators
once and calls image itself.
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


def prepare(op: WeylOp) -> tuple:
    """(terms, den) for image(): each term's e-weight, d_s order n,
    nonzero space-derivative slots, exponent shift v - d and (c-power,
    numerator) pairs times 2^(S - n), S the highest d_s order, over
    den = 2^S d_op.  Variable i's derivative is slot i + Chart.shift, so
    d[0] is d_s when shift is 1 and no term has a d_s when it is 0."""
    shift = op.chart.shift
    t_op, d_op = numerators(op.terms)
    top = max((d[0] * shift for _, _, d in t_op), default=0)
    terms = []
    for (e, v, d), c_op in t_op.items():
        s_der, space_ders = d[0] * shift, d[shift:]
        terms.append((e, s_der,
                      [(i, n) for i, n in enumerate(space_ders) if n],
                      tuple(map(sub, v, space_ders)),
                      [(k, q << (top - s_der)) for k, q in c_op.items()]))
    return terms, d_op << top


def image(prepared: tuple, t_f: dict, d_f: int) -> Tuple[dict, int]:
    """The raw {key: {c-power: int}} image of the part t_f / d_f under a
    prepared operator, over its denominator (cancelled sums stay as 0):
    d^n x^p = falling(p, n) x^{p-n}, d_s^n e^{mu s} = (2mu)^n/2^n e^{mu s}."""
    terms, d_op = prepared
    t_f = [(mu2, m, list(c_f.items())) for (mu2, m), c_f in t_f.items()]
    res: Dict[FKey, dict] = {}
    for e, s_der, ders, shift, c_op in terms:
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
    return res, d_op * d_f


def apply_op(op: WeylOp, f: GaussFunc) -> GaussFunc:
    """Exact image of f = P e^{kappa x1^2} under op, computed as
    e^{kappa x1^2} (conjugate(op, ("gauss", 2 kappa)) P) by prepare,
    image and from_raw."""
    if op.chart != f.chart:
        raise ChartMismatch("operator and function live in different charts")
    if not f.kappa.is_zero():
        op = conjugate(op, ("gauss", f.kappa + f.kappa))
    return f._like(from_raw(*image(prepare(op), *numerators(f.terms))))
