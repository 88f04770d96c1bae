"""Closed function class for eigenfunction work: sums of
exp(mu*s) * (monomial in the space variables) * exp(kappa * x1^2),
where x1 is u_1 (osc chart) or y_1 (free chart; then there is no s and the
monomial may also carry powers of t).

Every chart operator maps this class to itself, which is what makes exact
eigen-relation checks possible.  One kernel applies operators: prepare(op)
readies each operator term once, and image() applies it in closed form to
an integer part held as flat rows {key: int} over one denominator, each
key one int packing (exponents, 2mu, c-power), forming each exponent
part's column once per prepared operator.  apply_op is conjugate, to_rows,
prepare (unless op is its last one), image, from_rows.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Dict, Tuple

from .errors import ChartMismatch, RowOverflow
from .scalars import CScalar, LinComb, from_raw, numerators
from .weyl import Chart, WeylOp, conjugate

FKey = Tuple[int, Tuple[int, ...]]  # (2*mu, variable exponents)
_BIAS, _BOUND, _FIELD = 1 << 31, 1 << 30, (1 << 32) - 1
_prepared: tuple = (None, None)  # apply_op's last (op, prepare(op))


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


def _pack(fields, bias: int = _BIAS) -> int:
    """The fields in 32 bits each, the first highest, as value + bias."""
    key = 0
    for x in fields:
        if not -_BOUND < x < _BOUND:
            raise RowOverflow(f"row field {x} is outside +-2^30")
        key = (key << 32) + x + bias
    return key


def prepare(op: WeylOp) -> tuple:
    """(terms, den, columns, mask) for image(): per c-power of each term,
    its shift (v - d, e, c-power) packed signed, d_s order n, the bit
    offsets of its nonzero space-derivative slots in an exponent part, and
    numerator times 2^(S - n), S the highest d_s order, over den = 2^S d_op;
    an empty column cache; and each field's bit 31.  Variable i's derivative
    is slot i + Chart.shift, so d[0] is d_s when shift is 1 (else no d_s)."""
    shift, nvars = op.chart.shift, op.chart.nvars
    t_op, d_op = numerators(op.terms)
    top = max((d[0] * shift for _, _, d in t_op), default=0)
    terms = []
    for (e, v, d), c_op in t_op.items():
        s_der, space_ders = d[0] * shift, d[shift:]
        ders = [(32 * i, n) for i, n in enumerate(space_ders[::-1]) if n]
        v = (*map(sub, v, space_ders), e)
        terms += [(_pack((*v, k), 0), s_der, ders, q << (top - s_der))
                  for k, q in c_op.items()]
    return terms, d_op << top, {}, _pack([0] * (nvars + 2))


def _column(terms: list, m: int) -> list:
    """The image of x^m, m a key's exponent part, under the prepared
    terms, before e^{mu s} weighs in, by d^k x^p = falling(p, k) x^{p-k}:
    (shift, n, numerator), one nonzero entry per (shift, d_s order n)."""
    col: Dict[tuple, int] = {}
    for off, s_der, ders, q in terms:
        for bit, n in ders:
            p = (m >> bit & _FIELD) - _BIAS
            for j in range(n):  # falling(p, n), inlined
                q *= p - j
        if q:
            col[off, s_der] = col.get((off, s_der), 0) + q
    return [key + (q,) for key, q in col.items() if q]


def image(prepared: tuple, rows: dict, den: int) -> Tuple[dict, int]:
    """The rows of the image of rows / den under a prepared operator, over
    its denominator (cancelled sums stay 0).  The column of the exponent
    part key >> 64 is formed once; a row reads it with the weight of its
    key's 2mu, d_s^n e^{mu s} = (2mu)^n/2^n e^{mu s}, and adds each entry's
    shift to its key.  An output field outside [-2^30, 2^30) is refused."""
    terms, d_op, columns, mask = prepared
    res: Dict[int, int] = {}
    get = res.get
    for key, q2 in rows.items():
        col = columns.get(key >> 64)
        if col is None:
            col = columns[key >> 64] = _column(terms, key >> 64)
        for off, n, q1 in col:
            if n:
                q1 *= ((key >> 32 & _FIELD) - _BIAS) ** n
                if not q1:
                    continue
            key1 = key + off
            res[key1] = get(key1, 0) + q1 * q2
    low = mask >> 1
    for key in res:
        if (key - low) & mask:
            raise RowOverflow(f"image row {_unpack(key)} is outside +-2^30")
    return res, d_op * den


def to_rows(terms: dict) -> Tuple[dict, int]:
    """The flat integer rows {key: int} of a {key: CScalar} map, over
    their common denominator; a row key is _pack((*exponents, 2mu, k))."""
    raw, den = numerators(terms)
    return {_pack((*m, mu2, k)): q for (mu2, m), c in raw.items()
            for k, q in c.items()}, den


def _unpack(key: int) -> Tuple[int, Tuple[int, ...], int]:
    """(2mu, exponents, c-power) of a row key."""
    fields = []
    while key:  # every stored field is positive
        fields.append((key & _FIELD) - _BIAS)
        key >>= 32
    return fields[1], tuple(fields[:1:-1]), fields[0]


def from_rows(rows: dict, den: int) -> Dict[FKey, CScalar]:
    """The {key: CScalar} terms of rows / den, without the keys whose
    sums cancelled."""
    raw: Dict[FKey, dict] = {}
    for key, q in rows.items():
        mu2, m, k = _unpack(key)
        raw.setdefault((mu2, m), {})[k] = q
    return from_raw(raw, den)


def apply_op(op: WeylOp, f: GaussFunc) -> GaussFunc:
    """Exact image of f = P e^{kappa x1^2} under op, computed as
    e^{kappa x1^2} (conjugate(op, ("gauss", 2 kappa)) P) by to_rows,
    prepare, image and from_rows; the same (immutable) op object as the
    last call's reuses that call's preparation, and its columns."""
    global _prepared
    if op.chart != f.chart:
        raise ChartMismatch("operator and function live in different charts")
    if not f.kappa.is_zero():
        op = conjugate(op, ("gauss", f.kappa + f.kappa))
    memo = _prepared
    if memo[0] is not op:
        memo = _prepared = (op, prepare(op))
    return f._like(from_rows(*image(memo[1], *to_rows(f.terms))))
