"""Plain-text and LaTeX rendering of scalars, operators and functions.

The variable conventions follow the realization displays: the free chart
uses t, x, y at ell=3/2 and t, y_1..y_L otherwise; the oscillator chart
uses s, u, v at ell=3/2 and s, u_1..u_L otherwise.
"""

from __future__ import annotations

from fractions import Fraction


def frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def scalar_body(cs, latex: bool, sym: str = "c") -> str:
    """Render a Laurent polynomial in the central-charge symbol."""
    parts = []
    for k, q in cs.items_sorted():
        num = frac_latex(q) if latex else str(q)
        if k == 0:
            parts.append(num)
            continue
        if q == 1 or q == -1:
            head = "" if q == 1 else "-"
        else:
            head = num if latex else num + "*"
        parts.append(head + _pow_factor(sym, k, latex))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _is_unit(cs) -> bool:
    return cs.is_rational() and cs.as_rational() == 1


def _coef_prefix(cs, sym: str, latex: bool) -> str:
    if _is_unit(cs):
        return ""
    body = scalar_body(cs, latex, sym)
    if cs.is_monomial() or cs.is_rational():
        if body == "-1":
            return "-"
        return f"{body} " if latex else f"{body}*"
    return f"({body}) " if latex else f"({body})*"


def _exp_factor(mu2: int, latex: bool) -> str:
    mu = Fraction(mu2, 2)
    if latex:
        expo = "s" if mu == 1 else ("-s" if mu == -1 else f"{mu}s")
        return rf"e^{{{expo}}}"
    return f"e^({mu}s)" if mu not in (1, -1) else (
        "e^s" if mu == 1 else "e^(-s)")


def _pow_factor(name: str, p: int, latex: bool) -> str:
    if p == 1:
        return name
    if latex:
        return rf"{name}^{{{p}}}"
    return f"{name}^{p}"


def op_body(op, latex: bool, sym: str = "c") -> str:
    chart = op.chart
    vnames = chart.var_names()
    dnames = chart.der_names()
    if latex:
        vnames = [_latex_name(n) for n in vnames]
        dnames = [rf"\partial_{{{_latex_name(n[1:])}}}" for n in dnames]
    parts = []
    for (e, v, d), cs in op.sorted_terms():
        bits = []
        if e:
            bits.append(_exp_factor(e, latex))
        for name, p in zip(vnames, v):
            if p:
                bits.append(_pow_factor(name, p, latex))
        for i, p in enumerate(d):
            if p:
                bits.append(_pow_factor(dnames[i], p, latex))
        pre = _coef_prefix(cs, sym, latex)
        if not bits:
            body = scalar_body(cs, latex, sym)
            if not (cs.is_monomial() or cs.is_rational()):
                body = f"({body})"
            parts.append(body)
        else:
            joined = " ".join(bits) if latex else "*".join(bits)
            parts.append(pre + joined)
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def _latex_name(n: str) -> str:
    head = n.rstrip("0123456789")
    tail = n[len(head):]
    if tail:
        return f"{head}_{{{tail}}}"
    return n


def op_plain(op, sym: str = "c") -> str:
    return op_body(op, latex=False, sym=sym)


def op_latex(op, sym: str = "c") -> str:
    return op_body(op, latex=True, sym=sym)


def func_latex(f, sym: str = "c") -> str:
    names = [_latex_name(n) for n in f.chart.var_names()]
    parts = []
    for (mu2, vp), cs in f.sorted_terms():
        bits = []
        if mu2:
            bits.append(_exp_factor(mu2, True))
        for name, p in zip(names, vp):
            if p:
                bits.append(_pow_factor(name, p, True))
        pre = _coef_prefix(cs, sym, True)
        if not bits:
            parts.append(scalar_body(cs, True, sym))
        else:
            parts.append(pre + " ".join(bits))
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    g = names[f.chart.gauss_var]
    if not f.kappa.is_zero():
        kap = scalar_body(f.kappa, True, sym)
        body = rf"\left({body}\right) e^{{({kap}) {g}^2}}"
    return body
