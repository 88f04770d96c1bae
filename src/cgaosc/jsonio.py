"""JSON encoding of the exact types, with enough structure to round-trip
operators bit-for-bit: rationals as numerator/denominator strings,
scalars as Laurent term lists, operators as normal-form term lists.
Nothing in the package reads this format back; the decoder that checks
the round trip lives in the CLI test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .funcspace import GaussFunc
from .scalars import CScalar
from .weyl import Chart, WeylOp


def rational_json(q: Fraction) -> dict:
    return {"n": str(q.numerator), "d": str(q.denominator)}


def cscalar_json(cs: CScalar) -> list:
    return [{"cpow": k, "coef": rational_json(q)}
            for k, q in cs.items_sorted()]


def chart_json(chart: Chart) -> dict:
    return {"kind": chart.kind, "twice_ell": chart.ell.twice}


def weylop_json(op: WeylOp) -> dict:
    return {
        "chart": chart_json(op.chart),
        "terms": [{"coef": cscalar_json(cs),
                   "twice_expS": e,
                   "var": list(v),
                   "der": list(d)}
                  for (e, v, d), cs in op.sorted_terms()],
    }


def gaussfunc_json(f: GaussFunc) -> dict:
    return {
        "chart": chart_json(f.chart),
        "kappa": cscalar_json(f.kappa),
        "terms": [{"twice_mu": mu2,
                   "var": list(vp),
                   "coef": cscalar_json(cs)}
                  for (mu2, vp), cs in f.sorted_terms()],
    }


def gens_json(gens: Dict) -> dict:
    from .realizations import label_sort_key, label_str
    return {label_str(lb): weylop_json(gens[lb])
            for lb in sorted(gens, key=label_sort_key)}
