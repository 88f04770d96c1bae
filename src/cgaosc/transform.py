"""The three-step map from the free realization to the oscillator
realization: change of variables t = e^s, y_a = e^{(a-1/2)s} u_a, the
t^delta similarity dressing (performed as an exp(delta*s) conjugation
after the change of variables, which is the same operation without ever
needing fractional powers of t), and a Gaussian similarity dressing.
The three steps run as one composed Substitution (three_step_map),
which forms each power of an image once per map.  certify_transform
maps each generator, Omega0 and Omega1 once and compares the two exact
structure tables on every generator pair; as the map is linear, that
makes it a bracket homomorphism.  The realizations it maps onto are
section7 and section5; the normalizations table in README.md says
which names exist where.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Tuple

from .errors import Mismatch
from .realizations import (GenLabel, SpanBasis, convention, delta, free_span,
                           label_str, osc_generators)
from .onshell import omega0_free, omega0_osc, omega1_free, omega1_osc
from .scalars import CScalar, HalfInt
from .weyl import Substitution, conjugate, free_to_osc_substitution


def gauss_weight(ell: HalfInt, normalization: str) -> CScalar:
    """kappa with step three acting as d_{u_1} -> d_{u_1} + kappa*u_1:
    kappa = lambda = -c/(2l+1) for section7, i.e. g -> exp(-lambda
    u_1^2/2) g exp(lambda u_1^2/2), and kappa = -c for section5, i.e.
    g -> exp(c u^2/2) g exp(-c u^2/2)."""
    if normalization == "section5":
        return -CScalar.c()
    return CScalar.c().scale(Fraction(-1) / (ell.twice + 1))


def three_step_map(ell: HalfInt,
                   normalization: str = "section7") -> Substitution:
    """The three steps as one Substitution: each step is an algebra
    map, so the images of t, y_a, d_t and d_{y_a} under the change of
    variables, pushed through the s-shift by delta = (l+1/2)^2/4 and the
    Gaussian conjugation, fix the composite."""
    convention(ell, normalization, "realization")
    sub = free_to_osc_substitution(ell)
    shift, weight = -delta(ell), gauss_weight(ell, normalization)

    def push(op):
        op = conjugate(op, ("sshift", shift))
        return conjugate(op, ("gauss", weight))
    return Substitution(sub.src, sub.dst, [push(x) for x in sub.var_images],
                        [push(d) for d in sub.der_images])


def certify_transform(ell: HalfInt, normalization: str = "section7"
                      ) -> Tuple[List[GenLabel], int]:
    """Certify that the map reproduces the printed oscillator generators,
    carries the invariant operators onto their printed oscillator forms,
    preserves the structure constants, and is a bracket homomorphism.

    The homomorphism needs no bracket of its own: each image o_a =
    tmap(f_a) is matched, both tables are exact (SpanBasis.expand checks
    its residual) and tmap is linear, so equal table entries on a pair
    give [o_a, o_b] = sum_c k_c o_c = sum_c k_c tmap(f_c) = tmap([f_a,
    f_b]).  Every pair a < b, zero brackets included, is compared.
    Returns the matched generator labels, sorted, and the number of
    pairs compared."""
    tmap = three_step_map(ell, normalization)
    free = free_span(ell).gens
    osc = osc_generators(ell, normalization)
    checks = [(label_str(lb), g, osc[lb]) for lb, g in free.items()]
    checks += [("Omega0", omega0_free(ell), omega0_osc(ell, normalization)),
               ("Omega1", omega1_free(ell), omega1_osc(ell, normalization))]
    for name, g, want in checks:
        img = tmap(g)
        if img != want:
            raise Mismatch(name, img - want)

    free_table, osc_table = free_span(ell).table, SpanBasis(osc).table
    pairs = list(combinations(free_table.labels, 2))
    for a, b in pairs:
        diff = free_table.bracket(a, b) - osc_table.bracket(a, b)
        if not diff.is_zero():
            raise Mismatch(f"[{label_str(a)}, {label_str(b)}] in the "
                           f"structure tables", diff)
    return sorted(free), len(pairs)
