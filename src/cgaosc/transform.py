"""The three-step map from the free realization to the oscillator
realization: change of variables t = e^s, y_a = e^{(a-1/2)s} u_a, the
t^delta similarity dressing (performed as an exp(delta*s) conjugation
after the change of variables, which is the same operation without ever
needing fractional powers of t), and a Gaussian similarity dressing.
The three steps run as one composed Substitution (three_step_map),
which forms each power of an image once per map, so certify_transform
shares those powers across every operator it maps.
The realizations it maps onto are section7 and section5; the
normalizations table in README.md says which names exist where.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .errors import Mismatch
from .realizations import (GenLabel, convention, delta, extract_structure,
                           free_generators, label_sort_key, label_str,
                           osc_generators)
from .onshell import omega0_free, omega0_osc, omega1_free, omega1_osc
from .scalars import CScalar, HalfInt
from .weyl import Substitution, WeylOp, conjugate, free_to_osc_substitution


@dataclass(frozen=True)
class TransformSpec:
    """Parameters of the three-step map: delta = (l+1/2)^2/4 and the
    Gaussian weight of the realization, lambda = -c/(2l+1) for section7,
    i.e. g -> exp(-lambda u_1^2/2) g exp(lambda u_1^2/2), and
    g -> exp(c u^2/2) g exp(-c u^2/2) for section5.
    """
    ell: HalfInt
    normalization: str = "section7"

    def __post_init__(self):
        convention(self.ell, self.normalization, "realization")

    @property
    def delta(self) -> Fraction:
        return delta(self.ell)

    @property
    def gauss_weight(self) -> CScalar:
        """kappa with step three acting as d_{u_1} -> d_{u_1} + kappa*u_1."""
        if self.normalization == "section5":
            return -CScalar.c()
        lf = self.ell.as_fraction()
        return CScalar.c().scale(Fraction(-1) / (2 * lf + 1))


def three_step_map(spec: TransformSpec, sub: Substitution) -> Substitution:
    """The three steps as one Substitution: each step is an algebra
    map, so the images under sub of t, y_a, d_t and d_{y_a}, pushed
    through the s-shift and the Gaussian conjugation, fix the
    composite; sub is free_to_osc_substitution(spec.ell)."""
    def push(op):
        op = conjugate(op, ("sshift", -spec.delta))
        return conjugate(op, ("gauss", spec.gauss_weight))
    return Substitution(sub.src, sub.dst, [push(x) for x in sub.var_images],
                        [push(d) for d in sub.der_images])


def transform(g: WeylOp, spec: TransformSpec, sub: Substitution) -> WeylOp:
    """Apply the three-step map to a free-chart operator; sub is
    free_to_osc_substitution(spec.ell)."""
    return three_step_map(spec, sub)(g)


@dataclass
class TransformReport:
    spec: TransformSpec
    matched: List[GenLabel]
    homomorphism_pairs: int

    def to_json(self) -> dict:
        return {
            "ell": {"twice": self.spec.ell.twice},
            "normalization": self.spec.normalization,
            "generatorsMatched": [label_str(lb) for lb in self.matched],
            "homomorphismPairs": self.homomorphism_pairs,
        }


def certify_transform(ell: HalfInt,
                      normalization: str = "section7") -> TransformReport:
    """Certify that the map reproduces the printed oscillator generators,
    carries the invariant operators onto their printed oscillator forms,
    preserves the structure constants, and is a bracket homomorphism."""
    spec = TransformSpec(ell, normalization)
    tmap = three_step_map(spec, free_to_osc_substitution(ell))
    free = free_generators(ell)
    osc = osc_generators(ell, normalization)
    images: Dict[GenLabel, WeylOp] = {}
    matched = []
    for lb, g in free.items():
        img = tmap(g)
        images[lb] = img
        if img != osc[lb]:
            raise Mismatch(label_str(lb), img - osc[lb])
        matched.append(lb)

    img0 = tmap(omega0_free(ell))
    img1 = tmap(omega1_free(ell))
    if img0 != omega0_osc(ell, normalization):
        raise Mismatch("Omega0", img0 - omega0_osc(ell, normalization))
    if img1 != omega1_osc(ell, normalization):
        raise Mismatch("Omega1", img1 - omega1_osc(ell, normalization))

    free_table, osc_table = extract_structure(free), extract_structure(osc)
    for a, b in sorted(free_table.entries.keys() | osc_table.entries.keys(),
                       key=lambda pair: tuple(map(label_sort_key, pair))):
        diff = free_table.bracket(a, b) - osc_table.bracket(a, b)
        if not diff.is_zero():
            raise Mismatch(f"[{label_str(a)}, {label_str(b)}] in the "
                           f"structure tables", diff)

    # bracket homomorphism on all generator pairs
    labels = sorted(free, key=lambda lb: lb)
    pairs = 0
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            lhs = images[a].commutator(images[b])
            rhs = tmap(free[a].commutator(free[b]))
            if lhs != rhs:
                raise Mismatch(f"[{label_str(a)}, {label_str(b)}]",
                               lhs - rhs)
            pairs += 1
    return TransformReport(spec=spec, matched=sorted(matched),
                           homomorphism_pairs=pairs)
