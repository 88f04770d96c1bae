"""The oscillator Hamiltonian, its Gaussian vacuum, ladder-generated
eigenfunctions, the exact spectrum, and an independent triangular-matrix
oracle for the eigenvalues.

Two conventions are supported: "section7" (any half-odd ell; H = 2
(Omega0 - z0), canonical m-form after c = -(2l+1)m) and "section6"
(ell=3/2 fixture on the section5 realization; H = Omega0 - z0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (DiagonalDependsOnC, Inconsistent, Mismatch,
                     NormalizationUnavailable, NotTriangular)
from .funcspace import GaussFunc, apply_op
from .onshell import omega0_osc
from .realizations import (Z_ZERO, osc_generators, positive_w_indices,
                           w_label)
from .scalars import CScalar, HalfInt, check_half_odd
from .weyl import Chart, WeylOp, conjugate


def _gens_for(ell: HalfInt, normalization: str):
    if normalization == "section7":
        return osc_generators(ell, "section7")
    if normalization == "section6":
        if ell.twice != 3:
            raise NormalizationUnavailable(
                "the section6 fixture exists only at ell=3/2")
        return osc_generators(ell, "section5")
    raise ValueError(f"unknown normalization {normalization!r}")


def hamiltonian(ell: HalfInt, normalization: str = "section7") -> WeylOp:
    """The effective Hamiltonian extracted from the degree-0 invariant
    operator: H = 2(Omega0 - z0) in the section7 convention, or
    H = Omega0 - z0 in the section6 fixture."""
    check_half_odd(ell)
    gens = _gens_for(ell, normalization)
    z0 = gens[Z_ZERO]
    if normalization == "section7":
        h = 2 * (omega0_osc(ell, "section7") - z0)
    else:
        h = omega0_osc(ell, "section5") - z0
        # operator identity (1/2c)(w_{-1/2} w_{+1/2} - w_{-3/2} w_{+3/2}) + 1
        half_inv_c = CScalar.c_power(-1, Fraction(1, 2))
        prod = (gens[w_label(HalfInt(-1))] * gens[w_label(HalfInt(1))]
                - gens[w_label(HalfInt(-3))] * gens[w_label(HalfInt(3))])
        alt = prod.scaled(half_inv_c) + WeylOp.one(h.chart)
        if h != alt:
            raise Mismatch("ladder form of the Hamiltonian", h - alt)
    if any(key[2][0] for key in h.terms):
        raise Mismatch("Hamiltonian contains d_s", h)
    if any(key[0] for key in h.terms):
        raise Mismatch("Hamiltonian carries an s-weight", h)
    return h


def to_m_form(op: WeylOp, ell: HalfInt) -> WeylOp:
    """Reinterpret the central-charge symbol via c = -(2l+1) m; the
    scalar symbol of the result means m."""
    factor = Fraction(-(ell.twice + 1))
    return WeylOp(op.chart,
                  {k: v.subs_c_scale(factor) for k, v in op.terms.items()})


def hamiltonian_m_form_expected(ell: HalfInt) -> WeylOp:
    """-(1/2m) d1^2 + (m/2) u1^2 + sum (2a-1) u_a d_a
    - sum (2l+1-2a) u_a d_{a+1} + (1/8)(2l-1)(2l+3), symbol = m."""
    chart = Chart("osc", ell)
    L = chart.L
    tl = ell.twice
    op = WeylOp.der(chart, 1, power=2,
                    coef=CScalar.c_power(-1, Fraction(-1, 2)))
    op = op + WeylOp.var(chart, 0, power=2,
                         coef=CScalar.c_power(1, Fraction(1, 2)))
    for a in range(2, L + 1):
        op = op + (2 * a - 1) * (WeylOp.var(chart, a - 1)
                                 * WeylOp.der(chart, a))
    for a in range(1, L):
        op = op - (tl + 1 - 2 * a) * (WeylOp.var(chart, a - 1)
                                      * WeylOp.der(chart, a + 1))
    op = op + WeylOp.const(chart, Fraction((tl - 1) * (tl + 3), 8))
    return op


def vacuum_energy(ell: HalfInt, normalization: str = "section7") -> Fraction:
    if normalization == "section6":
        return Fraction(1)
    return Fraction((ell.twice + 1) ** 2, 8)


def vacuum(ell: HalfInt, normalization: str = "section7") -> GaussFunc:
    """Gaussian state killed by every raising operator.

    section7: exp(-(m/2) u1^2), i.e. kappa = c/(2(2l+1)), no s-weight;
    section6: e^s exp((c/2) u^2)."""
    check_half_odd(ell)
    chart = Chart("osc", ell)
    if normalization == "section6":
        if ell.twice != 3:
            raise NormalizationUnavailable(
                "the section6 fixture exists only at ell=3/2")
        kappa = CScalar.c_power(1, Fraction(1, 2))
        f = GaussFunc.monomial(chart, kappa, mu2=2)
    else:
        kappa = CScalar.c_power(1, Fraction(1, 2 * (ell.twice + 1)))
        f = GaussFunc.monomial(chart, kappa)
    gens = _gens_for(ell, normalization)
    for j in positive_w_indices(ell):
        img = apply_op(gens[w_label(j)], f)
        if not img.is_zero():
            raise Mismatch(f"raising operator w_{j} on the vacuum", img)
    return f


@dataclass
class SpectrumRecord:
    n: Tuple[int, ...]
    energy: Fraction
    state: GaussFunc
    normalization: str

    def to_json(self) -> dict:
        return {"n": list(self.n),
                "energy": {"n": str(self.energy.numerator),
                           "d": str(self.energy.denominator)}}


def ladder_energy(ell: HalfInt, normalization: str,
                  n: Sequence[int]) -> Fraction:
    if normalization == "section6":
        m, k = n
        return Fraction(3, 2) * m + Fraction(1, 2) * k + 1
    return sum(Fraction(2 * a - 1) * na
               for a, na in enumerate(n, start=1)) + vacuum_energy(ell)


def ladder_state(ell: HalfInt, normalization: str,
                 n: Sequence[int]) -> SpectrumRecord:
    """Eigenstate built by lowering operators acting on the vacuum.

    section7: n = (n_1 .. n_L) with n_a counting w_{-(a-1/2)}; the
    highest lowering operator acts innermost.  section6: n = (m, k) with
    m counting w_{-3/2} and k counting w_{-1/2}, w_{-1/2} innermost."""
    n = tuple(int(x) for x in n)
    if any(x < 0 for x in n):
        raise ValueError("multi-index entries must be non-negative")
    gens = _gens_for(ell, normalization)
    state = vacuum(ell, normalization)
    if normalization == "section6":
        m, k = n
        word = [(HalfInt(-1), k), (HalfInt(-3), m)]
    else:
        chart = Chart("osc", ell)
        if len(n) != chart.L:
            raise ValueError(f"multi-index must have {chart.L} entries")
        word = [(HalfInt(-(2 * a - 1)), na)
                for a, na in sorted(enumerate(n, start=1), reverse=True)]
    for j, count in word:
        low = gens[w_label(j)]
        for _ in range(count):
            state = apply_op(low, state)
    energy = ladder_energy(ell, normalization, n)
    h = hamiltonian(ell, normalization)
    resid = apply_op(h, state) - state.scaled(CScalar.from_rational(energy))
    if not resid.is_zero():
        raise Mismatch(f"eigen-relation for n={n}", resid)
    return SpectrumRecord(n=n, energy=energy, state=state,
                          normalization=normalization)


def spectrum(ell: HalfInt, max_total: int,
             normalization: str = "section7") -> List[SpectrumRecord]:
    """All ladder states with multi-index total at most max_total,
    ordered by (energy, multi-index)."""
    if max_total < 0:
        raise ValueError("max_total must be non-negative")
    size = 2 if normalization == "section6" else Chart("osc", ell).L
    records = []
    for n in _multi_indices(size, max_total):
        records.append(ladder_state(ell, normalization, n))
    records.sort(key=lambda r: (r.energy, r.n))
    return records


def _multi_indices(size: int, max_total: int):
    out = [[0] * size]
    for total in range(1, max_total + 1):
        for cut in combinations_with_replacement(range(size), total):
            n = [0] * size
            for i in cut:
                n[i] += 1
            out.append(n)
    return [tuple(n) for n in out]


@dataclass
class LadderReport:
    ell: HalfInt
    normalization: str
    split_ok: Optional[bool]
    lowering_commutators_zero: Dict[Tuple[int, int], bool]

    def to_json(self) -> dict:
        return {
            "ell": {"twice": self.ell.twice},
            "normalization": self.normalization,
            "splitOk": self.split_ok,
            "loweringCommutatorsZero": {
                f"{HalfInt(i)},{HalfInt(j)}": v
                for (i, j), v in sorted(
                    self.lowering_commutators_zero.items())},
        }


def ladder_relations(ell: HalfInt,
                     normalization: str = "section7") -> LadderReport:
    """Exact verification of the spectrum-generating relations:
    [Omega0, w_{+-j}] = 0, [H, w_{+-j}] = -+2j w_{+-j}, [z0, H] = 0;
    in the section6 fixture also Omega0 = z0 + H.  The commutators of
    the lowering operators among themselves are measured, not assumed."""
    gens = _gens_for(ell, normalization)
    pnorm = "section5" if normalization == "section6" else normalization
    om0 = omega0_osc(ell, pnorm)
    h = hamiltonian(ell, normalization)
    for j in positive_w_indices(ell):
        for sign in (1, -1):
            w = gens[w_label(HalfInt(sign * j.twice))]
            if not om0.commutator(w).is_zero():
                raise Mismatch(f"[Omega0, w_{sign*j.as_fraction()}]",
                               om0.commutator(w))
            shift = Fraction(-sign) * 2 * j.as_fraction() * _h_scale(
                normalization)
            resid = h.commutator(w) - w.scaled(CScalar.from_rational(shift))
            if not resid.is_zero():
                raise Mismatch(f"[H, w_{sign*j.as_fraction()}] shift", resid)
    z0 = gens[Z_ZERO]
    if not z0.commutator(h).is_zero():
        raise Mismatch("[z0, H]", z0.commutator(h))
    split_ok = None
    if normalization == "section6":
        split_ok = (om0 == z0 + h)
        if not split_ok:
            raise Mismatch("Omega0 - (z0 + H)", om0 - (z0 + h))
    lows = {}
    idx = [j.twice for j in positive_w_indices(ell)]
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            comm = gens[w_label(HalfInt(-i))].commutator(
                gens[w_label(HalfInt(-j))])
            lows[(-i, -j)] = comm.is_zero()
    return LadderReport(ell=ell, normalization=normalization,
                        split_ok=split_ok, lowering_commutators_zero=lows)


def _h_scale(normalization: str) -> Fraction:
    # section7 uses H = 2(Omega0 - z0): ladder shift 2j per unit.
    # section6 uses H = Omega0 - z0: shift j per unit.
    return Fraction(1) if normalization == "section7" else Fraction(1, 2)


# -- independent matrix oracle ------------------------------------------------

@dataclass
class ExactMatrix:
    ell: HalfInt
    basis: List[Tuple[int, ...]]
    entries: Dict[Tuple[int, int], CScalar]
    eigenvalues: List[Fraction]

    def to_json(self) -> dict:
        from .jsonio import cscalar_json
        return {
            "ell": {"twice": self.ell.twice},
            "basis": [list(b) for b in self.basis],
            "entries": [{"row": i, "col": j, "value": cscalar_json(v)}
                        for (i, j), v in sorted(self.entries.items())],
            "eigenvalues": [{"n": str(e.numerator), "d": str(e.denominator)}
                            for e in self.eigenvalues],
        }


def _weighted_order(n: Tuple[int, ...]) -> int:
    return sum(a * na for a, na in enumerate(n, start=1))


def matrix_oracle(ell: HalfInt, max_degree: int) -> ExactMatrix:
    """Independent eigenvalue derivation: conjugate H by the vacuum
    Gaussian, act on all u-monomials of total degree <= max_degree, check
    strict triangularity under G(n) = sum a*n_a, and read the spectrum
    off the (c-free) diagonal."""
    check_half_odd(ell)
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    chart = Chart("osc", ell)
    h = hamiltonian(ell, "section7")
    weight = CScalar.c_power(1, Fraction(1, ell.twice + 1))
    hp = conjugate(h, ("gauss", weight))
    basis = sorted(_multi_indices(chart.L, max_degree),
                   key=lambda n: (_weighted_order(n), n))
    index = {n: i for i, n in enumerate(basis)}
    entries: Dict[Tuple[int, int], CScalar] = {}
    zero_kappa = CScalar.zero()
    for j, mono in enumerate(basis):
        img = apply_op(hp, GaussFunc.monomial(chart, zero_kappa, 0, mono))
        for (mu2, vp), coef in img.terms.items():
            if mu2 != 0:
                raise NotTriangular(f"s-weight appears in column {mono}")
            if vp == mono:
                entries[(j, j)] = coef
                continue
            if _weighted_order(vp) >= _weighted_order(mono):
                raise NotTriangular(
                    f"entry {vp} <- {mono} does not lower the order")
            entries[(index[vp], j)] = coef
    eigenvalues = []
    for j in range(len(basis)):
        diag = entries.get((j, j), CScalar.zero())
        if not diag.is_rational():
            raise DiagonalDependsOnC(f"diagonal at {basis[j]}: {diag}")
        eigenvalues.append(diag.as_rational())
    return ExactMatrix(ell=ell, basis=basis, entries=entries,
                       eigenvalues=eigenvalues)


@dataclass
class ReductionReport:
    ell: HalfInt
    consistent: bool
    constant: Fraction
    restricted: WeylOp

    def to_json(self) -> dict:
        from .jsonio import weylop_json
        return {"ell": {"twice": self.ell.twice},
                "consistent": self.consistent,
                "constant": {"n": str(self.constant.numerator),
                             "d": str(self.constant.denominator)},
                "restricted": weylop_json(self.restricted)}


def harmonic_reduction(ell: HalfInt) -> ReductionReport:
    """Restrict H to functions of u_1 alone.

    Consistency means H preserves that subspace: every term touching
    u_2..u_L must carry a derivative in u_2..u_L.  The restricted
    operator must be the harmonic oscillator plus the constant of the
    printed table."""
    check_half_odd(ell)
    chart = Chart("osc", ell)
    h = hamiltonian(ell, "section7")
    restricted = {}
    for (e, v, d), coef in h.terms.items():
        touches_rest = any(p for p in v[1:])
        derives_rest = any(p for p in d[2:])
        if touches_rest and not derives_rest:
            raise Inconsistent(
                f"term {(e, v, d)} maps u_1-only functions outside")
        if not touches_rest and not derives_rest:
            restricted[(e, v, d)] = coef
    rop = WeylOp(chart, restricted)
    tl = ell.twice
    const = Fraction((tl - 1) * (tl + 3), 8)
    expected = (WeylOp.der(chart, 1, power=2,
                           coef=CScalar.c_power(-1, Fraction(tl + 1, 2)))
                + WeylOp.var(chart, 0, power=2,
                             coef=CScalar.c_power(1,
                                                  Fraction(-1, 2 * (tl + 1))))
                + WeylOp.const(chart, const))
    if rop != expected:
        raise Inconsistent(f"restricted operator differs: {rop - expected!r}")
    return ReductionReport(ell=ell, consistent=True, constant=const,
                           restricted=rop)
