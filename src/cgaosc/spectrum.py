"""The oscillator Hamiltonian, its Gaussian vacuum, ladder-generated
eigenfunctions, the exact spectrum, and an independent triangular-matrix
oracle for the eigenvalues.

The spectrum conventions are section7 and section6; their realization,
h in H = h (Omega0 - z0) and the ell where they exist come from
realizations.CONVENTIONS, tabulated in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DiagonalDependsOnC, Inconsistent, Mismatch, NotTriangular
from .funcspace import (GaussFunc, apply_op, from_rows, image, prepare,
                        to_rows)
from .onshell import omega0_osc
from .realizations import (Z_ZERO, convention, delta, osc_generators,
                           positive_w_indices, w_label)
from .scalars import CScalar, HalfInt, check_half_odd
from .weyl import Chart, WeylOp, conjugate


@lru_cache(maxsize=None)
def hamiltonian(ell: HalfInt, normalization: str = "section7") -> WeylOp:
    """The effective Hamiltonian extracted from the degree-0 invariant
    operator: H = h (Omega0 - z0), with h = 2 in the section7 convention
    and h = 1 in the section6 fixture."""
    conv = convention(ell, normalization, "spectrum")
    gens = osc_generators(ell, conv.realization)
    h = conv.h * (omega0_osc(ell, conv.realization) - gens[Z_ZERO])
    if normalization == "section6":
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
    """E0 = h delta."""
    return _energy_constants(ell, normalization)[0]


def vacuum(ell: HalfInt, normalization: str = "section7") -> GaussFunc:
    """Gaussian state killed by every raising operator.

    section7: exp(-(m/2) u1^2), i.e. kappa = c/(2(2l+1)), no s-weight;
    section6: e^s exp((c/2) u^2)."""
    conv = convention(ell, normalization, "spectrum")
    chart = Chart("osc", ell)
    if normalization == "section6":
        kappa = CScalar.c_power(1, Fraction(1, 2))
        f = GaussFunc.monomial(chart, kappa, mu2=2)
    else:
        kappa = CScalar.c_power(1, Fraction(1, 2 * (ell.twice + 1)))
        f = GaussFunc.monomial(chart, kappa)
    gens = osc_generators(ell, conv.realization)
    for j in positive_w_indices(ell):
        img = apply_op(gens[w_label(j)], f)
        if not img.is_zero():
            raise Mismatch(f"raising operator w_{j} on the vacuum", img)
    return f


@dataclass
class SpectrumRecord:
    n: Tuple[int, ...]
    energy: Fraction


def _lowering_order(ell: HalfInt, normalization: str) -> List[HalfInt]:
    """j_a of each multi-index position, n_a counting w_{-j_a}: a - 1/2
    in section7; section6 prints n = (m, k) over w_{-3/2}, w_{-1/2}."""
    if normalization == "section6":
        return [HalfInt(3), HalfInt(1)]
    return positive_w_indices(ell)


def _check_multi_index(n: Sequence[int], size: int) -> None:
    if len(n) != size or any(not isinstance(x, int) or isinstance(x, bool)
                             or x < 0 for x in n):
        raise ValueError(f"multi-index must have {size} non-negative "
                         "int entries")


def _check_bound(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


@lru_cache(maxsize=None)
def _energy_constants(ell: HalfInt, normalization: str):
    """h delta, h / 2 and the 2 j_a of _lowering_order."""
    h = convention(ell, normalization, "spectrum").h
    return h * delta(ell), h / 2, tuple(j.twice for j in
                                        _lowering_order(ell, normalization))


def ladder_energy(ell: HalfInt, normalization: str,
                  n: Sequence[int]) -> Fraction:
    """E(n) = h (delta + sum_a j_a n_a): lowering by w_{-j} shifts the
    energy by h j."""
    base, half_h, twice_js = _energy_constants(ell, normalization)
    _check_multi_index(n, len(twice_js))
    return base + half_h * sum(t * na for t, na in zip(twice_js, n))


class Ladder:
    """The lowering tree of one (ell, normalization) spectrum, in the
    vacuum's frame.  Every state is P e^{kappa x1^2} with the vacuum's
    kappa, so lowering and h hold the lowering operators and H conjugated
    once by weyl.conjugate(op, ("gauss", 2 kappa)) and prepared for
    funcspace.image, which reads only the integer part t / d of P, as
    flat rows over d, keyed by one int packing (exponents, 2mu, c-power).
    parts holds the parts built so far: the vacuum's rows, and for every
    other state the rows of its lowering step's image, unreduced;
    vacuum() checks the raising operators once, on the Gaussian state.

    A state is one lowering step from its parent:
    state(n) = low_i(state(n - e_i)) with i the first position where
    n_i > 0, i.e. the outermost operator of the state's word, so each
    state is the same product as a build from the vacuum.  The lowering
    operators need not commute."""

    def __init__(self, ell: HalfInt, normalization: str = "section7"):
        conv = convention(ell, normalization, "spectrum")
        gens = osc_generators(ell, conv.realization)
        vac = vacuum(ell, normalization)
        frame = ("gauss", vac.kappa + vac.kappa)
        self.ell = ell
        self.normalization = normalization
        self.vacuum = vac
        self.lowering = [prepare(conjugate(gens[w_label(-j)], frame))
                         for j in _lowering_order(ell, normalization)]
        self.h = prepare(conjugate(hamiltonian(ell, normalization), frame))
        self.parts: Dict[Tuple[int, ...], Tuple[dict, int]] = {
            (0,) * len(self.lowering): to_rows(vac.terms)}

    def _build(self, n: Tuple[int, ...]) -> Tuple[dict, int]:
        """The part (t, d) of the checked multi-index n, built down the
        tree from its nearest ancestor built so far; every step's image
        is checked nonzero."""
        path = []
        while n not in self.parts:
            i = next(i for i, x in enumerate(n) if x)
            path.append((n, i))
            n = n[:i] + (n[i] - 1,) + n[i + 1:]
        part = self.parts[n]
        for m, i in reversed(path):
            part = image(self.lowering[i], *part)
            if not any(part[0].values()):
                # a zero state satisfies every eigen-relation, so the
                # eigen check cannot catch it
                raise Mismatch(f"lowering step to n={m} gives the zero state",
                               self.vacuum._like({}))
            self.parts[m] = part
        return part

    def state(self, n: Sequence[int]) -> GaussFunc:
        """The state of the multi-index n, a sequence of ints, made from
        its part on the vacuum's chart and kappa."""
        n = tuple(n)
        _check_multi_index(n, len(self.lowering))
        return self.vacuum._like(from_rows(*self._build(n)))


def ladder_state(ladder: Ladder, n: Sequence[int]) -> SpectrumRecord:
    """The energy of the eigenstate built by lowering operators acting on
    the vacuum, with its eigen-relation checked exactly: e^{-q} (H - E)
    e^{q} P = (conj H - E) P, with e^{q} the vacuum Gaussian and
    conj H = ladder.h.  The residual's rows come from the one image of
    P's rows t_p / d_p and must all be zero; a failing Mismatch carries
    the residual.  ladder.state(n) makes the state itself.

    n_a counts w_{-j_a} in the order of _lowering_order of the ladder's
    (ell, normalization); the last position acts innermost."""
    n = tuple(n)
    energy = ladder_energy(ladder.ell, ladder.normalization, n)
    t_p, d_p = ladder._build(n)
    # conj(H) P = t_r / d_r and E P = e t_p / d_r, with d_r = d_h d_p
    # and e = E d_h, an int (so the sums stay ints) wherever it is one
    t_r, d_r = image(ladder.h, t_p, d_p)
    e = energy * ladder.h[1]
    e = e.numerator if e.denominator == 1 else e
    for key, q in t_p.items():
        t_r[key] = t_r.get(key, 0) - e * q
    if any(t_r.values()):
        raise Mismatch(f"eigen-relation for n={n}",
                       ladder.vacuum._like(from_rows(t_r, d_r)))
    return SpectrumRecord(n=n, energy=energy)


def spectrum(ell: HalfInt, max_total: int,
             normalization: str = "section7") -> List[SpectrumRecord]:
    """All ladder states with multi-index total at most max_total,
    ordered by (energy, multi-index).  One Ladder serves them all; every
    state's eigen-relation is checked."""
    _check_bound("max_total", max_total)
    ladder = Ladder(ell, normalization)
    records = [ladder_state(ladder, n)
               for n in _multi_indices(len(ladder.lowering), max_total)]
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


def ladder_relations(ell: HalfInt, normalization: str = "section7"
                     ) -> Tuple[Optional[bool], Dict[Tuple[int, int], bool]]:
    """Exact verification of the spectrum-generating relations:
    [Omega0, w_{+-j}] = 0, [H, w_{+-j}] = -+h j w_{+-j}, [z0, H] = 0;
    in the section6 fixture also Omega0 = z0 + H.  The commutators of
    the lowering operators among themselves are measured, not assumed.
    Returns split_ok, True when Omega0 = z0 + H was checked and None
    otherwise, and whether [w_{-i/2}, w_{-j/2}] = 0, keyed (-i, -j)."""
    conv = convention(ell, normalization, "spectrum")
    gens = osc_generators(ell, conv.realization)
    om0 = omega0_osc(ell, conv.realization)
    h = hamiltonian(ell, normalization)
    for j in positive_w_indices(ell):
        for sign in (1, -1):
            w = gens[w_label(HalfInt(sign * j.twice))]
            if not om0.commutator(w).is_zero():
                raise Mismatch(f"[Omega0, w_{sign*j.as_fraction()}]",
                               om0.commutator(w))
            shift = -sign * conv.h * j.as_fraction()
            resid = h.commutator(w) - w.scaled(CScalar.from_rational(shift))
            if not resid.is_zero():
                raise Mismatch(f"[H, w_{sign*j.as_fraction()}] shift", resid)
    z0 = gens[Z_ZERO]
    if not z0.commutator(h).is_zero():
        raise Mismatch("[z0, H]", z0.commutator(h))
    split_ok = None
    if normalization == "section6":
        if om0 != z0 + h:
            raise Mismatch("Omega0 - (z0 + H)", om0 - (z0 + h))
        split_ok = True
    lows = {}
    idx = [j.twice for j in positive_w_indices(ell)]
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            comm = gens[w_label(HalfInt(-i))].commutator(
                gens[w_label(HalfInt(-j))])
            lows[(-i, -j)] = comm.is_zero()
    return split_ok, lows


# -- independent matrix oracle ------------------------------------------------

@dataclass
class ExactMatrix:
    ell: HalfInt
    basis: List[Tuple[int, ...]]
    entries: Dict[Tuple[int, int], CScalar]
    eigenvalues: List[Fraction]


def _weighted_order(n: Tuple[int, ...]) -> int:
    return sum(a * na for a, na in enumerate(n, start=1))


def matrix_oracle(ell: HalfInt, max_degree: int) -> ExactMatrix:
    """Independent eigenvalue derivation: conjugate H by the vacuum
    Gaussian, act on all u-monomials of total degree <= max_degree, check
    strict triangularity under G(n) = sum a*n_a, and read the spectrum
    off the (c-free) diagonal."""
    check_half_odd(ell)
    _check_bound("max_degree", max_degree)
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
            if vp not in index:
                raise NotTriangular(f"entry {vp} <- {mono} is outside the "
                                    f"basis of degree <= {max_degree}")
            entries[(index[vp], j)] = coef
    eigenvalues = []
    for j in range(len(basis)):
        diag = entries.get((j, j), CScalar.zero())
        if not diag.is_rational():
            raise DiagonalDependsOnC(f"diagonal at {basis[j]}: {diag}")
        eigenvalues.append(diag.as_rational())
    return ExactMatrix(ell=ell, basis=basis, entries=entries,
                       eigenvalues=eigenvalues)


def harmonic_reduction(ell: HalfInt) -> Tuple[Fraction, WeylOp]:
    """Restrict H to functions of u_1 alone.

    Consistency means H preserves that subspace: every term touching
    u_2..u_L must carry a derivative in u_2..u_L.  The restricted
    operator must be the harmonic oscillator plus the constant of the
    printed table.  Returns that constant and the restricted operator."""
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
    return const, rop
