"""Invariant operators of degree 1 and 0: explicit construction, an
independent from-scratch solver over the degree-graded even sector,
and multiplier-function certificates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .enlarged import free_enlarged
from .errors import (Mismatch, NonUniqueSolution, NoSolution,
                     NotProportional)
from .linsolve import SpanSolver
from .realizations import (AlgebraElement, GenLabel, Z_PLUS, Z_ZERO,
                           convention, label_sort_key, label_str,
                           positive_w_indices, w_label)
from .scalars import CScalar, HalfInt, check_half_odd
from .weyl import (COMMUTATOR, Chart, WeylOp, bracket, degree_of,
                   prepare)


@lru_cache(maxsize=None)
def omega1_free(ell: HalfInt) -> WeylOp:
    """The degree-1 invariant second-order operator in the free chart:
    d_t + sum_a (l+1/2-a) y_a d_{y_{a+1}} - (l+1/2)/(2c) d_{y_1}^2."""
    check_half_odd(ell)
    chart = Chart("free", ell)
    L = chart.L
    lf = ell.as_fraction()
    half = Fraction(1, 2)
    op = WeylOp.der(chart, 0)
    for a in range(1, L):
        op = op + (lf + half - a) * (WeylOp.var(chart, a)
                                     * WeylOp.der(chart, a + 1))
    op = op + WeylOp.der(chart, 1, power=2,
                         coef=CScalar.c_power(-1, -(lf + half) / 2))
    return op


@lru_cache(maxsize=None)
def omega0_free(ell: HalfInt) -> WeylOp:
    """Degree-0 companion, defined as -t * Omega1 (operator product)."""
    chart = Chart("free", ell)
    return -(WeylOp.var(chart, 0) * omega1_free(ell))


@lru_cache(maxsize=None)
def omega0_osc(ell: HalfInt, normalization: str = "section7") -> WeylOp:
    """Degree-0 invariant operator in the oscillator chart."""
    convention(ell, normalization, "realization")
    chart = Chart("osc", ell)
    L = chart.L
    lf = ell.as_fraction()
    half = Fraction(1, 2)
    if normalization == "section5":
        # the l=3/2 fixture with the +c/2 Gaussian weight:
        # -d_s - u d_v - (3/2) u d_u + (3/2) v d_v + (1/c) d_u^2
        # + (1/2) c u^2
        u = WeylOp.var(chart, 0)
        v = WeylOp.var(chart, 1)
        du = WeylOp.der(chart, 1)
        dv = WeylOp.der(chart, 2)
        return (-WeylOp.der(chart, 0) - u * dv
                - Fraction(3, 2) * (u * du) + Fraction(3, 2) * (v * dv)
                + WeylOp.der(chart, 1, power=2, coef=CScalar.c_power(-1))
                + WeylOp.var(chart, 0, power=2,
                             coef=CScalar.c().scale(half)))
    op = -WeylOp.der(chart, 0)
    for j in range(2, L + 1):
        op = op + (j - half) * (WeylOp.var(chart, j - 1)
                                * WeylOp.der(chart, j))
    for j in range(1, L):
        op = op - (lf + half - j) * (WeylOp.var(chart, j - 1)
                                     * WeylOp.der(chart, j + 1))
    op = op + WeylOp.der(chart, 1, power=2,
                         coef=CScalar.c_power(-1, (lf + half) / 2))
    op = op + WeylOp.var(chart, 0, power=2,
                         coef=CScalar.c().scale(
                             Fraction(-1, 4) / (2 * lf + 1)))
    op = op + WeylOp.const(chart,
                           Fraction((2 * ell.twice - 2) * (2 * ell.twice + 6),
                                    64))
    return op


@lru_cache(maxsize=None)
def omega1_osc(ell: HalfInt, normalization: str = "section7") -> WeylOp:
    """Degree-1 companion in the oscillator chart: -e^{-s} * Omega0."""
    chart = Chart("osc", ell)
    return -(WeylOp.exp_s(chart, HalfInt(-2)) * omega0_osc(ell, normalization))


def solve_omega1(ell: HalfInt) -> Tuple[WeylOp, AlgebraElement]:
    """Recover Omega1 from scratch: parametrize over the degree-(+1) even
    sector {z_{+1}} U {WW(i,j): i+j=1} and impose [w_k, Omega] = 0 for all
    k > 0.  Returns the realized operator and the abstract combination.

    Raises NoSolution / NonUniqueSolution if the solution space after the
    normalization coefficient(z_{+1}) = 1 is not a single point."""
    basis = free_enlarged(ell)
    gens = basis.realized
    candidates = [Z_PLUS] + sorted(
        (lb for lb in basis.even if lb[0] == "ww" and lb[1] + lb[2] == 2),
        key=label_sort_key)
    # each operator is prepared for the bracket kernel once
    pos = [prepare(gens[w_label(k)]) for k in positive_w_indices(ell)]
    neg = [prepare(gens[w_label(-k)]) for k in positive_w_indices(ell)]
    cands = [prepare(gens[lb]) for lb in candidates]

    def stacked(wops):
        # columns indexed by candidate labels, rows by
        # (which w constraint, Weyl term key)
        cols = []
        for cand in cands:
            col = {}
            for ki, w in enumerate(wops):
                comm = bracket(w, cand, COMMUTATOR)
                for key, cs in comm.terms.items():
                    col[(ki, key)] = cs
            cols.append(col)
        return cols

    # positive-k annihilation first; if that leaves a degeneracy (it does
    # at ell=1/2, where a single w kills the whole sector) extend with the
    # negative-k constraints, which the true solution also satisfies
    cols = stacked(pos)
    nullity = SpanSolver(cols).nullity()
    if nullity > 1:
        cols = stacked(pos + neg)
        nullity = SpanSolver(cols).nullity()
    if nullity == 0:
        raise NoSolution("no invariant operator in the degree-1 sector")
    if nullity > 1:
        raise NonUniqueSolution(
            f"solution space dimension {nullity} before normalization")
    # normalize the z_{+1} coefficient to 1 and move it to the rhs
    rhs = {k: -v for k, v in cols[0].items()}
    solver = SpanSolver(cols[1:])
    xs = solver.solve(rhs)
    elem = AlgebraElement.of(Z_PLUS)
    for lb, x in zip(candidates[1:], xs):
        elem = elem + AlgebraElement.of(lb, x)
    op = elem.realize(basis.realized, gens[Z_PLUS].chart)
    prepared = prepare(op)
    for w in pos + neg:
        resid = bracket(w, prepared, COMMUTATOR)
        if not resid.is_zero():
            raise NoSolution(f"solver residual nonzero: {resid!r}")
    return op, elem


# -- on-shell certificates ---------------------------------------------------

def _multiplier_candidate(comm: WeylOp, omega: WeylOp,
                          d_omega: Optional[HalfInt],
                          z0: WeylOp) -> Optional[WeylOp]:
    """Find f in the chart's multiplier class with comm = f * omega, for
    omega of degree d_omega.

    Free chart: f = alpha * t^k (k may be negative); osc chart:
    f = alpha * exp(mu*s).  The exponent is fixed by the grading gap and
    alpha by the exact ratio of comm to the unit multiplier times
    omega."""
    chart = omega.chart
    d_comm = degree_of(comm, z0)
    if d_omega is None or d_comm is None:
        return None
    gap = d_omega - d_comm  # multiplier degree is -k (free) / -mu (osc)
    if chart.kind == "free":
        if not gap.is_integer:
            return None
        unit = WeylOp.var(chart, 0, power=int(gap.as_fraction()))
    else:
        unit = WeylOp.exp_s(chart, gap)
    alpha = comm.proportionality(unit * omega)
    return None if alpha is None else unit.scaled(alpha)


def certify_onshell(omega: WeylOp, gens: Dict[GenLabel, WeylOp]
                    ) -> Dict[GenLabel, Optional[WeylOp]]:
    """For every CGA generator g in gens and every w{i,j} = {w_i, w_j},
    either [g, omega] = 0 or [g, omega] = f^g * omega with f^g in the
    chart's multiplier class, verified exactly; raises NotProportional
    at the first label, in label order, where neither holds.  By the
    Leibniz rule [w{i,j}, omega] = {[w_i, omega], w_j} + {w_i, [w_j,
    omega]}, a w{i,j} entry is strict zero when both w entries are;
    any other is bracketed as an operator.  Returns each label's
    multiplier f^g, or None for a strict zero, in label order."""
    z0 = gens[Z_ZERO]
    d_omega = degree_of(omega, z0)
    table: Dict[GenLabel, Optional[WeylOp]] = {}

    def entry(lb: GenLabel, op: WeylOp) -> None:
        comm = op.commutator(omega)
        if comm.is_zero():
            table[lb] = None
            return
        f = _multiplier_candidate(comm, omega, d_omega, z0)
        if f is None:
            raise NotProportional(label_str(lb), comm)
        table[lb] = f

    for lb in sorted(gens, key=label_sort_key):
        entry(lb, gens[lb])
    ws = [lb for lb in table if lb[0] == "w"]  # from w+ell down
    for a, wi in enumerate(ws):
        for wj in ws[a:]:
            lb = ("ww", wi[1], wj[1])
            if table[wi] is None and table[wj] is None:
                table[lb] = None
            else:
                entry(lb, gens[wi].anticommutator(gens[wj]))
    return table


def cross_relations(omega0: WeylOp, omega1: WeylOp) -> None:
    """Bracket relations between the two invariant operators:
    free chart [Omega1, Omega0] = -Omega1; osc chart
    [Omega0, Omega1] = +Omega1 and Omega1 = -e^{-s} Omega0.
    Raises Mismatch with the residual when one fails."""
    chart = omega0.chart
    if chart.kind == "free":
        resid = omega1.commutator(omega0) + omega1
        if not resid.is_zero():
            raise Mismatch("[Omega1, Omega0] + Omega1", resid)
        return
    resid = omega0.commutator(omega1) - omega1
    if not resid.is_zero():
        raise Mismatch("[Omega0, Omega1] - Omega1", resid)
    resid = omega1 + WeylOp.exp_s(chart, HalfInt(-2)) * omega0
    if not resid.is_zero():
        raise Mismatch("Omega1 + e^{-s} Omega0", resid)
