"""Shared helpers: seeded random generators for exact scalars and
operators, a sympy-based application oracle for the operator engine, a
fixture that clears the package's build caches, one that records the
operators funcspace.prepare is called on, the printed ell=3/2
invariants as algebra elements, and the realized-bracket oracle of the
enlarged structure tables.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
import sympy

import cgaosc.funcspace
from cgaosc.errors import NotClosed
from cgaosc.realizations import (AlgebraElement, SpanBasis, StructureTable,
                                 Z_PLUS, Z_ZERO, label_sort_key, ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import (ANTICOMMUTATOR, COMMUTATOR, Chart, WeylOp, bracket,
                         prepare)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def random_cscalar(rng: random.Random, maxpow: int = 1) -> CScalar:
    out = CScalar.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + CScalar.c_power(rng.randint(-maxpow, maxpow),
                                    random_fraction(rng))
    return out


def random_weylop(chart: Chart, rng: random.Random,
                  nterms: int = 3, maxpow: int = 2) -> WeylOp:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        if chart.kind == "osc":
            e = rng.randint(-2, 2)
        else:
            e = 0
        v = tuple(rng.randint(0, maxpow) for _ in range(chart.nvars))
        d = tuple(rng.randint(0, maxpow) for _ in range(chart.nders))
        terms[(e, v, d)] = random_cscalar(rng)
    return WeylOp(chart, terms)


def _clear_package_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "cgaosc" or name.startswith("cgaosc."):
            for fn in list(vars(module).values()):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


@pytest.fixture
def fresh_caches():
    """Clear every lru_cache of the package before and after the test,
    so that a corrupted input reads no build cached before it and leaves
    none behind.  Request it before monkeypatch, so that the patches are
    undone before the caches are cleared again."""
    _clear_package_caches()
    yield
    _clear_package_caches()


@pytest.fixture
def prepared_ops(monkeypatch):
    """The operators funcspace.prepare is called on during the test, in
    call order; each call still prepares."""
    calls = []
    fn = cgaosc.funcspace.prepare

    def counted(op):
        calls.append(op)
        return fn(op)

    monkeypatch.setattr(cgaosc.funcspace, "prepare", counted)
    return calls


# -- the printed ell=3/2 invariants ------------------------------------------

@pytest.fixture
def omega1_abstract_threehalf() -> AlgebraElement:
    """z_{+1} + (1/2c) w_{3/2,-1/2} - (1/2c) w_{1/2,1/2}."""
    h = HalfInt
    inv2c = CScalar.c_power(-1, Fraction(1, 2))
    return (AlgebraElement.of(Z_PLUS)
            + AlgebraElement.of(ww_label(h(3), h(-1)), inv2c)
            - AlgebraElement.of(ww_label(h(1), h(1)), inv2c))


@pytest.fixture
def omega0_abstract_threehalf() -> AlgebraElement:
    """z_0 + (1/4c) w_{1/2,-1/2} - (1/4c) w_{3/2,-3/2}."""
    h = HalfInt
    inv4c = CScalar.c_power(-1, Fraction(1, 4))
    return (AlgebraElement.of(Z_ZERO)
            + AlgebraElement.of(ww_label(h(1), h(-1)), inv4c)
            - AlgebraElement.of(ww_label(h(3), h(-3)), inv4c))


def multipliers(cert) -> dict:
    """The nonzero multipliers of an on-shell certificate, by label."""
    return {k: v for k, v in cert.items() if v is not None}


# -- realized-bracket oracle -------------------------------------------------

def realized_tables(realized, odd=frozenset()):
    """The plain and the graded structure table of a closed realized set,
    each bracket taken on the operators and re-expanded in their span.

    The plain table holds every commutator; the graded one shares its
    entries of the pairs that are not both odd and holds the
    anticommutators of the odd-odd pairs (the diagonal included).
    Raises NotClosed naming the pair whose bracket leaves the span.  It
    shares no code with the Leibniz derivation it checks."""
    span = SpanBasis(realized)
    labels = sorted(realized, key=label_sort_key)
    ops = {label: prepare(op) for label, op in realized.items()}
    plain, graded = {}, {}

    def expand(op, a, b):
        try:
            return span.expand(op, span.degrees[a].twice
                               + span.degrees[b].twice)
        except NotClosed as exc:
            raise NotClosed((a, b), exc.residual) from exc

    for i, a in enumerate(labels):
        for b in labels[i:]:
            odd_odd = a in odd and b in odd
            if a != b:
                comm = bracket(ops[a], ops[b], COMMUTATOR)
                if not comm.is_zero():
                    plain[(a, b)] = expand(comm, a, b)
                    if not odd_odd:
                        graded[(a, b)] = plain[(a, b)]
            if odd_odd:
                anti = bracket(ops[a], ops[b], ANTICOMMUTATOR)
                if not anti.is_zero():
                    graded[(a, b)] = expand(anti, a, b)
    return (StructureTable(labels, plain),
            StructureTable(labels, graded, odd))


# -- sympy oracle -------------------------------------------------------------

_C = sympy.Symbol("c")


def sympy_vars(chart: Chart):
    return [sympy.Symbol(n) for n in chart.var_names()]


def cscalar_to_sympy(cs: CScalar):
    return sum(sympy.Rational(q) * _C ** k for k, q in cs.items_sorted())


def weyl_apply_sympy(op: WeylOp, expr, chart: Chart):
    """Apply op to a sympy expression in the chart variables (and s)."""
    s = sympy.Symbol("s")
    xs = sympy_vars(chart)
    out = sympy.Integer(0)
    for (e, v, d), cs in op.terms.items():
        work = expr
        if chart.kind == "osc":
            for _ in range(d[0]):
                work = sympy.diff(work, s)
            space = d[1:]
        else:
            space = d
        for x, n in zip(xs, space):
            for _ in range(n):
                work = sympy.diff(work, x)
        mono = sympy.Integer(1)
        for x, p in zip(xs, v):
            mono *= x ** p
        weight = sympy.exp(sympy.Rational(e, 2) * s)
        out += cscalar_to_sympy(cs) * weight * mono * work
    return sympy.expand(out)


def gaussfunc_to_sympy(f):
    s = sympy.Symbol("s")
    xs = sympy_vars(f.chart)
    out = sympy.Integer(0)
    for (mu2, vp), cs in f.terms.items():
        mono = sympy.Integer(1)
        for x, p in zip(xs, vp):
            mono *= x ** p
        out += (cscalar_to_sympy(cs) * sympy.exp(sympy.Rational(mu2, 2) * s)
                * mono)
    g = xs[f.chart.gauss_var]
    return sympy.expand(out) * sympy.exp(cscalar_to_sympy(f.kappa) * g ** 2)
