import random
from fractions import Fraction

import pytest
import sympy

from conftest import (gaussfunc_to_sympy, random_cscalar, random_weylop,
                      weyl_apply_sympy)
from cgaosc.errors import ChartMismatch, RelationViolation
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import (Chart, NonHomogeneous, Substitution, WeylOp,
                         conjugate, degree_of, free_to_osc_substitution,
                         identity_substitution)

FREE = Chart("free", HalfInt(3))
OSC = Chart("osc", HalfInt(3))


def random_gaussfunc(chart, rng, kappa=None):
    if kappa is None:
        kappa = random_cscalar(rng)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mu2 = rng.randint(-2, 2) if chart.kind == "osc" else 0
        vp = tuple(rng.randint(0, 2) for _ in range(chart.nvars))
        terms[(mu2, vp)] = random_cscalar(rng)
    return GaussFunc(chart, kappa, terms)


class TestNormalForm:
    def test_basic_relations(self):
        t, dt = WeylOp.var(FREE, 0), WeylOp.der(FREE, 0)
        assert dt * t - t * dt == WeylOp.one(FREE)
        x, dx = WeylOp.var(FREE, 1), WeylOp.der(FREE, 1)
        assert dx * x == x * dx + WeylOp.one(FREE)
        assert dt * x == x * dt

    def test_exp_weight_relation(self):
        ds = WeylOp.der(OSC, 0)
        es = WeylOp.exp_s(OSC, HalfInt(2))
        # d_s e^s = e^s (d_s + 1)
        assert ds * es == es * ds + es

    def test_no_polynomial_s_in_osc(self):
        # the osc chart has no s variable to multiply by: every term key
        # carries the s-dependence in the exponential weight only
        rng = random.Random(0)
        for _ in range(50):
            a = random_weylop(OSC, rng)
            b = random_weylop(OSC, rng)
            for (e, v, d) in (a * b).terms:
                assert len(v) == OSC.nvars
                assert len(d) == OSC.nders

    def test_negative_t_powers(self):
        t, dt = WeylOp.var(FREE, 0), WeylOp.der(FREE, 0)
        t_inv = WeylOp.var(FREE, 0, power=-1)
        assert dt * t_inv == t_inv * dt - WeylOp.var(FREE, 0, power=-2)
        assert t_inv * t == t * t_inv == WeylOp.one(FREE)

    def test_laurent_in_t_is_associative(self):
        rng = random.Random(47)
        for _ in range(40):
            a, b, d = (random_weylop(FREE, rng, nterms=2)
                       * WeylOp.var(FREE, 0, power=rng.randint(-3, 0))
                       for _ in range(3))
            assert (a * b) * d == a * (b * d)

    @pytest.mark.parametrize("kappa", [CScalar.zero(), CScalar.c()],
                             ids=["bare", "gauss"])
    def test_apply_to_negative_t_power(self, kappa):
        f = GaussFunc.monomial(FREE, kappa, varpow=(-1, 0, 0))
        want = GaussFunc.monomial(FREE, kappa, varpow=(-2, 0, 0), coef=-1)
        assert apply_op(WeylOp.der(FREE, 0), f) == want

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            WeylOp.var(FREE, 0) * WeylOp.var(OSC, 0)

    def test_term_keys_must_fit_the_chart(self):
        one = CScalar.one()
        with pytest.raises(ChartMismatch):
            WeylOp(OSC, {(0, (0,) * (OSC.nvars + 1), (0,) * OSC.nders): one})
        with pytest.raises(ChartMismatch):
            WeylOp(FREE, {(2, (0,) * FREE.nvars, (0,) * FREE.nders): one})
        with pytest.raises(ChartMismatch):
            GaussFunc(FREE, CScalar.zero(), {(0, (1,)): one})
        with pytest.raises(ChartMismatch):
            GaussFunc(FREE, CScalar.zero(), {(2, (0,) * FREE.nvars): one})

    def test_zero_gaussfuncs_hash_alike(self):
        a = GaussFunc.zero(FREE, CScalar.zero())
        b = GaussFunc.zero(FREE, CScalar.c())
        assert a == b
        assert len({a, b}) == 1


class TestSympyOracle:
    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_apply_matches_sympy(self, chart):
        rng = random.Random(11)
        for _ in range(25):
            op = random_weylop(chart, rng)
            f = random_gaussfunc(chart, rng)
            ours = gaussfunc_to_sympy(apply_op(op, f))
            theirs = weyl_apply_sympy(op, gaussfunc_to_sympy(f), chart)
            assert sympy.simplify(ours - theirs) == 0

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_product_matches_sympy(self, chart):
        rng = random.Random(13)
        for _ in range(15):
            a = random_weylop(chart, rng, nterms=2, maxpow=2)
            b = random_weylop(chart, rng, nterms=2, maxpow=2)
            f = random_gaussfunc(chart, rng)
            fs = gaussfunc_to_sympy(f)
            ours = weyl_apply_sympy(a * b, fs, chart)
            theirs = weyl_apply_sympy(a, weyl_apply_sympy(b, fs, chart),
                                      chart)
            assert sympy.simplify(ours - theirs) == 0

    def test_gauss_conjugation_matches_sympy(self):
        from conftest import sympy_vars
        rng = random.Random(17)
        c = sympy.Symbol("c")
        u1 = sympy_vars(OSC)[OSC.gauss_var]
        kappa = CScalar.c_power(1, Fraction(1, 2))
        q = sympy.Rational(1, 2) * c * u1 ** 2 / 2
        for _ in range(10):
            a = random_weylop(OSC, rng, nterms=2, maxpow=2)
            b = conjugate(a, ("gauss", kappa))
            f = random_gaussfunc(OSC, rng, kappa=CScalar.zero())
            fs = gaussfunc_to_sympy(f)
            lhs = weyl_apply_sympy(b, fs, OSC)
            rhs = sympy.exp(-q) * weyl_apply_sympy(
                a, sympy.expand(sympy.exp(q) * fs), OSC)
            assert sympy.simplify(sympy.expand(lhs - rhs)) == 0

    def test_sshift_conjugation_matches_sympy(self):
        rng = random.Random(19)
        s = sympy.Symbol("s")
        for _ in range(10):
            a = random_weylop(OSC, rng, nterms=2, maxpow=2)
            b = conjugate(a, ("sshift", Fraction(-1)))
            f = random_gaussfunc(OSC, rng, kappa=CScalar.zero())
            fs = gaussfunc_to_sympy(f)
            lhs = weyl_apply_sympy(b, fs, OSC)
            rhs = sympy.exp(s) * weyl_apply_sympy(
                a, sympy.expand(sympy.exp(-s) * fs), OSC)
            assert sympy.simplify(sympy.expand(lhs - rhs)) == 0


class TestEngineProperties:
    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_associativity(self, chart):
        rng = random.Random(23)
        for _ in range(60):
            a = random_weylop(chart, rng, nterms=2)
            b = random_weylop(chart, rng, nterms=2)
            d = random_weylop(chart, rng, nterms=2)
            assert (a * b) * d == a * (b * d)

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_jacobi_identity(self, chart):
        rng = random.Random(29)
        z = WeylOp.zero(chart)
        for _ in range(60):
            a = random_weylop(chart, rng, nterms=2)
            b = random_weylop(chart, rng, nterms=2)
            d = random_weylop(chart, rng, nterms=2)
            total = (a.commutator(b).commutator(d)
                     + b.commutator(d).commutator(a)
                     + d.commutator(a).commutator(b))
            assert total == z

    def test_substitution_homomorphism(self):
        rng = random.Random(31)
        sub = free_to_osc_substitution(HalfInt(3))
        for _ in range(60):
            a = random_weylop(FREE, rng, nterms=2)
            b = random_weylop(FREE, rng, nterms=2)
            assert sub(a * b) == sub(a) * sub(b)
            assert sub(a + b) == sub(a) + sub(b)

    def test_apply_compatibility(self):
        rng = random.Random(37)
        for _ in range(60):
            a = random_weylop(OSC, rng, nterms=2)
            b = random_weylop(OSC, rng, nterms=2)
            f = random_gaussfunc(OSC, rng)
            assert apply_op(a * b, f) == apply_op(a, apply_op(b, f))

    def test_conjugation_is_automorphism(self):
        rng = random.Random(41)
        kappa = random_cscalar(rng)
        for _ in range(40):
            a = random_weylop(OSC, rng, nterms=2)
            b = random_weylop(OSC, rng, nterms=2)
            for w in (("gauss", kappa), ("sshift", Fraction(3, 2))):
                ca, cb = conjugate(a, w), conjugate(b, w)
                assert conjugate(a * b, w) == ca * cb


class TestSubstitution:
    def test_identity(self):
        rng = random.Random(43)
        ident = identity_substitution(FREE)
        for _ in range(10):
            a = random_weylop(FREE, rng)
            assert ident(a) == a

    def test_bad_relations_rejected(self):
        # mapping d_t to something that does not commute with the images
        # of the variables must be refused
        sub = free_to_osc_substitution(HalfInt(3))
        broken_ders = list(sub.der_images)
        broken_ders[0] = broken_ders[0] + WeylOp.var(OSC, 0)
        with pytest.raises(RelationViolation):
            Substitution(FREE, OSC, sub.var_images, broken_ders)


class TestGrading:
    def test_degree_of(self):
        from cgaosc.realizations import Z_ZERO, free_generators, w_label
        gens = free_generators(HalfInt(3))
        z0 = gens[Z_ZERO]
        assert degree_of(gens[w_label(HalfInt(3))], z0) == HalfInt(3)
        assert degree_of(gens[w_label(HalfInt(-1))], z0) == HalfInt(-1)
        mixed = gens[w_label(HalfInt(3))] + gens[w_label(HalfInt(-1))]
        assert degree_of(mixed, z0) is NonHomogeneous
