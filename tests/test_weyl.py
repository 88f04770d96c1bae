import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from conftest import (gaussfunc_to_sympy, random_cscalar, random_weylop,
                      weyl_apply_sympy)
from cgaosc.errors import ChartMismatch, NotMonomial, RelationViolation
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.realizations import C_LABEL, Z_PLUS, AlgebraElement
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import (COMMUTATOR, Chart, Substitution, WeylOp, bracket,
                         conjugate, degree_of, free_to_osc_substitution,
                         prepare)

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

    # one slot too many or too few, in the var or the der tuple: in the
    # product kernel such a key would lose a slot or index past its end
    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    @pytest.mark.parametrize("dv,dd", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_key_lengths_fit_both_charts(self, chart, dv, dd):
        key = (0, (1,) * (chart.nvars + dv), (1,) * (chart.nders + dd))
        with pytest.raises(ChartMismatch):
            WeylOp(chart, {key: CScalar.one()})

    @pytest.mark.parametrize("make", [
        lambda: WeylOp.const(FREE, 0.1),
        lambda: WeylOp.var(FREE, 0, coef=0.5),
        lambda: WeylOp.der(OSC, 1, coef=True),
        lambda: conjugate(WeylOp.der(OSC, 0), ("sshift", 0.1)),
        lambda: WeylOp.var(FREE, 0) * 2,
        lambda: 0.5 * WeylOp.var(FREE, 0),
    ], ids=["const-float", "var-float", "der-bool", "sshift-float",
            "scalar-on-the-right", "float-on-the-left"])
    def test_inexact_coefficients_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_zero_gaussfuncs_hash_alike(self):
        a = GaussFunc(FREE, CScalar.zero())
        b = GaussFunc(FREE, CScalar.c())
        assert a == b
        assert len({a, b}) == 1


class TestBracketKernel:
    """commutator/anticommutator form only the contraction terms; they
    must agree with the full products a*b and b*a."""

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_brackets_match_products(self, chart):
        rng = random.Random(53)
        pairs = []
        for _ in range(30):
            a = random_weylop(chart, rng)
            b = random_weylop(chart, rng)
            if chart.kind == "free":
                a = a * WeylOp.var(FREE, 0, power=rng.randint(-3, 0))
                b = WeylOp.var(FREE, 0, power=rng.randint(-3, 0)) * b
            pairs.append((a, b))
        pairs += [(a, a) for a, _ in pairs[:10]]
        if chart.kind == "osc":
            # d_s^2 u against e^{-3s/2} u^2 and back
            a = WeylOp.der(OSC, 0, power=2) * WeylOp.var(OSC, 0)
            b = (WeylOp.exp_s(OSC, HalfInt(-3), coef=CScalar.c())
                 * WeylOp.var(OSC, 0, power=2))
            pairs.append((a, b))
        for a, b in pairs:
            ab, ba = a * b, b * a
            assert a.commutator(b) == ab - ba
            assert a.anticommutator(b) == ab + ba

    def test_pair_without_contraction(self):
        # t^-2 x and y dy: no derivative of either meets a variable of
        # the other, so the products commute
        a = WeylOp.var(FREE, 0, power=-2) * WeylOp.var(FREE, 1)
        b = WeylOp.var(FREE, 2) * WeylOp.der(FREE, 2)
        assert a * b == b * a
        assert a.commutator(b).is_zero()
        assert a.anticommutator(b) == 2 * (a * b)

    def test_chart_mismatch(self):
        other = Chart("free", HalfInt(5))
        for x, y in ((WeylOp.var(FREE, 0), WeylOp.var(OSC, 0)),
                     (WeylOp.der(FREE, 0), WeylOp.var(other, 0))):
            for bracket in (WeylOp.commutator, WeylOp.anticommutator):
                with pytest.raises(ChartMismatch):
                    bracket(x, y)


class TestSparsePairing:
    """A commutator visits only the term pairs that meet: a derivative
    of the left term on a variable (for d_s, the weight) of the right
    term, or a variable or weight of the left term under a derivative of
    the right one.  Each case is checked in both orders against the full
    products, which still visit every pair."""

    @staticmethod
    def check(a, b):
        for x, y in ((a, b), (b, a)):
            comm = x.commutator(y)
            assert comm == x * y - y * x
            assert bracket(prepare(x), prepare(y), COMMUTATOR) == comm

    def test_only_d_s_meets_the_weight(self):
        # d_s^2 u against c e^{-3s/2} v: no u- or v-derivative anywhere
        a = WeylOp.der(OSC, 0, power=2) * WeylOp.var(OSC, 0)
        b = (WeylOp.exp_s(OSC, HalfInt(-3), coef=CScalar.c())
             * WeylOp.var(OSC, 1))
        assert not a.commutator(b).is_zero()
        self.check(a, b)

    def test_weight_against_weight(self):
        # e^{s/2} d_s against e^{-s} d_s: each d_s meets the other weight
        a = WeylOp.exp_s(OSC, HalfInt(1)) * WeylOp.der(OSC, 0)
        b = WeylOp.exp_s(OSC, HalfInt(-2)) * WeylOp.der(OSC, 0, power=2)
        self.check(a, b)

    def test_meet_through_one_slot(self):
        # t^-2 x against y dx: only the variable x of the first meets a
        # derivative of the second, so one order contracts and the other
        # does not
        a = WeylOp.var(FREE, 0, power=-2) * WeylOp.var(FREE, 1)
        b = WeylOp.var(FREE, 2) * WeylOp.der(FREE, 1)
        assert not a.commutator(b).is_zero()
        self.check(a, b)

    def test_meet_in_both_orders(self):
        # x^2 dy against y^3 dx^2 t^-1: each derivative meets a variable
        # of the other operator
        a = WeylOp.var(FREE, 1, power=2) * WeylOp.der(FREE, 2)
        b = (WeylOp.var(FREE, 0, power=-1) * WeylOp.var(FREE, 2, power=3)
             * WeylOp.der(FREE, 1, power=2))
        assert (a * b - b * a).terms
        self.check(a, b)
        # e^{s/2} u d_s against e^{-s/2} u du: d_s meets the weight, du
        # meets u
        u, du = WeylOp.var(OSC, 0), WeylOp.der(OSC, 1)
        self.check(WeylOp.exp_s(OSC, HalfInt(1)) * u * WeylOp.der(OSC, 0),
                   WeylOp.exp_s(OSC, HalfInt(-1)) * u * du)

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_many_terms_that_meet_nothing(self, chart):
        # a lives on the first variable (and, in the osc chart, on
        # weights), b on the last variable and its derivative: no term
        # pair meets until a gets the derivative of b's variable
        rng = random.Random(71)
        osc = chart.kind == "osc"
        nv, nd = chart.nvars, chart.nders
        a = WeylOp(chart, {((i - 3) if osc else 0, (i,) + (0,) * (nv - 1),
                            (0,) * nd): random_cscalar(rng)
                           for i in range(-2, 6)})
        b = WeylOp(chart, {(0, (0,) * (nv - 1) + (i,), (0,) * (nd - 1) + (j,)):
                           random_cscalar(rng)
                           for i in range(1, 4) for j in range(3)})
        assert a.commutator(b).is_zero()
        self.check(a, b)
        a = a + WeylOp.der(chart, nd - 1)
        assert not a.commutator(b).is_zero()
        self.check(a, b)

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    def test_random_many_term_operands(self, chart):
        rng = random.Random(73)
        for _ in range(10):
            self.check(random_weylop(chart, rng, nterms=12, maxpow=1),
                       random_weylop(chart, rng, nterms=12, maxpow=1))


class TestExactCoefficients:
    """The kernels sum int numerators; every coefficient they return must
    still be a Fraction, or div_monomial's / would divide floats."""

    @pytest.mark.parametrize("chart", [FREE, OSC], ids=["free", "osc"])
    @pytest.mark.parametrize("integral", [True, False],
                             ids=["integers", "rationals"])
    def test_kernels_return_fractions(self, chart, integral):
        rng = random.Random(61)

        def coef():
            q = rng.choice([-2, -1, 1, 3]) if integral else (
                Fraction(rng.randint(1, 6), rng.randint(1, 5)))
            return CScalar.c_power(rng.randint(-1, 1), q)

        out = []
        for _ in range(20):
            a, b = (WeylOp(chart, {k: coef() for k in
                                   random_weylop(chart, rng).terms})
                    for _ in range(2))
            kappa = rng.choice([CScalar.zero(), coef()])
            f = GaussFunc(chart, kappa, {k: coef() for k in
                                         random_gaussfunc(chart, rng).terms})
            out += [a * b, a.commutator(b), a.anticommutator(b),
                    apply_op(a, f)]
        kinds = {type(q) for x in out for cs in x.terms.values()
                 for q in cs.terms.values()}
        assert kinds == {Fraction}


class TestApplyKernel:
    """apply_op's integer loop against hand-computed images."""

    ZERO = CScalar.zero()

    def test_terms_that_cancel_leave_no_key(self):
        # (u du - 2) u^2 = 2 u^2 - 2 u^2
        op = WeylOp.var(OSC, 0) * WeylOp.der(OSC, 1) - 2 * WeylOp.one(OSC)
        f = GaussFunc.monomial(OSC, self.ZERO, varpow=(2, 0))
        assert apply_op(op, f).terms == {}

    def test_c_powers_that_cancel_are_not_stored(self):
        # ((c + 1) - c u du) u = (c + 1) u - c u = u
        op = (WeylOp.const(OSC, CScalar({0: 1, 1: 1}))
              - CScalar.c() * WeylOp.var(OSC, 0) * WeylOp.der(OSC, 1))
        f = GaussFunc.monomial(OSC, self.ZERO, varpow=(1, 0))
        out = apply_op(op, f)
        assert out == f
        assert out.terms[(0, (1, 0))].terms == {0: Fraction(1)}

    def test_d_s_on_half_integer_mu(self):
        # ds^2 + 3 ds + u du on e^{mu s} u gives mu^2 + 3 mu + 1:
        # 11/4 at mu = 1/2 and -5/4 at mu = -3/2
        op = (WeylOp.der(OSC, 0, power=2) + 3 * WeylOp.der(OSC, 0)
              + WeylOp.var(OSC, 0) * WeylOp.der(OSC, 1))
        f = GaussFunc(OSC, self.ZERO, {(1, (1, 0)): Fraction(1, 3),
                                       (-3, (1, 0)): 2})
        want = GaussFunc(OSC, self.ZERO, {(1, (1, 0)): Fraction(11, 12),
                                          (-3, (1, 0)): Fraction(-5, 2)})
        assert apply_op(op, f) == want

    def test_derivative_of_a_negative_power(self):
        # (dt^2 + t dt + dx) t^-1 y = 2 t^-3 y - t^-1 y; dx meets x^0
        op = (WeylOp.der(FREE, 0, power=2)
              + WeylOp.var(FREE, 0) * WeylOp.der(FREE, 0)
              + WeylOp.der(FREE, 1))
        f = GaussFunc.monomial(FREE, self.ZERO, varpow=(-1, 0, 1))
        want = GaussFunc(FREE, self.ZERO, {(0, (-3, 0, 1)): 2,
                                           (0, (-1, 0, 1)): -1})
        assert apply_op(op, f) == want


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


class TestLinearCore:
    """The linear structure WeylOp, GaussFunc and AlgebraElement share."""

    ELEMENTS = {
        "WeylOp": WeylOp.one(FREE),
        "GaussFunc": GaussFunc.monomial(FREE, CScalar.zero()),
        "AlgebraElement": AlgebraElement.of(C_LABEL),
    }

    @pytest.mark.parametrize("a,b", permutations(ELEMENTS, 2))
    def test_classes_do_not_combine(self, a, b):
        x, y = self.ELEMENTS[a], self.ELEMENTS[b]
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y

    @pytest.mark.parametrize("name", ELEMENTS)
    def test_immutable(self, name):
        x = self.ELEMENTS[name]
        with pytest.raises(AttributeError):
            x.terms = {}
        with pytest.raises(AttributeError):
            x.anything = 1

    def test_algebra_terms_sort_by_label(self):
        elem = AlgebraElement.of(C_LABEL) + AlgebraElement.of(Z_PLUS)
        assert [lb for lb, _ in elem.sorted_terms()] == [Z_PLUS, C_LABEL]


class TestProportionality:
    """LinComb.proportionality: the r with x == r * y, or None."""

    def test_polynomial_ratio(self):
        # the ratio may be any Laurent polynomial, but it is read at y's
        # largest key, whose coefficient must be a single power of c
        c = CScalar.c()
        y = (WeylOp.var(FREE, 1, coef=c)
             + WeylOp.der(FREE, 0, coef=2 + CScalar.c_power(-1)))
        assert y.terms[max(y.terms)].is_monomial()
        assert y.scaled(1 + c).proportionality(y) == 1 + c
        z = (WeylOp.var(FREE, 1, coef=2 + CScalar.c_power(-1))
             + WeylOp.der(FREE, 0, coef=c))
        assert not z.terms[max(z.terms)].is_monomial()
        with pytest.raises(NotMonomial):
            z.scaled(1 + c).proportionality(z)

    def test_not_proportional(self):
        x, dt = WeylOp.var(FREE, 1), WeylOp.der(FREE, 0)
        assert (x + dt).proportionality(x - dt) is None
        assert WeylOp.one(FREE).proportionality(WeylOp.one(OSC)) is None

    def test_zero(self):
        a = WeylOp.var(FREE, 1)
        assert WeylOp.zero(FREE).proportionality(a) == 0
        assert a.proportionality(WeylOp.zero(FREE)) is None

    def test_gaussfunc_kappa(self):
        f = GaussFunc.monomial(FREE, CScalar.c(), coef=3)
        assert f.proportionality(GaussFunc.monomial(FREE, CScalar.c())) == 3
        assert f.proportionality(
            GaussFunc.monomial(FREE, CScalar.zero(), coef=3)) is None

    def test_algebra_element(self):
        elem = AlgebraElement.of(Z_PLUS) + AlgebraElement.of(C_LABEL, 5)
        inv2c = CScalar.c_power(-1, Fraction(1, 2))
        assert elem.scaled(inv2c).proportionality(elem) == inv2c


class TestSubstitution:
    def test_other_negative_powers_raise(self):
        sub = free_to_osc_substitution(HalfInt(3))
        with pytest.raises(ValueError):
            WeylOp.var(FREE, 0).power(-1)
        # a substitution maps polynomial operators only, t^-1 included
        for bad, name in ((WeylOp.var(FREE, 0, power=-1), "t"),
                          (WeylOp.var(FREE, 1, power=-1), "x"),
                          (WeylOp.der(FREE, 0, power=-1), "dt")):
            with pytest.raises(ValueError,
                               match=f"negative power of {name}:"):
                sub(bad)

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
        assert degree_of(mixed, z0) is None


class TestFuncspaceGuards:
    """GaussFunc and apply_op refuse operands of another chart or
    Gaussian weight."""

    KAPPA = CScalar.c_power(1, Fraction(1, 2))

    @pytest.mark.parametrize("other,message", [
        (GaussFunc.monomial(Chart("osc", HalfInt(5)), KAPPA),
         "charts differ"),
        (GaussFunc.monomial(OSC, CScalar.c_power(1, Fraction(1, 4))),
         "cannot combine GaussFuncs with different Gaussian weights"),
    ], ids=["chart", "kappa"])
    def test_sum(self, fresh_caches, other, message):
        f = GaussFunc.monomial(OSC, self.KAPPA)
        with pytest.raises(ChartMismatch) as exc:
            f + other
        assert str(exc.value) == message

    def test_apply_op(self, fresh_caches):
        f = GaussFunc.monomial(OSC, self.KAPPA)
        with pytest.raises(ChartMismatch) as exc:
            apply_op(WeylOp.der(FREE, 1), f)
        assert str(exc.value) == ("operator and function live in different "
                                  "charts")
