import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgaosc.errors import BadEll, NotMonomial, ZeroDivisor
from cgaosc.scalars import CScalar, HalfInt, check_half_odd

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def cscalars(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    out = CScalar.zero()
    for _ in range(n):
        out = out + CScalar.c_power(draw(st.integers(-3, 3)),
                                    draw(fractions))
    return out


# single nonzero powers of c: CScalar.__mul__ takes its monomial fast path
# on two of these, and the general loop on everything else
monomials = st.builds(CScalar.c_power, st.integers(-3, 3),
                      fractions.filter(bool))
scalars = st.one_of(monomials, cscalars())


class TestHalfInt:
    def test_arithmetic_matches_fractions(self):
        rng = random.Random(7)
        for _ in range(300):
            a = HalfInt(rng.randint(-100, 100))
            b = HalfInt(rng.randint(-100, 100))
            assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
            assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
            assert (-a).as_fraction() == -a.as_fraction()
            assert (a < b) == (a.as_fraction() < b.as_fraction())

    def test_integrality(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt.from_fraction(Fraction(3, 2)).twice == 3

    def test_from_fraction_rejects_quarters(self):
        with pytest.raises(Exception):
            HalfInt.from_fraction(Fraction(1, 4))

    def test_check_half_odd(self):
        check_half_odd(HalfInt(3))
        with pytest.raises(BadEll):
            check_half_odd(HalfInt(4))
        with pytest.raises(BadEll):
            check_half_odd(HalfInt(-1))


class TestExactInputs:
    # a coefficient is an int or a Fraction; HalfInt arithmetic is
    # between HalfInts
    @pytest.mark.parametrize("make", [
        lambda: CScalar.from_rational(0.1),
        lambda: CScalar({0: 0.1}),
        lambda: CScalar.c_power(1, 0.25),
        lambda: CScalar.c().scale(0.5),
        lambda: CScalar.c() * 0.5,
        lambda: CScalar.c().subs_c_scale(2.0),
        lambda: CScalar.from_rational(True),
        lambda: HalfInt(True),
        lambda: HalfInt(3) + 1,
        lambda: 1 - HalfInt(3),
        lambda: HalfInt(3) < 2,
    ], ids=["from_rational-float", "init-float", "c_power-float",
            "scale-float", "mul-float", "subs_c_scale-float",
            "from_rational-bool", "halfint-bool", "halfint-plus-int",
            "int-minus-halfint", "halfint-lt-int"])
    def test_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_halfint_equals_only_halfints(self):
        assert HalfInt(2) != 1
        assert HalfInt(3) != Fraction(3, 2)
        assert HalfInt(3) == HalfInt.from_fraction(Fraction(3, 2))

    def test_every_coefficient_is_a_fraction(self):
        for s in (CScalar.c().scale(3), CScalar.c() * 2,
                  CScalar.from_rational(5), CScalar.c_power(-1, 7),
                  CScalar.c().subs_c_scale(-4)):
            assert all(type(q) is Fraction for q in s.terms.values()), s


class TestCScalarRing:
    @settings(max_examples=200, deadline=None)
    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, a, b, d):
        assert a + b == b + a
        assert (a + b) + d == a + (b + d)
        assert a * b == b * a
        assert (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d
        assert a + CScalar.zero() == a
        assert a * CScalar.one() == a
        assert a - a == CScalar.zero()

    @settings(max_examples=200, deadline=None)
    @given(scalars, scalars)
    def test_try_div_roundtrip(self, a, b):
        p = a * b
        if not b.is_zero():
            q = p.try_div(b)
            assert q is not None and q == a

    @settings(max_examples=100, deadline=None)
    @given(cscalars(), st.integers(-3, 3), fractions)
    def test_div_monomial(self, a, k, q):
        if q == 0:
            return
        m = CScalar.c_power(k, q)
        assert a.div_monomial(m) * m == a


class TestCScalarBasics:
    def test_constants(self):
        assert CScalar.from_rational(Fraction(2, 3)).as_rational() \
            == Fraction(2, 3)
        assert CScalar.c() == CScalar.c_power(1)
        assert (CScalar.c() * CScalar.c_power(-1)) == CScalar.one()

    @pytest.mark.parametrize("q", [0, 1, Fraction(1, 2), -3])
    def test_rational_hashes_as_its_value(self, q):
        cs = CScalar.from_rational(q)
        assert cs == q and hash(cs) == hash(q)
        assert {q: "x"}.get(cs) == "x"
        assert len({cs, q}) == 1

    def test_div_monomial_rejects_polynomials(self):
        poly = CScalar.one() + CScalar.c()
        with pytest.raises(NotMonomial):
            CScalar.c().div_monomial(poly)
        with pytest.raises(ZeroDivisor):
            CScalar.c().div_monomial(CScalar.zero())

    def test_try_div_detects_non_laurent(self):
        num = CScalar.one()
        den = CScalar.one() + CScalar.c()
        assert num.try_div(den) is None

    def test_subs_c_scale(self):
        # c -> -4m turns 1/(2c) into -1/(8m) and c into -4m
        a = CScalar.c_power(-1, Fraction(1, 2)) + CScalar.c()
        b = a.subs_c_scale(Fraction(-4))
        assert b == CScalar.c_power(-1, Fraction(-1, 8)) \
            + CScalar.c_power(1, Fraction(-4))

    def test_scale_by_one_is_identity(self):
        a = CScalar.c_power(-2, 3) + CScalar.c_power(1, 5)
        assert a.scale(1) is a
        assert a.scale(Fraction(1)) is a

    def test_scale_and_min_power(self):
        a = CScalar.c_power(-2, 3) + CScalar.c_power(1, 5)
        assert a.scale(Fraction(0)) == CScalar.zero()
        assert a.scale(Fraction(1, 3)) \
            == CScalar.c_power(-2) + CScalar.c_power(1, Fraction(5, 3))
