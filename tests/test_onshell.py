from fractions import Fraction

import pytest

from cgaosc.enlarged import build_enlarged, closure_tables, free_enlarged
from cgaosc.errors import NormalizationUnavailable
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.onshell import (certify_onshell, cross_relations,
                            offshell_centralizer, omega0_abstract_threehalf,
                            omega0_free, omega0_osc, omega1_abstract_threehalf,
                            omega1_free, omega1_osc, solve_omega1)
from cgaosc.realizations import (AlgebraElement, C_LABEL, Z_MINUS, Z_PLUS,
                                 Z_ZERO, osc_generators, w_label, ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import Chart, WeylOp

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]


def t_power(chart, k, coef=None):
    if k >= 0:
        return WeylOp.var(chart, 0, power=k, coef=coef)
    key = (0, (k,) + (0,) * (chart.nvars - 1), (0,) * chart.nders)
    return WeylOp(chart, {key: coef if coef is not None else CScalar.one()})


class TestPrintedOperators:
    def test_omega1_half(self):
        chart = Chart("free", H(1))
        want = WeylOp.der(chart, 0) + WeylOp.der(
            chart, 1, power=2, coef=CScalar.c_power(-1, Fraction(-1, 2)))
        assert omega1_free(H(1)) == want

    def test_omega1_threehalf(self):
        chart = Chart("free", H(3))
        want = (WeylOp.der(chart, 0)
                + WeylOp.var(chart, 1) * WeylOp.der(chart, 2)
                + WeylOp.der(chart, 1, power=2, coef=CScalar.c_power(-1, -1)))
        assert omega1_free(H(3)) == want

    def test_omega1_fivehalf(self):
        chart = Chart("free", H(5))
        want = (WeylOp.der(chart, 0)
                + 2 * (WeylOp.var(chart, 1) * WeylOp.der(chart, 2))
                + WeylOp.var(chart, 2) * WeylOp.der(chart, 3)
                + WeylOp.der(chart, 1, power=2,
                             coef=CScalar.c_power(-1, Fraction(-3, 2))))
        assert omega1_free(H(5)) == want

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_omega0_is_minus_t_omega1(self, ell):
        chart = Chart("free", ell)
        assert omega0_free(ell) \
            == -(WeylOp.var(chart, 0) * omega1_free(ell))

    def test_abstract_combinations_realize(self):
        basis = free_enlarged(H(3))
        chart = Chart("free", H(3))
        el1 = omega1_abstract_threehalf()
        el0 = omega0_abstract_threehalf()
        assert el1.realize(basis.realized, chart) == omega1_free(H(3))
        assert el0.realize(basis.realized, chart) == omega0_free(H(3))
        inv2c = CScalar.c_power(-1, Fraction(1, 2))
        assert el1 == (AlgebraElement.of(Z_PLUS)
                       + AlgebraElement.of(ww_label(H(3), H(-1)), inv2c)
                       - AlgebraElement.of(ww_label(H(1), H(1)), inv2c))


class TestSolver:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_recovers_printed_operator(self, ell):
        op, elem = solve_omega1(ell)
        assert op == omega1_free(ell)
        assert elem.coeffs[Z_PLUS] == CScalar.one()

    def test_abstract_solution_threehalf(self):
        _, elem = solve_omega1(H(3))
        assert elem == omega1_abstract_threehalf()

    def test_abstract_solution_half(self):
        _, elem = solve_omega1(H(1))
        want = AlgebraElement.of(Z_PLUS) + AlgebraElement.of(
            ww_label(H(1), H(1)), CScalar.c_power(-1, Fraction(-1, 4)))
        assert elem == want


class TestCertificates:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_free_degree1_multipliers(self, ell):
        basis = free_enlarged(ell)
        chart = Chart("free", ell)
        cert = certify_onshell(omega1_free(ell), basis.realized)
        mult = cert.multipliers()
        assert set(mult) == {Z_ZERO, Z_MINUS}
        assert mult[Z_ZERO] == WeylOp.one(chart)
        assert mult[Z_MINUS] == t_power(chart, 1,
                                        CScalar.from_rational(2))

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_free_degree0_multipliers(self, ell):
        basis = free_enlarged(ell)
        chart = Chart("free", ell)
        cert = certify_onshell(omega0_free(ell), basis.realized)
        mult = cert.multipliers()
        assert set(mult) == {Z_PLUS, Z_MINUS}
        assert mult[Z_PLUS] == t_power(chart, -1)
        assert mult[Z_MINUS] == t_power(chart, 1)

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_osc_multipliers(self, ell):
        gens = osc_generators(ell, "section7")
        basis = build_enlarged(gens, ell)
        chart = Chart("osc", ell)
        om0 = omega0_osc(ell)
        om1 = omega1_osc(ell)
        m0 = certify_onshell(om0, basis.realized).multipliers()
        assert set(m0) == {Z_PLUS, Z_MINUS}
        assert m0[Z_PLUS] == WeylOp.exp_s(chart, H(-2))
        assert m0[Z_MINUS] == WeylOp.exp_s(chart, H(2))
        m1 = certify_onshell(om1, basis.realized).multipliers()
        assert set(m1) == {Z_ZERO, Z_MINUS}
        assert m1[Z_ZERO] == WeylOp.one(chart)
        assert m1[Z_MINUS] == WeylOp.exp_s(chart, H(2),
                                           coef=CScalar.from_rational(2))

    def test_osc_section5_multipliers(self):
        gens = osc_generators(H(3), "section5")
        basis = build_enlarged(gens, H(3))
        om0 = omega0_osc(H(3), "section5")
        m0 = certify_onshell(om0, basis.realized).multipliers()
        assert set(m0) == {Z_PLUS, Z_MINUS}

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_cross_relations(self, ell):
        cross_relations(omega0_free(ell), omega1_free(ell))
        cross_relations(omega0_osc(ell), omega1_osc(ell))


class TestInvariantPDE:
    def test_polynomial_solutions_threehalf(self):
        # the PDE f_t + y1 f_{y2} - (1/c) f_{y1 y1} = 0 has polynomial
        # solutions; invariance means the operator annihilates them
        chart = Chart("free", H(3))
        om1 = omega1_free(H(3))
        one = CScalar.one()
        f1 = GaussFunc(chart, CScalar.zero(), {
            (0, (0, 0, 1)): one,
            (0, (1, 1, 0)): -one,
        })
        f2 = GaussFunc(chart, CScalar.zero(), {
            (0, (0, 2, 0)): one,
            (0, (1, 0, 0)): CScalar.c_power(-1, 2),
        })
        assert apply_op(om1, f1).is_zero()
        assert apply_op(om1, f2).is_zero()

    def test_nonsolution_detected(self):
        chart = Chart("free", H(3))
        f = GaussFunc(chart, CScalar.zero(), {(0, (0, 0, 1)): CScalar.one()})
        assert not apply_op(omega1_free(H(3)), f).is_zero()


class TestCentralizer:
    def test_free_threehalf(self):
        basis = free_enlarged(H(3))
        cen = offshell_centralizer(omega1_free(H(3)), basis.realized)
        assert len(cen) == 16
        assert Z_PLUS in cen and C_LABEL in cen
        assert Z_ZERO not in cen and Z_MINUS not in cen
        for j in (-3, -1, 1, 3):
            assert w_label(H(j)) in cen

    def test_osc_threehalf(self):
        gens = osc_generators(H(3), "section7")
        basis = build_enlarged(gens, H(3))
        cen = offshell_centralizer(omega0_osc(H(3)), basis.realized)
        assert len(cen) == 16
        assert Z_ZERO in cen and C_LABEL in cen
        assert Z_PLUS not in cen and Z_MINUS not in cen

    def test_centralizer_graded_closed(self):
        # the off-shell invariant set closes under the graded bracket
        basis = free_enlarged(H(3))
        _, graded = closure_tables(basis)
        cen = set(offshell_centralizer(omega1_free(H(3)), basis.realized))
        for a in cen:
            for b in cen:
                got = graded.bracket(a, b)
                assert set(got.coeffs) <= cen, (a, b)


class TestErrors:
    def test_section5_only_threehalf(self):
        with pytest.raises(NormalizationUnavailable):
            omega0_osc(H(1), "section5")

    def test_unknown_normalization(self):
        with pytest.raises(ValueError):
            omega0_osc(H(3), "section9")
