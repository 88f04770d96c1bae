"""End-to-end acceptance checks.  Each test covers one top-level claim,
is exact (tolerance zero), and prints one PASS line on success."""

import random
from fractions import Fraction

from conftest import multipliers, random_weylop
from cgaosc.enlarged import (check_jacobi, closure_tables, expected_dims,
                             free_enlarged)
from cgaosc.funcspace import apply_op
from cgaosc.onshell import (certify_onshell, omega0_free, omega1_free,
                            solve_omega1)
from cgaosc.realizations import (AlgebraElement, C_LABEL, SpanBasis, Z_MINUS,
                                 Z_PLUS, Z_ZERO, free_generators,
                                 osc_generators, w_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.spectrum import (Ladder, harmonic_reduction, hamiltonian,
                             hamiltonian_m_form_expected, ladder_state,
                             matrix_oracle, spectrum, to_m_form, vacuum,
                             vacuum_energy)
from cgaosc.transform import certify_transform, three_step_map
from cgaosc.weyl import Chart, WeylOp, free_to_osc_substitution

H = HalfInt
F = Fraction
ELLS = [H(1), H(3), H(5), H(7), H(9)]


def el(*pairs):
    out = AlgebraElement()
    for label, coef in pairs:
        c = coef if isinstance(coef, CScalar) else CScalar.from_rational(coef)
        out = out + AlgebraElement.of(label, c)
    return out


def test_criterion_1_structure_constants_threehalf():
    table = SpanBasis(free_generators(H(3))).table
    w = {t: w_label(H(t)) for t in (-3, -1, 1, 3)}
    expected = {
        (Z_PLUS, Z_MINUS): el((Z_ZERO, 2)),
        (Z_ZERO, Z_PLUS): el((Z_PLUS, 1)),
        (Z_ZERO, Z_MINUS): el((Z_MINUS, -1)),
        (Z_ZERO, w[3]): el((w[3], F(3, 2))),
        (Z_ZERO, w[-3]): el((w[-3], F(-3, 2))),
        (Z_ZERO, w[1]): el((w[1], F(1, 2))),
        (Z_ZERO, w[-1]): el((w[-1], F(-1, 2))),
        (Z_PLUS, w[1]): el((w[3], 1)),
        (Z_MINUS, w[-1]): el((w[-3], 1)),
        (Z_PLUS, w[-1]): el((w[1], 2)),
        (Z_MINUS, w[1]): el((w[-1], 2)),
        (Z_PLUS, w[-3]): el((w[-1], 3)),
        (Z_MINUS, w[3]): el((w[1], 3)),
        (w[1], w[-1]): el((C_LABEL, 1)),
        (w[3], w[-3]): el((C_LABEL, -3)),
    }
    for (a, b), want in expected.items():
        assert table.bracket(a, b) == want, (a, b)
    printed = {frozenset(k) for k in expected}
    for i, a in enumerate(table.labels):
        for b in table.labels[i + 1:]:
            if frozenset((a, b)) not in printed:
                assert table.bracket(a, b).is_zero(), (a, b)
    print("PASS criterion 1: ell=3/2 structure constants, including "
          "[w+3/2, w-3/2] = -3c, with all unprinted pairs zero")


def test_criterion_2_dimensions_closure_jacobi():
    for ell in ELLS:
        basis = free_enlarged(ell)
        lf = ell.as_fraction()
        want = (int(2 * lf ** 2 + 3 * lf + 5), int(2 * lf + 1),
                int(2 * lf ** 2 + 5 * lf + 6))
        assert expected_dims(ell) == want
        assert (len(basis.even), len(basis.odd),
                len(basis.realized)) == want
        plain, graded = closure_tables(basis)
        n_plain = check_jacobi(plain, graded=False)
        n_graded = check_jacobi(graded, graded=True)
        assert n_plain == n_graded == len(basis.labels) ** 3
    print("PASS criterion 2: dimension formulas, both closure suites and "
          "zero Jacobi failures for ell in {1/2..9/2}")


def test_criterion_3_onshell_degree1(omega1_abstract_threehalf,
                                     omega0_abstract_threehalf):
    for ell in ELLS:
        basis = free_enlarged(ell)
        chart = Chart("free", ell)
        om1 = omega1_free(ell)
        cert = certify_onshell(om1, basis.realized)
        mult = multipliers(cert)
        assert set(mult) == {Z_ZERO, Z_MINUS}
        assert mult[Z_ZERO] == WeylOp.one(chart)
        assert mult[Z_MINUS] == WeylOp.var(chart, 0,
                                           coef=CScalar.from_rational(2))
        solved, _elem = solve_omega1(ell)
        assert solved == om1
    basis = free_enlarged(H(3))
    chart = Chart("free", H(3))
    assert omega1_abstract_threehalf.realize(basis.realized, chart) \
        == omega1_free(H(3))
    assert omega0_abstract_threehalf.realize(basis.realized, chart) \
        == omega0_free(H(3))
    assert omega0_free(H(3)) == -(WeylOp.var(chart, 0) * omega1_free(H(3)))
    print("PASS criterion 3: degree-1 on-shell certificates "
          "{f^z-1 = 2t, f^z0 = 1, else zero}, unique solver recovery, "
          "and the ell=3/2 abstract combinations")


def test_criterion_4_transform_certification():
    tmap = three_step_map(H(3), "section5")
    free = free_generators(H(3))
    osc = osc_generators(H(3), "section5")
    assert len(free) == 8
    for lb in free:
        assert tmap(free[lb]) == osc[lb], lb
    assert SpanBasis(free).table == SpanBasis(osc).table
    for ell in [H(1), H(3), H(5), H(7)]:
        certify_transform(ell, "section7")
    print("PASS criterion 4: three-step transform reproduces all printed "
          "oscillator generators (section5 at 3/2; section7 at 1/2..7/2) "
          "with identical structure tables")


def test_criterion_5_hamiltonian_m_form_table():
    constants = {1: F(0), 3: F(3, 2), 5: F(4), 7: F(15, 2), 9: F(12)}
    for ell in ELLS:
        h = to_m_form(hamiltonian(ell, "section7"), ell)
        want = hamiltonian_m_form_expected(ell)
        assert h == want
        chart = h.chart
        zero_key = (0, (0,) * chart.nvars, (0,) * chart.nders)
        got = h.terms.get(zero_key, CScalar.zero())
        assert got == CScalar.from_rational(constants[ell.twice])
    print("PASS criterion 5: m-form Hamiltonians match all five printed "
          "rows term for term, constants 0, 3/2, 4, 15/2, 12")


def test_criterion_6_spectrum_two_ways():
    for ell in ELLS:
        recs = spectrum(ell, 6, "section7")
        evac = F((ell.twice + 1) ** 2, 8)
        for r in recs:
            want = sum(F(2 * a - 1) * na
                       for a, na in enumerate(r.n, 1)) + evac
            assert r.energy == want
        mo = matrix_oracle(ell, 6)
        assert sorted(mo.eigenvalues) == sorted(r.energy for r in recs)
        for j in range(len(mo.basis)):
            assert mo.entries[(j, j)].is_rational()
    print("PASS criterion 6: ladder energies match the closed formula and "
          "the triangular matrix oracle at degree 6 for all ell, with "
          "c-free diagonals")


def test_criterion_7_section6_fixture():
    chart = Chart("osc", H(3))
    kappa = CScalar.c_power(1, F(1, 2))
    one, c = CScalar.one(), CScalar.c()
    from cgaosc.funcspace import GaussFunc
    printed = {
        (0, 0): (F(1), {(2, (0, 0)): one}),
        (0, 1): (F(3, 2), {(3, (1, 0)): c}),
        (0, 2): (F(2), {(4, (0, 0)): c.scale(F(2)),
                        (4, (2, 0)): CScalar.c_power(2)}),
        (1, 0): (F(5, 2), {(5, (1, 0)): c.scale(F(3)),
                           (5, (0, 1)): c.scale(F(-3))}),
        (0, 3): (F(5, 2), {(5, (1, 0)): CScalar.c_power(2, F(6)),
                           (5, (3, 0)): CScalar.c_power(3)}),
        (1, 1): (F(3), {(6, (0, 0)): c.scale(F(3)),
                        (6, (2, 0)): CScalar.c_power(2, F(3)),
                        (6, (1, 1)): CScalar.c_power(2, F(-3))}),
        (0, 4): (F(3), {(6, (0, 0)): CScalar.c_power(2, F(12)),
                        (6, (2, 0)): CScalar.c_power(3, F(12)),
                        (6, (4, 0)): CScalar.c_power(4)}),
    }
    energies = []
    ladder = Ladder(H(3), "section6")
    for (m, k), (energy, terms) in printed.items():
        rec = ladder_state(ladder, (m, k))
        assert rec.energy == energy
        want = GaussFunc(chart, kappa, terms)
        state = ladder.state(rec.n)
        assert state.proportionality(want) is not None, (m, k)
        energies.append(energy)
    assert sorted(energies) == [F(1), F(3, 2), F(2), F(5, 2), F(5, 2),
                                F(3), F(3)]
    assert vacuum_energy(H(3), "section6") == 1
    v = vacuum(H(3), "section6")
    h = hamiltonian(H(3), "section6")
    assert apply_op(h, v) == v.scaled(CScalar.one())
    gens = osc_generators(H(3), "section5")
    prod = (gens[w_label(H(-1))] * gens[w_label(H(1))]
            - gens[w_label(H(-3))] * gens[w_label(H(3))])
    assert h == prod.scaled(CScalar.c_power(-1, F(1, 2))) \
        + WeylOp.one(chart)
    print("PASS criterion 7: all seven printed eigenstates up to scalar, "
          "energies {1, 3/2, 2, 5/2, 5/2, 3, 3}, E_vac = 1, degeneracy at "
          "5/2, and the ladder operator identity for H")


def test_criterion_8_harmonic_reduction():
    constants = {1: F(0), 3: F(3, 2), 5: F(4), 7: F(15, 2), 9: F(12)}
    for ell in ELLS:
        assert harmonic_reduction(ell)[0] == constants[ell.twice]
    print("PASS criterion 8: the Hamiltonian preserves functions of u1 "
          "alone and restricts to the oscillator plus the printed "
          "constant for all ell")


def test_criterion_9_engine_properties():
    free = Chart("free", H(3))
    osc = Chart("osc", H(3))
    rng = random.Random(2024)
    sub = free_to_osc_substitution(H(3))
    from cgaosc.funcspace import GaussFunc
    from conftest import random_cscalar

    def random_func(chart):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mu2 = rng.randint(-2, 2) if chart.kind == "osc" else 0
            vp = tuple(rng.randint(0, 2) for _ in range(chart.nvars))
            terms[(mu2, vp)] = random_cscalar(rng)
        return GaussFunc(chart, random_cscalar(rng), terms)

    for i in range(100):
        chart = free if i % 2 else osc
        a = random_weylop(chart, rng, nterms=2)
        b = random_weylop(chart, rng, nterms=2)
        d = random_weylop(chart, rng, nterms=2)
        assert (a * b) * d == a * (b * d)
    for i in range(100):
        chart = free if i % 2 else osc
        a = random_weylop(chart, rng, nterms=2)
        b = random_weylop(chart, rng, nterms=2)
        d = random_weylop(chart, rng, nterms=2)
        total = (a.commutator(b).commutator(d)
                 + b.commutator(d).commutator(a)
                 + d.commutator(a).commutator(b))
        assert total.is_zero()
    for _ in range(100):
        a = random_weylop(free, rng, nterms=2)
        b = random_weylop(free, rng, nterms=2)
        assert sub(a * b) == sub(a) * sub(b)
    for _ in range(100):
        a = random_weylop(osc, rng, nterms=2)
        b = random_weylop(osc, rng, nterms=2)
        f = random_func(osc)
        assert apply_op(a * b, f) == apply_op(a, apply_op(b, f))
    print("PASS criterion 9: associativity, operator Jacobi, substitution "
          "homomorphism and apply-compatibility on 100 seeded instances "
          "each, zero failures")
