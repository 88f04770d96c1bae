import json
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import multipliers
import cgaosc.onshell
from cgaosc import cli
from cgaosc.enlarged import build_enlarged, closure_tables, free_enlarged
from cgaosc.errors import (Mismatch, NonUniqueSolution, NoSolution,
                           NormalizationUnavailable, NotProportional)
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.onshell import (OnShellCertificate, _multiplier_candidate,
                            certify_onshell, cross_relations, omega0_free,
                            omega0_osc, omega1_free, omega1_osc,
                            solve_omega1)
from cgaosc.realizations import (AlgebraElement, C_LABEL, Z_MINUS, Z_PLUS,
                                 Z_ZERO, free_generators, label_sort_key,
                                 label_str, osc_generators, w_label, ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import Chart, WeylOp, degree_of

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]


def all_labels_certificate(omega, gens):
    """The oracle: [g, omega] as an operator bracket for every label of
    the realized enlarged basis over gens, in label order."""
    realized = build_enlarged(gens, omega.chart.ell).realized
    z0 = realized[Z_ZERO]
    d_omega = degree_of(omega, z0)
    table = {}
    for lb in sorted(realized, key=label_sort_key):
        comm = realized[lb].commutator(omega)
        if comm.is_zero():
            table[lb] = None
            continue
        f = _multiplier_candidate(comm, omega, d_omega, z0)
        if f is None:
            raise NotProportional(label_str(lb), comm)
        table[lb] = f
    return OnShellCertificate(table=table)


def outcome(certify, omega, gens):
    """The certificate's table, or the failing label and residual."""
    try:
        return certify(omega, gens).table
    except NotProportional as exc:
        return exc.label, exc.residual


def centralizer(cert):
    """The labels whose entry is strict zero, in label order."""
    return [lb for lb, f in cert.table.items() if f is None]


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

    def test_abstract_combinations_realize(self, omega1_abstract_threehalf,
                                           omega0_abstract_threehalf):
        basis = free_enlarged(H(3))
        chart = Chart("free", H(3))
        el1 = omega1_abstract_threehalf
        el0 = omega0_abstract_threehalf
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

    def test_abstract_solution_threehalf(self, omega1_abstract_threehalf):
        _, elem = solve_omega1(H(3))
        assert elem == omega1_abstract_threehalf

    def test_reads_the_cached_enlarged_basis(self, monkeypatch):
        free_enlarged(H(5))
        calls = []
        anti = WeylOp.anticommutator

        def counted(a, b):
            calls.append(1)
            return anti(a, b)

        monkeypatch.setattr(WeylOp, "anticommutator", counted)
        op, _ = solve_omega1(H(5))
        assert op == omega1_free(H(5))
        assert calls == []

    def test_abstract_solution_half(self):
        _, elem = solve_omega1(H(1))
        want = AlgebraElement.of(Z_PLUS) + AlgebraElement.of(
            ww_label(H(1), H(1)), CScalar.c_power(-1, Fraction(-1, 4)))
        assert elem == want


class TestCertificates:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_free_degree1_multipliers(self, ell):
        chart = Chart("free", ell)
        cert = certify_onshell(omega1_free(ell), free_generators(ell))
        mult = multipliers(cert)
        assert set(mult) == {Z_ZERO, Z_MINUS}
        assert mult[Z_ZERO] == WeylOp.one(chart)
        assert mult[Z_MINUS] == t_power(chart, 1,
                                        CScalar.from_rational(2))

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_free_degree0_multipliers(self, ell):
        chart = Chart("free", ell)
        cert = certify_onshell(omega0_free(ell), free_generators(ell))
        mult = multipliers(cert)
        assert set(mult) == {Z_PLUS, Z_MINUS}
        assert mult[Z_PLUS] == t_power(chart, -1)
        assert mult[Z_MINUS] == t_power(chart, 1)

    @pytest.mark.parametrize("ell", ELLS[:3], ids=str)
    def test_negative_power_multiplier_is_an_operator(self, ell):
        omega = omega0_free(ell)
        gens = free_generators(ell)
        f = multipliers(certify_onshell(omega, gens))[Z_PLUS]
        assert f * omega == gens[Z_PLUS].commutator(omega)

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_osc_multipliers(self, ell):
        gens = osc_generators(ell, "section7")
        chart = Chart("osc", ell)
        om0 = omega0_osc(ell)
        om1 = omega1_osc(ell)
        m0 = multipliers(certify_onshell(om0, gens))
        assert set(m0) == {Z_PLUS, Z_MINUS}
        assert m0[Z_PLUS] == WeylOp.exp_s(chart, H(-2))
        assert m0[Z_MINUS] == WeylOp.exp_s(chart, H(2))
        m1 = multipliers(certify_onshell(om1, gens))
        assert set(m1) == {Z_ZERO, Z_MINUS}
        assert m1[Z_ZERO] == WeylOp.one(chart)
        assert m1[Z_MINUS] == WeylOp.exp_s(chart, H(2),
                                           coef=CScalar.from_rational(2))

    def test_osc_section5_multipliers(self):
        gens = osc_generators(H(3), "section5")
        om0 = omega0_osc(H(3), "section5")
        m0 = multipliers(certify_onshell(om0, gens))
        assert set(m0) == {Z_PLUS, Z_MINUS}

    def test_failure_shows_the_residual(self):
        # z+1 is no invariant: its bracket with z-1 is not a multiple of it
        gens = free_generators(H(3))
        with pytest.raises(NotProportional) as exc:
            certify_onshell(gens[Z_PLUS], gens)
        resid = exc.value.residual
        assert exc.value.label == "z-1"
        assert resid == gens[Z_MINUS].commutator(gens[Z_PLUS])
        assert str(exc.value).endswith(
            f"residual ({len(resid.terms)} terms, first 3): "
            f"{resid.head(3)!r}")

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


class TestDerivedCertificates:
    """certify_onshell brackets only the CGA generators and derives the
    w{i,j} entries; the all-labels operator route is the oracle."""

    @pytest.mark.parametrize("chart,ell", [
        *(("free", ell) for ell in ELLS[:4]),
        *(("section7", ell) for ell in ELLS[:4]),
        ("section5", H(3)),
    ], ids=str)
    def test_matches_the_all_labels_route(self, chart, ell):
        if chart == "free":
            gens = free_generators(ell)
            omegas = omega1_free(ell), omega0_free(ell)
        else:
            gens = osc_generators(ell, chart)
            omegas = omega1_osc(ell, chart), omega0_osc(ell, chart)
        for omega in omegas:
            cert = certify_onshell(omega, gens)
            assert cert == all_labels_certificate(omega, gens)
            assert list(cert.table) == sorted(cert.table,
                                              key=label_sort_key)

    @pytest.mark.parametrize("chart,omega", [
        ("free", "omega1_free"), ("osc", "omega0_osc")])
    @pytest.mark.parametrize("ell", [H(3), H(5)], ids=str)
    def test_altered_operator_fails_as_the_oracle(self, monkeypatch, capsys,
                                                  chart, omega, ell):
        # double one coefficient; verify onshell must exit and report
        # as it does with the all-labels route
        op = getattr(cli, omega)(ell)
        key = max(op.terms)
        altered = WeylOp(op.chart, {**op.terms, key: op.terms[key].scale(2)})
        monkeypatch.setattr(cli, omega, lambda *args: altered)
        argv = ["verify", "onshell", "--ell", str(ell), "--chart", chart]
        reports = []
        for certify in (certify_onshell, all_labels_certificate):
            monkeypatch.setattr(cli, "certify_onshell", certify)
            reports.append((cli.main(argv), capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0][0] == 1
        assert '"error": "NotProportional"' in reports[0][1]

    def test_nonzero_w_entry_falls_back(self, monkeypatch):
        # with z0 in the place of w+1/2, [w+1/2, Omega1] = Omega1 is
        # not zero, so every w{+1/2,j} entry is an operator bracket;
        # the first, w{1/2,1/2}, is no multiple of Omega1
        gens = free_generators(H(1))
        gens[w_label(H(1))] = gens[Z_ZERO]
        omega = omega1_free(H(1))
        want = outcome(all_labels_certificate, omega, gens)
        calls = []
        anti = WeylOp.anticommutator

        def counted(a, b):
            calls.append(1)
            return anti(a, b)

        monkeypatch.setattr(WeylOp, "anticommutator", counted)
        assert outcome(certify_onshell, omega, gens) == want
        assert want[0] == "w{1/2,1/2}" and calls == [1]

    def test_osc_path_forms_no_anticommutator(self, monkeypatch):
        # every w entry is strict zero, so no w{i,j} is realized
        def refuse(*_):
            raise AssertionError("anticommutator formed")
        monkeypatch.setattr(WeylOp, "anticommutator", refuse)
        assert cli.main(["verify", "onshell", "--ell", "5/2",
                         "--chart", "osc"]) == 0


class TestCentralizer:
    def test_free_threehalf(self):
        cen = centralizer(certify_onshell(omega1_free(H(3)),
                                          free_generators(H(3))))
        assert len(cen) == 16
        assert Z_PLUS in cen and C_LABEL in cen
        assert Z_ZERO not in cen and Z_MINUS not in cen
        for j in (-3, -1, 1, 3):
            assert w_label(H(j)) in cen

    def test_osc_threehalf(self):
        cen = centralizer(certify_onshell(omega0_osc(H(3)),
                                          osc_generators(H(3), "section7")))
        assert len(cen) == 16
        assert Z_ZERO in cen and C_LABEL in cen
        assert Z_PLUS not in cen and Z_MINUS not in cen

    @pytest.mark.parametrize("chart,ell", [
        ("free", H(3)), ("free", H(7)), ("osc", H(3)), ("osc", H(7)),
    ], ids=str)
    def test_verify_onshell_reads_the_certificate(self, capsys, chart, ell):
        # centralizerDegree1 comes from the certificate's zero entries
        # and names the labels that commute with Omega1 strictly
        if chart == "free":
            gens, om1 = free_generators(ell), omega1_free(ell)
        else:
            gens, om1 = osc_generators(ell), omega1_osc(ell)
        assert cli.main(["verify", "onshell", "--ell", str(ell),
                         "--chart", chart]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["onshell"]["centralizerDegree1"] == [
            label_str(lb)
            for lb in centralizer(all_labels_certificate(om1, gens))]

    def test_centralizer_graded_closed(self):
        # the off-shell invariant set closes under the graded bracket
        _, graded = closure_tables(free_enlarged(H(3)))
        cen = set(centralizer(certify_onshell(omega1_free(H(3)),
                                              free_generators(H(3)))))
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


class TestFailurePaths:
    """The raising checks of cross_relations and solve_omega1, reached by
    corrupting one input."""

    @pytest.mark.parametrize("case", ["free", "osc-bracket", "osc-shift"])
    def test_cross_relations(self, fresh_caches, case):
        if case == "free":
            om0, om1 = omega0_free(H(3)), omega1_free(H(3))
            om1 = om1 + WeylOp.one(om1.chart)
            label, want = ("[Omega1, Omega0] + Omega1",
                           WeylOp.one(om1.chart))
        elif case == "osc-bracket":
            om0, om1 = omega0_osc(H(3)), omega1_osc(H(3))
            om1 = om1 + WeylOp.one(om1.chart)
            label, want = ("[Omega0, Omega1] - Omega1",
                           WeylOp.const(om1.chart, -1))
        else:
            # Omega0 + 1 keeps the bracket but not Omega1 = -e^{-s} Omega0
            om0, om1 = omega0_osc(H(3)), omega1_osc(H(3))
            om0 = om0 + WeylOp.one(om0.chart)
            label, want = ("Omega1 + e^{-s} Omega0",
                           WeylOp.exp_s(om0.chart, H(-2)))
        with pytest.raises(Mismatch) as exc:
            cross_relations(om0, om1)
        assert exc.value.label == label
        assert exc.value.residual == want

    @pytest.mark.parametrize("case,error,message", [
        ("z+ plus dy1", NoSolution,
         "no invariant operator in the degree-1 sector"),
        ("doubled candidate", NonUniqueSolution,
         "solution space dimension 2 before normalization"),
        ("z+ plus y1", NoSolution, "solver residual nonzero: "),
    ])
    def test_solve_omega1(self, fresh_caches, monkeypatch, case, error,
                          message):
        basis = free_enlarged(H(3))
        chart = basis.realized[Z_PLUS].chart
        if case == "doubled candidate":
            bad = replace(basis, even=basis.even + [ww_label(H(3), H(-1))])
        else:
            extra = (WeylOp.der(chart, 1) if case == "z+ plus dy1"
                     else WeylOp.var(chart, 1))
            bad = replace(basis, realized={
                **basis.realized, Z_PLUS: basis.realized[Z_PLUS] + extra})
        monkeypatch.setattr(cgaosc.onshell, "free_enlarged",
                            lambda ell: bad)
        with pytest.raises(error) as exc:
            solve_omega1(H(3))
        assert type(exc.value) is error
        assert str(exc.value).startswith(message)
