import random
from fractions import Fraction

import pytest

from conftest import random_cscalar
import cgaosc.enlarged
import cgaosc.transform
from cgaosc import cli
from cgaosc.enlarged import free_enlarged
from cgaosc.errors import Mismatch, NormalizationUnavailable
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.onshell import omega0_free, omega0_osc, omega1_free
from cgaosc.realizations import (AlgebraElement, C_LABEL, SpanBasis,
                                 StructureTable, Z_MINUS, Z_PLUS, Z_ZERO,
                                 delta, free_generators, free_span,
                                 osc_generators, w_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.transform import certify_transform, gauss_weight, three_step_map
from cgaosc.weyl import (Chart, Substitution, conjugate,
                         free_to_osc_substitution)

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]


def change_of_variables(f: GaussFunc, ell: HalfInt) -> GaussFunc:
    """t^k y^m -> exp((k + sum_a (a-1/2) m_a) s) u^m on plain polynomials."""
    assert f.chart.kind == "free" and f.kappa.is_zero()
    osc = Chart("osc", ell)
    terms = {}
    for (mu2, vp), cs in f.terms.items():
        assert mu2 == 0
        k, ms = vp[0], vp[1:]
        w2 = 2 * k + sum((2 * a - 1) * m for a, m in enumerate(ms, 1))
        key = (w2, ms)
        terms[key] = terms.get(key, CScalar.zero()) + cs
    return GaussFunc(osc, CScalar.zero(), terms)


def corrupt_osc_table(monkeypatch, pair, entry):
    """Make certify_transform read the oscillator table entry(table) at
    pair, leaving the free table as it is."""
    def corrupted(gens):
        span = SpanBasis(gens)
        if next(iter(gens.values())).chart.kind == "osc":
            table = span.table
            entries = dict(table.entries)
            entries[pair] = entry(table)
            span.table = StructureTable(table.labels, entries, table.odd)
        return span

    monkeypatch.setattr(cgaosc.transform, "SpanBasis", corrupted)


class TestCertification:
    @pytest.mark.parametrize("ell,norm", [
        *(pytest.param(ell, "section7", id=str(ell)) for ell in ELLS),
        pytest.param(H(3), "section5", id="3/2-section5")])
    def test_section7_all_ell(self, ell, norm):
        matched, pairs = certify_transform(ell, norm)
        assert matched == sorted(free_generators(ell))
        n = len(matched)
        assert n == 2 * ((ell.twice + 1) // 2) + 4
        assert pairs == n * (n - 1) // 2

    def test_section5_threehalf(self):
        certify_transform(H(3), "section5")

    @pytest.mark.parametrize("ell,norm", [
        (H(1), "section7"), (H(3), "section7"), (H(5), "section7"),
        (H(3), "section5")], ids=str)
    def test_maps_each_operator_once(self, monkeypatch, ell, norm):
        # each generator, then Omega0 and Omega1: 2l+7 operators, and no
        # image of a commutator
        mapped = []
        call = Substitution.__call__

        def counted(self, a):
            mapped.append(a)
            return call(self, a)

        monkeypatch.setattr(Substitution, "__call__", counted)
        certify_transform(ell, norm)
        assert mapped == [*free_generators(ell).values(), omega0_free(ell),
                          omega1_free(ell)]
        assert len(mapped) == ell.twice + 7

    def test_table_mismatch_names_the_entry(self, monkeypatch):
        # double [z+1, z-1] = 2 z0 on the oscillator side only
        corrupt_osc_table(monkeypatch, (Z_PLUS, Z_MINUS), lambda table:
                          table.entries[(Z_PLUS, Z_MINUS)]
                          .scaled(CScalar.from_rational(2)))
        with pytest.raises(Mismatch) as exc:
            certify_transform(H(3), "section7")
        assert exc.value.label.startswith("[z+1, z-1]")
        assert exc.value.residual == AlgebraElement.of(Z_ZERO, -2)
        assert str(exc.value).endswith("; residual (1 term): (-2)*z0")

    def test_zero_pair_mismatch_names_the_entry(self, monkeypatch):
        # [w+3/2, w+1/2] = 0 on the free side; give it c on the osc side
        pair = (w_label(H(3)), w_label(H(1)))
        corrupt_osc_table(monkeypatch, pair,
                          lambda table: AlgebraElement.of(C_LABEL, 1))
        with pytest.raises(Mismatch) as exc:
            certify_transform(H(3), "section7")
        assert exc.value.label == "[w+3/2, w+1/2] in the structure tables"
        assert exc.value.residual == AlgebraElement.of(C_LABEL, -1)

    def test_each_generator_maps_threehalf_section5(self):
        free = free_generators(H(3))
        osc = osc_generators(H(3), "section5")
        assert len(free) == 8
        for lb in free:
            assert three_step_map(H(3), "section5")(free[lb]) == osc[lb], lb


class TestSharedFreeTable:
    """One free-chart CGA table per ell serves the closure suite and
    certify_transform."""

    def test_verify_all_brackets_the_free_generators_once(self, monkeypatch,
                                                          capsys):
        charts = []
        table = vars(SpanBasis)["table"]
        build = table.func

        def counted(span):
            charts.append(span.chart.kind)
            return build(span)

        monkeypatch.setattr(table, "func", counted)
        free_span.cache_clear()
        free_enlarged.cache_clear()
        assert cli.main(["verify", "all", "--ell", "3/2"]) == 0
        capsys.readouterr()
        assert sorted(charts) == ["free", "osc"]

    def test_verify_transform_builds_no_enlarged_basis(self, monkeypatch,
                                                       capsys):
        def refuse(*_):
            raise AssertionError("Leibniz tables built")
        monkeypatch.setattr(cgaosc.enlarged, "_leibniz_tables", refuse)
        before = free_enlarged.cache_info()
        assert cli.main(["verify", "transform", "--ell", "5/2"]) == 0
        capsys.readouterr()
        assert free_enlarged.cache_info() == before


class TestComposedMap:
    """The one composed Substitution against the three passes it
    replaces: the change of variables, then the s-shift, then the
    Gaussian conjugation, each over the whole operator."""

    @pytest.mark.parametrize("ell,norm", [
        (H(1), "section7"), (H(3), "section7"), (H(5), "section7"),
        (H(7), "section7"), (H(3), "section5")], ids=str)
    def test_equals_three_passes(self, ell, norm):
        sub = free_to_osc_substitution(ell)
        tmap = three_step_map(ell, norm)

        def three_passes(g):
            out = conjugate(sub(g), ("sshift", -delta(ell)))
            return conjugate(out, ("gauss", gauss_weight(ell, norm)))

        gens = list(free_generators(ell).values())
        ops = gens + [omega1_free(ell), omega0_free(ell)]
        ops += [a.commutator(b) for i, a in enumerate(gens)
                for b in gens[i + 1:]]
        for g in ops:
            assert tmap(g) == three_passes(g)
        assert all(three_step_map(ell, norm)(g) == tmap(g) for g in gens)


class TestFaultInjection:
    """A wrong step parameter fails the certificate at the first
    generator, z+1, whose image carries both delta and the weight."""

    @pytest.mark.parametrize("name,wrong", [
        ("delta", lambda ell: delta(ell) + 1),
        ("gauss_weight", lambda ell, norm: gauss_weight(ell, norm).scale(2)),
    ], ids=["delta-off-by-one", "gauss-weight-doubled"])
    @pytest.mark.parametrize("ell,norm", [
        (H(1), "section7"), (H(5), "section7"), (H(3), "section5")],
        ids=str)
    def test_wrong_step_names_first_generator(self, monkeypatch, name,
                                              wrong, ell, norm):
        monkeypatch.setattr(cgaosc.transform, name, wrong)
        with pytest.raises(Mismatch) as exc:
            certify_transform(ell, norm)
        assert exc.value.label == "z+1"
        assert not exc.value.residual.is_zero()


class TestSpecParameters:
    def test_delta(self):
        assert delta(H(3)) == 1
        assert delta(H(1)) == Fraction(1, 4)
        assert delta(H(5)) == Fraction(9, 4)

    def test_gauss_weight(self):
        assert gauss_weight(H(3), "section5") == -CScalar.c()
        assert gauss_weight(H(3), "section7") \
            == CScalar.c().scale(Fraction(-1, 4))
        assert gauss_weight(H(1), "section7") \
            == CScalar.c().scale(Fraction(-1, 2))

    def test_section5_restricted(self):
        with pytest.raises(NormalizationUnavailable):
            three_step_map(H(5), "section5")
        with pytest.raises(ValueError):
            three_step_map(H(3), "section4")


class TestOscInvariantShape:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_no_u1_scaling_term(self, ell):
        # the first oscillator coordinate appears in Omega0 only through
        # the quadratic potential, never as u_1 d_{u_1}
        om0 = omega0_osc(ell, "section7")
        nv, nd = om0.chart.nvars, om0.chart.nders
        bad = (0, (1,) + (0,) * (nv - 1), (0, 1) + (0,) * (nd - 2))
        assert bad not in om0.terms

    def test_no_explicit_s_weight(self):
        for ell in ELLS:
            om0 = omega0_osc(ell, "section7")
            assert all(e == 0 for (e, v, d) in om0.terms)


class TestChangeOfVariablesConsistency:
    """The substitution step agrees with the underlying change of
    variables on test functions: sub(g) applied to the transformed
    function equals the transform of g applied to the original."""

    @pytest.mark.parametrize("ell", [H(1), H(3), H(5)], ids=str)
    def test_function_level(self, ell):
        rng = random.Random(51)
        free = Chart("free", ell)
        sub = free_to_osc_substitution(ell)
        gens = free_generators(ell)
        ops = list(gens.values())
        for _ in range(20):
            g = rng.choice(ops)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                vp = tuple(rng.randint(0, 2) for _ in range(free.nvars))
                terms[(0, vp)] = random_cscalar(rng)
            f = GaussFunc(free, CScalar.zero(), terms)
            lhs = apply_op(sub(g), change_of_variables(f, ell))
            rhs = change_of_variables(apply_op(g, f), ell)
            assert lhs == rhs
