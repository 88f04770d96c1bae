import random
from fractions import Fraction

import pytest

from conftest import random_cscalar
import cgaosc.transform
from cgaosc.errors import Mismatch, NormalizationUnavailable
from cgaosc.funcspace import GaussFunc, apply_op
from cgaosc.onshell import omega0_osc
from cgaosc.realizations import (AlgebraElement, StructureTable, Z_MINUS,
                                 Z_PLUS, Z_ZERO, free_generators,
                                 osc_generators)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.transform import TransformSpec, certify_transform, transform
from cgaosc.weyl import Chart, free_to_osc_substitution

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


class TestCertification:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_section7_all_ell(self, ell):
        rep = certify_transform(ell, "section7")
        assert len(rep.matched) == 2 * ((ell.twice + 1) // 2) + 4
        n = len(rep.matched)
        assert rep.homomorphism_pairs == n * (n - 1) // 2

    def test_section5_threehalf(self):
        certify_transform(H(3), "section5")

    def test_table_mismatch_names_the_entry(self, monkeypatch):
        # double [z+1, z-1] = 2 z0 on the oscillator side only
        extract = cgaosc.transform.extract_structure

        def corrupted(gens):
            table = extract(gens)
            if next(iter(gens.values())).chart.kind == "osc":
                entries = dict(table.entries)
                pair = (Z_PLUS, Z_MINUS)
                entries[pair] = entries[pair].scaled(CScalar.from_rational(2))
                table = StructureTable(table.labels, entries, table.kinds)
            return table

        monkeypatch.setattr(cgaosc.transform, "extract_structure", corrupted)
        with pytest.raises(Mismatch) as exc:
            certify_transform(H(3), "section7")
        assert exc.value.label.startswith("[z+1, z-1]")
        assert exc.value.residual == AlgebraElement.of(Z_ZERO, -2)

    def test_each_generator_maps_threehalf_section5(self):
        spec = TransformSpec(H(3), "section5")
        sub = free_to_osc_substitution(H(3))
        free = free_generators(H(3))
        osc = osc_generators(H(3), "section5")
        assert len(free) == 8
        for lb in free:
            assert transform(free[lb], spec, sub) == osc[lb], lb


class TestSpecParameters:
    def test_delta(self):
        assert TransformSpec(H(3), "section5").delta == 1
        assert TransformSpec(H(3), "section7").delta == 1
        assert TransformSpec(H(1)).delta == Fraction(1, 4)
        assert TransformSpec(H(5)).delta == Fraction(9, 4)

    def test_gauss_weight(self):
        assert TransformSpec(H(3), "section5").gauss_weight == -CScalar.c()
        assert TransformSpec(H(3)).gauss_weight \
            == CScalar.c().scale(Fraction(-1, 4))
        assert TransformSpec(H(1)).gauss_weight \
            == CScalar.c().scale(Fraction(-1, 2))

    def test_section5_restricted(self):
        with pytest.raises(NormalizationUnavailable):
            TransformSpec(H(5), "section5")
        with pytest.raises(ValueError):
            TransformSpec(H(3), "section4")


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
