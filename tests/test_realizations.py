from collections import Counter
from fractions import Fraction

import pytest

from cgaosc import realizations, weyl
from cgaosc.errors import BadEll, NotClosed
from cgaosc.onshell import omega0_free, omega0_osc, omega1_free, omega1_osc
from cgaosc.realizations import (AlgebraElement, C_LABEL, SpanBasis, Z_MINUS,
                                 Z_PLUS, Z_ZERO, _osc_generators,
                                 free_generators, free_span, label_str,
                                 osc_generators, w_indices, w_label,
                                 ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.spectrum import hamiltonian
from cgaosc.weyl import WeylOp, degree_of

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]


def elem(*pairs):
    out = AlgebraElement()
    for label, coef in pairs:
        c = coef if isinstance(coef, CScalar) else CScalar.from_rational(coef)
        out = out + AlgebraElement.of(label, c)
    return out


@pytest.fixture(scope="module", params=["free", "osc"])
def table(request):
    if request.param == "free":
        gens = free_generators(H(3))
    else:
        gens = osc_generators(H(3), "section7")
    return SpanBasis(gens).table


class TestThreeHalfTable:
    """The full printed bracket table of the eight-generator algebra at
    ell = 3/2, as a regression fixture."""

    def test_nonzero_entries(self, table):
        w = {t: w_label(H(t)) for t in (-3, -1, 1, 3)}
        expected = {
            (Z_PLUS, Z_MINUS): elem((Z_ZERO, 2)),
            (Z_ZERO, Z_PLUS): elem((Z_PLUS, 1)),
            (Z_ZERO, Z_MINUS): elem((Z_MINUS, -1)),
            (Z_ZERO, w[3]): elem((w[3], Fraction(3, 2))),
            (Z_ZERO, w[-3]): elem((w[-3], Fraction(-3, 2))),
            (Z_ZERO, w[1]): elem((w[1], Fraction(1, 2))),
            (Z_ZERO, w[-1]): elem((w[-1], Fraction(-1, 2))),
            (Z_PLUS, w[1]): elem((w[3], 1)),
            (Z_MINUS, w[-1]): elem((w[-3], 1)),
            (Z_PLUS, w[-1]): elem((w[1], 2)),
            (Z_MINUS, w[1]): elem((w[-1], 2)),
            (Z_PLUS, w[-3]): elem((w[-1], 3)),
            (Z_MINUS, w[3]): elem((w[1], 3)),
            (w[1], w[-1]): elem((C_LABEL, 1)),
            (w[3], w[-3]): elem((C_LABEL, -3)),
        }
        for (a, b), want in expected.items():
            assert table.bracket(a, b) == want, (a, b)
            assert table.bracket(b, a) == want.scaled(
                CScalar.from_rational(-1)), (b, a)

    def test_all_other_pairs_vanish(self, table):
        nonzero = {
            (Z_PLUS, Z_MINUS), (Z_ZERO, Z_PLUS), (Z_ZERO, Z_MINUS),
            (Z_ZERO, w_label(H(3))), (Z_ZERO, w_label(H(-3))),
            (Z_ZERO, w_label(H(1))), (Z_ZERO, w_label(H(-1))),
            (Z_PLUS, w_label(H(1))), (Z_MINUS, w_label(H(-1))),
            (Z_PLUS, w_label(H(-1))), (Z_MINUS, w_label(H(1))),
            (Z_PLUS, w_label(H(-3))), (Z_MINUS, w_label(H(3))),
            (w_label(H(1)), w_label(H(-1))),
            (w_label(H(3)), w_label(H(-3))),
        }
        labels = table.labels
        count = 0
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                if (a, b) not in nonzero and (b, a) not in nonzero:
                    assert table.bracket(a, b).is_zero(), (a, b)
                else:
                    count += 1
        assert count == 15


class TestClosureAllEll:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_both_charts_closed_and_isomorphic(self, ell):
        free = SpanBasis(free_generators(ell)).table
        osc = SpanBasis(osc_generators(ell, "section7")).table
        assert free == osc

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    @pytest.mark.parametrize("chart", ["free", "osc"])
    def test_gradings_and_center(self, ell, chart):
        if chart == "free":
            gens = free_generators(ell)
        else:
            gens = osc_generators(ell, "section7")
        z0 = gens[Z_ZERO]
        assert degree_of(gens[Z_PLUS], z0) == H(2)
        assert degree_of(gens[Z_MINUS], z0) == H(-2)
        assert degree_of(gens[C_LABEL], z0) == H(0)
        for j in w_indices(ell):
            assert degree_of(gens[w_label(j)], z0) == j
        c = gens[C_LABEL]
        for op in gens.values():
            assert c.commutator(op).is_zero()

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_heisenberg_pairs(self, ell):
        gens = free_generators(ell)
        basis = SpanBasis(gens)
        at_threehalf = {1: Fraction(1), 3: Fraction(-3)}
        for j in w_indices(ell):
            if j.twice <= 0:
                continue
            comm = gens[w_label(j)].commutator(gens[w_label(-j)])
            el = basis.expand(comm, 0)
            assert set(el.coeffs) == {C_LABEL}
            if ell == H(3):
                assert el.coeffs[C_LABEL] \
                    == CScalar.from_rational(at_threehalf[j.twice])


class TestPlainTable:
    def test_one_table_of_commutators(self, monkeypatch):
        # SpanBasis.table builds one StructureTable, from one commutator
        # per pair of labels and no anticommutator
        span = SpanBasis(free_generators(H(3)))
        built, kinds = [], Counter()
        structure_table, bracket = realizations.StructureTable, weyl.bracket

        def counted_table(*args):
            built.append(args)
            return structure_table(*args)

        def counted_bracket(a, b, kind):
            kinds[kind] += 1
            return bracket(a, b, kind)

        monkeypatch.setattr(realizations, "StructureTable", counted_table)
        monkeypatch.setattr(realizations, "bracket", counted_bracket)
        span.table
        n = len(span.gens)
        assert len(built) == 1
        assert kinds == {weyl.COMMUTATOR: n * (n - 1) // 2}


class TestErrorsAndLabels:
    def test_not_closed(self):
        gens = free_generators(H(1))
        del gens[w_label(H(-1))]
        with pytest.raises(NotClosed):
            SpanBasis(gens).table

    def test_bad_ell(self):
        with pytest.raises(BadEll):
            free_generators(H(4))
        with pytest.raises(BadEll):
            osc_generators(H(-1))

    def test_label_round_trip(self):
        labels = [Z_PLUS, Z_ZERO, Z_MINUS, C_LABEL, w_label(H(3)),
                  w_label(H(-1)), ww_label(H(3), H(-1)),
                  ww_label(H(-1), H(-3))]
        assert [label_str(lb) for lb in labels] == [
            "z+1", "z0", "z-1", "c", "w+3/2", "w-1/2", "w{3/2,-1/2}",
            "w{-1/2,-3/2}"]

    def test_different_ell_tables_differ(self):
        a = SpanBasis(free_generators(H(1))).table
        b = SpanBasis(free_generators(H(3))).table
        assert a != b
        assert a == SpanBasis(free_generators(H(1))).table


class TestPerProcessBuild:
    """Each cached build runs once per process for its arguments, and
    osc_generators hands each caller its own dict."""

    @pytest.mark.parametrize("build, cached, args", [
        (osc_generators, _osc_generators, (H(5), "section7")),
        (free_span, free_span, (H(5),)),
        (hamiltonian, hamiltonian, (H(3), "section6")),
        (omega0_osc, omega0_osc, (H(5), "section7")),
        (omega1_osc, omega1_osc, (H(5), "section7")),
        (omega0_free, omega0_free, (H(5),)),
        (omega1_free, omega1_free, (H(5),)),
    ], ids=["osc_generators", "free_span", "hamiltonian", "omega0_osc",
            "omega1_osc", "omega0_free", "omega1_free"])
    def test_second_call_reuses_the_build(self, monkeypatch, build, cached,
                                          args):
        # called as the package calls it; once built, no call forms a
        # product
        first = build(*args)

        def refuse(*_):
            raise AssertionError("rebuilt")
        monkeypatch.setattr(weyl, "bracket", refuse)
        with pytest.raises(AssertionError, match="rebuilt"):
            cached.__wrapped__(*args)
        second = build(*args)
        if build is osc_generators:
            assert second is not first and second.keys() == first.keys()
            assert all(second[lb] is first[lb] for lb in first)
        else:
            assert second is first

    def test_shared_free_generators_are_read_only(self):
        gens = free_span(H(3)).gens
        with pytest.raises(TypeError):
            gens[Z_PLUS] = gens[Z_ZERO]
        assert gens[Z_PLUS] == free_generators(H(3))[Z_PLUS]

    def test_edited_result_leaves_next_call_whole(self):
        first = osc_generators(H(3))
        whole = dict(first)
        del first[Z_PLUS]
        assert osc_generators(H(3)) == whole

    def test_default_and_explicit_share_one_build(self, monkeypatch):
        muls = []
        mul = WeylOp.__mul__

        def counted(a, b):
            muls.append(1)
            return mul(a, b)

        # 13/2 is built by no other test
        first = osc_generators(H(13))
        monkeypatch.setattr(WeylOp, "__mul__", counted)
        assert osc_generators(H(13), "section7") == first
        assert muls == []

    def test_refused_input_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="section6"):
                osc_generators(H(3), "section6")
