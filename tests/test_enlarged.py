import pytest

from cgaosc.enlarged import (build_enlarged, check_jacobi, closure_tables,
                             duality_report, expected_dims, free_enlarged,
                             is_odd_label, verify_ecga_closure,
                             verify_scga_graded)
from cgaosc.errors import BadEll, JacobiFailure
from cgaosc.realizations import (AlgebraElement, C_LABEL, SpanBasis,
                                 StructureTable, Z_PLUS, Z_ZERO,
                                 osc_generators, w_label, ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import degree_of

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]


class TestDimensions:
    @pytest.mark.parametrize("ell,dims", [
        (H(1), (7, 2, 9)),
        (H(3), (14, 4, 18)),
        (H(5), (25, 6, 31)),
        (H(7), (40, 8, 48)),
        (H(9), (59, 10, 69)),
    ], ids=lambda x: str(x))
    def test_formulas(self, ell, dims):
        assert expected_dims(ell) == dims
        basis = free_enlarged(ell)
        assert (len(basis.even), len(basis.odd),
                len(basis.even) + len(basis.odd)) == dims
        assert len(basis.realized) == dims[2]

    def test_integer_ell_rejected(self):
        with pytest.raises(BadEll):
            expected_dims(H(2))


class TestClosure:
    def test_specific_brackets_threehalf(self):
        basis = free_enlarged(H(3))
        table = verify_ecga_closure(basis)
        got = table.bracket(Z_PLUS, ww_label(H(1), H(1)))
        assert got == AlgebraElement.of(ww_label(H(3), H(1)),
                                        CScalar.from_rational(2))
        for lb in basis.labels:
            assert table.bracket(C_LABEL, lb).is_zero()
        # the Heisenberg relations force [w_{1/2,-1/2}, w_{1/2}] onto
        # w_{1/2} itself; pin the constant computed by the engine
        got = table.bracket(ww_label(H(1), H(-1)), w_label(H(1)))
        assert set(got.coeffs) == {w_label(H(1))}
        direct = basis.realized[ww_label(H(1), H(-1))].commutator(
            basis.realized[w_label(H(1))])
        assert direct == basis.realized[w_label(H(1))].scaled(
            got.coeffs[w_label(H(1))])

    def test_graded_vs_plain_differ_on_odd_pairs(self):
        basis = free_enlarged(H(3))
        plain, graded = closure_tables(basis)
        a, b = w_label(H(1)), w_label(H(-1))
        assert graded.bracket(a, b) == AlgebraElement.of(ww_label(H(1), H(-1)))
        assert plain.bracket(a, b) == AlgebraElement.of(C_LABEL)
        assert graded.bracket(a, a) == AlgebraElement.of(ww_label(H(1), H(1)))
        assert plain.bracket(a, a).is_zero()

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_both_structures_close(self, ell):
        basis = free_enlarged(ell)
        verify_ecga_closure(basis)
        verify_scga_graded(basis)

    def test_osc_chart_matches_free(self):
        free = free_enlarged(H(3))
        osc = build_enlarged(osc_generators(H(3), "section7"), H(3))
        assert closure_tables(free) == closure_tables(osc)


class TestJacobi:
    def test_exhaustive_threehalf(self):
        basis = free_enlarged(H(3))
        plain, graded = closure_tables(basis)
        n = len(basis.labels)
        assert check_jacobi(plain, graded=False) == n ** 3
        assert check_jacobi(graded, graded=True) == n ** 3

    @pytest.mark.parametrize("ell", [H(5), H(7), H(9)], ids=str)
    def test_sampled_higher_ell(self, ell):
        basis = free_enlarged(ell)
        plain, graded = closure_tables(basis)
        n = len(basis.labels)
        assert check_jacobi(plain, graded=False) == n ** 3
        assert check_jacobi(graded, graded=True) == n ** 3

    # one corrupted entry per table: a w/ww commutator in the plain table,
    # the odd-odd anticommutator {w_{1/2}, w_{-1/2}} in the graded one
    @pytest.mark.parametrize("ell", [H(3), H(5)], ids=str)
    @pytest.mark.parametrize("graded,pair", [
        (False, (w_label(H(1)), ww_label(H(1), H(-1)))),
        (True, (w_label(H(1)), w_label(H(-1)))),
    ], ids=["plain", "graded"])
    def test_corrupted_entry_fails(self, ell, graded, pair):
        table = closure_tables(free_enlarged(ell))[int(graded)]
        entries = dict(table.entries)
        entries[pair] = entries[pair].scaled(CScalar.from_rational(2))
        bad = StructureTable(table.labels, entries, table.kinds)
        with pytest.raises(JacobiFailure) as exc:
            check_jacobi(bad, graded=graded)
        assert set(pair) <= set(exc.value.triple)
        assert not exc.value.residual.is_zero()
        assert str(exc.value).startswith("graded" if graded else "plain")


class TestDuality:
    @pytest.mark.parametrize("ell,sp,osp", [
        (H(1), 3, 5), (H(3), 10, 14), (H(5), 21, 27),
    ], ids=lambda x: str(x))
    def test_sector_dimensions(self, ell, sp, osp):
        rep = duality_report(free_enlarged(ell))
        assert rep.sp_dim == sp
        assert rep.osp_dim == osp
        assert rep.sp_closed and rep.osp_closed
        js = rep.to_json()
        assert js["spClosed"] and js["ospClosed"]

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_grading_additivity(self, ell):
        basis = free_enlarged(ell)
        z0 = basis.realized[Z_ZERO]
        for lb in basis.even:
            if lb[0] == "ww":
                i, j = H(lb[1]), H(lb[2])
                assert degree_of(basis.realized[lb], z0) == i + j

    def test_parity_partition(self):
        basis = free_enlarged(H(3))
        assert all(is_odd_label(lb) for lb in basis.odd)
        assert not any(is_odd_label(lb) for lb in basis.even)
        assert all(lb[0] == "w" and len(lb) == 2 for lb in basis.odd)
