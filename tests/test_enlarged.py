import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from conftest import realized_tables
import cgaosc.enlarged
import cgaosc.realizations
import cgaosc.weyl
from cgaosc import cli
from cgaosc.enlarged import (_leibniz_tables, build_enlarged, check_jacobi,
                             closure_tables, duality_report, expected_dims,
                             free_enlarged)
from cgaosc.errors import (BadEll, BadTableEntry, GradingViolation,
                           JacobiFailure, LinearlyDependent, NotClosed)
from cgaosc.linsolve import SpanSolver
from cgaosc.realizations import (AlgebraElement, C_LABEL, SpanBasis,
                                 StructureTable, Z_MINUS, Z_PLUS, Z_ZERO,
                                 free_generators, free_span, label_sort_key,
                                 label_str, osc_generators, w_label,
                                 ww_label)
from cgaosc.scalars import CScalar, HalfInt, LinComb
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
        table, _ = closure_tables(basis)
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
        closure_tables(basis)

    def test_osc_chart_matches_free(self):
        free = free_enlarged(H(3))
        osc = build_enlarged(SpanBasis(osc_generators(H(3), "section7")))
        assert closure_tables(free) == closure_tables(osc)

    def test_tables_are_built_once_per_basis(self):
        basis = build_enlarged(SpanBasis(osc_generators(H(1), "section7")))
        assert "tables" not in vars(basis)
        tables = closure_tables(basis)
        assert basis.tables is tables
        assert closure_tables(basis) is tables
        # the cached tables take no part in comparing bases
        fresh = build_enlarged(SpanBasis(osc_generators(H(1), "section7")))
        assert fresh == basis

    def test_not_closed_names_the_pair(self):
        # without w{1/2,-1/2} the anticommutator {w_{1/2}, w_{-1/2}} leaves
        # the span; z+-1 go too, so that no earlier pair fails first
        realized = dict(free_enlarged(H(1)).realized)
        for lb in (Z_PLUS, Z_MINUS, ww_label(H(1), H(-1))):
            del realized[lb]
        odd = frozenset({w_label(H(1)), w_label(H(-1))})
        with pytest.raises(NotClosed) as exc:
            realized_tables(realized, odd)
        assert exc.value.pair == (w_label(H(1)), w_label(H(-1)))
        assert not exc.value.residual.is_zero()


class TestDerivedFacts:
    """An enlarged basis derives its ranks and its tables itself, each
    on first use."""

    def test_dims_need_no_table(self, fresh_caches, monkeypatch):
        def refuse(*_):
            raise AssertionError("Leibniz tables built")
        monkeypatch.setattr(cgaosc.enlarged, "_leibniz_tables", refuse)
        assert free_enlarged(H(3)).dims == expected_dims(H(3))[:2]

    def test_closure_tables_are_the_basis_tables(self):
        basis = build_enlarged(free_span(H(1)))
        tables = basis.tables
        assert closure_tables(basis) is tables


class TestLeibnizDerivation:
    """closure_tables derives the enlarged tables from the CGA table; the
    brackets of the realized enlarged operators are the oracle."""

    @pytest.mark.parametrize("chart,ell", [
        ("free", H(1)), ("free", H(3)), ("free", H(5)), ("free", H(7)),
        ("section5", H(3)), ("section7", H(5)),
    ], ids=str)
    def test_matches_the_realized_route(self, chart, ell):
        gens = (free_generators(ell) if chart == "free"
                else osc_generators(ell, chart))
        basis = build_enlarged(SpanBasis(gens))
        assert closure_tables(basis) == realized_tables(
            basis.realized, frozenset(basis.odd))
        assert basis.dims == expected_dims(ell)[:2]

    def test_brackets_only_cga_pairs(self, monkeypatch):
        basis = build_enlarged(SpanBasis(free_generators(H(5))))
        cga = [op for lb, op in basis.realized.items() if lb[0] != "ww"]
        counts = Counter()
        for module in (cgaosc.weyl, cgaosc.realizations):
            def counted(a, b, kind, _fn=module.bracket):
                counts["cga" if any(a.op is op for op in cga)
                       and any(b.op is op for op in cga) else "other"] += 1
                return _fn(a, b, kind)
            monkeypatch.setattr(module, "bracket", counted)
        closure_tables(basis)
        # one commutator per pair of CGA labels, none on a w{i,j}; the
        # [z0, g] that gives each label its degree ran with the span
        n = len(cga)
        assert counts == {"cga": n * (n - 1) // 2}

    @pytest.mark.parametrize("chart,ell", [
        ("free", H(3)), ("free", H(7)), ("section7", H(5)),
    ], ids=str)
    def test_derives_without_scalar_arithmetic(self, monkeypatch, chart,
                                               ell):
        # the sums run on int numerators (over 6 at ell=7/2): once the
        # CGA table and the oracle exist, no CScalar or LinComb sum,
        # product or negation runs
        gens = (free_generators(ell) if chart == "free"
                else osc_generators(ell, chart))
        basis = build_enlarged(SpanBasis(gens))
        basis.span.table  # built before the patches below
        oracle = realized_tables(basis.realized, frozenset(basis.odd))

        def refused(*args):
            raise AssertionError("scalar arithmetic in the derivation")

        for cls, names in ((CScalar, ("__mul__", "__rmul__", "__add__",
                                      "__radd__", "scale")),
                           (LinComb, ("__add__", "__neg__"))):
            for name in names:
                monkeypatch.setattr(cls, name, refused)
        assert _leibniz_tables(basis) == oracle

    def test_doubled_cga_entry_fails_verify_closure(self, monkeypatch,
                                                    capsys):
        # the CGA entry [z-1, w_j] comes out doubled from the solver; the
        # residual check of the CGA table refuses it
        gens = free_generators(H(3))
        target = gens[Z_MINUS].commutator(gens[w_label(H(1))])
        assert not target.is_zero()
        solve = SpanSolver.solve

        def doubled(self, b):
            xs = solve(self, b)
            return [x.scale(2) for x in xs] if b == target.terms else xs

        monkeypatch.setattr(SpanSolver, "solve", doubled)
        basis = build_enlarged(SpanBasis(gens))
        monkeypatch.setattr(cli, "free_enlarged", lambda ell: basis)
        assert cli.main(["verify", "closure", "--ell", "3/2"]) == 1
        out = capsys.readouterr().out
        assert '"error": "NotClosed"' in out
        assert f"{(Z_MINUS, w_label(H(1)))}" in out

    @staticmethod
    def _outside_span_w(monkeypatch, coef):
        # a z0 term in [w_k, w_i] keeps the pair's parity, so only the
        # span{w} + Q(c)c check sees it
        pair = (w_label(H(3)), w_label(H(-3)))
        span = SpanBasis(free_generators(H(3)))
        entries = dict(span.table.entries)
        entries[pair] = entries[pair] + AlgebraElement.of(Z_ZERO, coef)
        monkeypatch.setattr(span, "table",
                            StructureTable(span.table.labels, entries))
        basis = build_enlarged(span)
        with pytest.raises(GradingViolation) as exc:
            closure_tables(basis)
        return str(exc.value)

    def test_cga_entry_outside_span_w_refused(self, monkeypatch):
        assert self._outside_span_w(monkeypatch, 1) == (
            "bracket (w+3/2, w-3/2) is outside span{w} + Q(c)c: "
            "(1)*z0 + (-3)*c")

    def test_fractional_entry_outside_span_w_shown_exactly(self,
                                                          monkeypatch):
        # the rows' one denominator becomes 12; the message still shows
        # the entry's own coefficients
        coef = CScalar({0: Fraction(1, 4), 1: Fraction(-5, 3)})
        assert self._outside_span_w(monkeypatch, coef) == (
            "bracket (w+3/2, w-3/2) is outside span{w} + Q(c)c: "
            "(1/4 + -5/3*c)*z0 + (-3)*c")

    def test_dependent_realized_set_refused(self, monkeypatch, capsys):
        basis = build_enlarged(SpanBasis(free_generators(H(5))))
        realized = basis.realized
        realized[ww_label(H(5), H(-5))] = (realized[ww_label(H(1), H(-1))]
                                           + realized[ww_label(H(3), H(-3))])
        with pytest.raises(LinearlyDependent) as exc:
            closure_tables(basis)
        assert str(exc.value) == (
            "the realized operators of degree 0 have rank 4: z0, c, "
            "w{5/2,-5/2}, w{3/2,-3/2}, w{1/2,-1/2}")
        monkeypatch.setattr(cli, "free_enlarged", lambda ell: basis)
        assert cli.main(["verify", "closure", "--ell", "5/2"]) == 1
        assert '"error": "LinearlyDependent"' in capsys.readouterr().out


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
        bad = StructureTable(table.labels, entries, table.odd)
        with pytest.raises(JacobiFailure) as exc:
            check_jacobi(bad, graded=graded)
        assert set(pair) <= set(exc.value.triple)
        assert not exc.value.residual.is_zero()
        assert str(exc.value).startswith("graded" if graded else "plain")


def _random_coef(rng):
    """A small rational, or half the time a Laurent polynomial in c with
    two terms, such as c^-1 + 2c, so that the sums must keep c-powers
    apart."""
    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if rng.random() < 0.5:
        return CScalar.from_rational(q())
    return CScalar({k: q() for k in rng.sample(range(-2, 3), 2)})


def _random_table(rng, labels, graded):
    """A random table over labels that is graded-antisymmetric (through
    StructureTable.bracket) and keeps parity, with small rational and
    Laurent entries: a bracket in general, not a Lie (super)algebra."""
    odd = {x for x in labels if graded and x[0] == "w"}
    entries = {}
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if a == b and a not in odd:
                continue
            sector = [x for x in labels
                      if (x in odd) == ((a in odd) != (b in odd))]
            terms = {x: _random_coef(rng)
                     for x in sector if rng.random() < 0.5}
            elem = AlgebraElement(terms)
            if elem.terms:
                entries[(a, b)] = elem
    return StructureTable(labels, entries, odd)


def _residual(table, a, b, d):
    """[[a,b},d} - [a,[b,d}} + (-1)^{|a||b|} [b,[a,d}} with
    AlgebraElement arithmetic on StructureTable.bracket, independent of
    check_jacobi's numerator sums."""
    def br(x, y):
        if isinstance(x, AlgebraElement):
            return sum((table.bracket(e, y).scaled(k)
                        for e, k in x.terms.items()), AlgebraElement())
        return sum((table.bracket(x, e).scaled(k)
                    for e, k in y.terms.items()), AlgebraElement())

    sign = -1 if a in table.odd and b in table.odd else 1
    return (br(table.bracket(a, b), d) - br(a, table.bracket(b, d))
            + br(b, table.bracket(a, d)).scaled(sign))


class TestJacobiReduction:
    """check_jacobi checks the sorted triples a <= b <= d only."""

    LABELS = sorted([Z_PLUS, Z_ZERO, C_LABEL, w_label(H(1)),
                     w_label(H(-1))], key=label_sort_key)

    @pytest.mark.parametrize("graded", [False, True],
                             ids=["plain", "graded"])
    def test_permuted_triples_agree_up_to_sign(self, graded):
        rng = random.Random(71)
        order = {x: i for i, x in enumerate(self.LABELS)}
        for _ in range(12):
            table = _random_table(rng, self.LABELS, graded)
            for triple in product(self.LABELS, repeat=3):
                got = _residual(table, *triple)
                ref = _residual(table, *sorted(triple, key=order.get))
                assert got in (ref, -ref), triple

    # with the odd labels first, the first sorted triples repeat a label
    @pytest.mark.parametrize("labels", [LABELS, [
        w_label(H(1)), w_label(H(-1)), C_LABEL, ww_label(H(1), H(1)),
        ww_label(H(1), H(-1))]], ids=["z-first", "w-first"])
    def test_failure_names_the_first_failing_sorted_triple(self, labels):
        # the check visits a <= b <= d in label order and stops at the
        # first nonzero residual, which it reports exactly
        rng = random.Random(73)
        for graded in (False, True) * 6:
            table = _random_table(rng, labels, graded)
            failing = [t for t in combinations_with_replacement(labels, 3)
                       if not _residual(table, *t).is_zero()]
            if not failing:
                assert check_jacobi(table, graded=graded) == len(labels) ** 3
                continue
            with pytest.raises(JacobiFailure) as exc:
                check_jacobi(table, graded=graded)
            assert exc.value.triple == failing[0]
            assert exc.value.residual == _residual(table, *failing[0])

    def test_residual_that_vanishes_at_c_one_fails(self):
        # [z+1, z0] = c z+1, [z+1, z-1] = z0, [z0, z-1] = z-1 is a Lie
        # bracket only at c = 1: the residual (c - 1) z0 keeps c-powers
        table = StructureTable([Z_PLUS, Z_ZERO, Z_MINUS], {
            (Z_PLUS, Z_ZERO): AlgebraElement({Z_PLUS: CScalar.c()}),
            (Z_PLUS, Z_MINUS): AlgebraElement.of(Z_ZERO),
            (Z_ZERO, Z_MINUS): AlgebraElement.of(Z_MINUS)})
        with pytest.raises(JacobiFailure) as exc:
            check_jacobi(table, graded=False)
        assert exc.value.triple == (Z_PLUS, Z_ZERO, Z_MINUS)
        assert exc.value.residual == _residual(table, *exc.value.triple)
        assert exc.value.residual.terms[Z_ZERO] == CScalar({0: -1, 1: 1})

    @staticmethod
    def _sweep(ell, scale):
        """Scale each entry of both tables at ell in turn; every such
        table must fail, with the oracle's residual.  Returns the count."""
        swept = 0
        for graded, table in enumerate(closure_tables(free_enlarged(ell))):
            for pair, elem in table.entries.items():
                entries = dict(table.entries)
                entries[pair] = elem.scaled(CScalar.from_rational(scale))
                bad = StructureTable(table.labels, entries, table.odd)
                with pytest.raises(JacobiFailure) as exc:
                    check_jacobi(bad, graded=bool(graded))
                assert exc.value.residual == _residual(bad,
                                                       *exc.value.triple)
                swept += 1
        return swept

    def test_every_doubled_entry_fails_threehalf(self):
        assert self._sweep(H(3), 2) == 178

    def test_every_negated_entry_fails_fivehalf(self):
        assert self._sweep(H(5), -1) == 448

    @pytest.mark.parametrize("graded,pair", [
        (False, (w_label(H(1)), ww_label(H(1), H(-1)))),
        (True, (w_label(H(1)), w_label(H(-1)))),
    ], ids=["plain", "graded"])
    def test_residual_is_exact(self, graded, pair):
        # scaling by 3/2 gives the table a denominator, so the residual's
        # numerators are divided by its square
        table = closure_tables(free_enlarged(H(3)))[int(graded)]
        entries = dict(table.entries)
        entries[pair] = entries[pair].scaled(CScalar.from_rational(
            Fraction(3, 2)))
        bad = StructureTable(table.labels, entries, table.odd)
        with pytest.raises(JacobiFailure) as exc:
            check_jacobi(bad, graded=graded)
        want = _residual(bad, *exc.value.triple)
        assert exc.value.residual == want
        assert not want.is_zero()


class TestJacobiGuards:
    """The triple reduction needs parity-preserving, antisymmetric
    tables; StructureTable refuses any other, and check_jacobi a graded
    flag that disagrees with the table."""

    def test_entry_leaving_its_sector(self):
        table = closure_tables(free_enlarged(H(3)))[1]
        pair = (Z_PLUS, Z_MINUS)
        entries = dict(table.entries)
        entries[pair] = entries[pair] + AlgebraElement.of(w_label(H(1)))
        with pytest.raises(GradingViolation) as exc:
            StructureTable(table.labels, entries, table.odd)
        assert str(pair) in str(exc.value)

    # a kind is derived from the table's odd labels, never given: the
    # pair carries the other kind, its kinds are read-only, and the
    # parity that would give the pair this kind is refused
    @pytest.mark.parametrize("graded,pair,kind", [
        (True, (w_label(H(1)), w_label(H(-1))), "commutator"),
        (True, (Z_PLUS, Z_MINUS), "anticommutator"),
        (False, (w_label(H(1)), w_label(H(-1))), "anticommutator"),
    ], ids=["odd-odd-commutator", "even-anticommutator",
            "plain-anticommutator"])
    def test_kind_that_breaks_antisymmetry(self, graded, pair, kind):
        table = closure_tables(free_enlarged(H(3)))[int(graded)]
        assert table.kinds[pair] != kind
        with pytest.raises(TypeError):
            table.kinds[pair] = kind
        if kind == "anticommutator":
            odd = table.odd | set(pair)
        else:
            odd = table.odd - {pair[1]}
        with pytest.raises(GradingViolation):
            check_jacobi(StructureTable(table.labels, table.entries, odd),
                         graded=graded)

    def test_graded_flag_must_match_the_table(self):
        plain, graded = closure_tables(free_enlarged(H(3)))
        for table, flag in ((plain, True), (graded, False)):
            with pytest.raises(GradingViolation) as exc:
                check_jacobi(table, graded=flag)
            assert f"graded={flag}" in str(exc.value)

    def test_diagonal_commutator_entry(self):
        table = closure_tables(free_enlarged(H(3)))[0]
        entries = dict(table.entries)
        entries[(Z_PLUS, Z_PLUS)] = AlgebraElement.of(Z_PLUS)
        with pytest.raises(GradingViolation):
            StructureTable(table.labels, entries, table.odd)


class TestStructureTable:
    def test_entries_are_read_only(self):
        table = closure_tables(free_enlarged(H(1)))[1]
        with pytest.raises(TypeError):
            table.entries[(Z_PLUS, Z_MINUS)] = AlgebraElement()
        # a table does not share the dict it was built from
        entries = dict(table.entries)
        copy = StructureTable(table.labels, entries, table.odd)
        entries[(Z_PLUS, Z_MINUS)] = AlgebraElement.of(Z_ZERO, 5)
        assert copy == table

    def test_symmetry_follows_parity(self):
        plain, graded = closure_tables(free_enlarged(H(3)))
        w, v = w_label(H(1)), w_label(H(-1))
        assert graded.bracket(v, w) == graded.bracket(w, v)
        assert plain.bracket(v, w) == -plain.bracket(w, v)
        assert graded.bracket(Z_MINUS, Z_PLUS) == -graded.bracket(Z_PLUS,
                                                                  Z_MINUS)
        # the pairs that are not both odd share the plain entry
        assert all(graded.entries[pair] is plain.entries[pair]
                   for pair in graded.entries
                   if not set(pair) <= graded.odd)


    def test_entry_out_of_label_order_refused(self):
        # (z-1, z+1) is keyed against label order, so bracket() would
        # never read it
        labels = [Z_PLUS, Z_ZERO, Z_MINUS]
        with pytest.raises(BadTableEntry, match=r"out of label order") as info:
            StructureTable(labels, {(Z_MINUS, Z_PLUS): AlgebraElement.of(
                Z_ZERO, 7)})
        assert str((Z_MINUS, Z_PLUS)) in str(info.value)
        table = StructureTable(labels, {(Z_PLUS, Z_MINUS): AlgebraElement.of(
            Z_ZERO, 7)})
        assert table.bracket(Z_MINUS, Z_PLUS) == AlgebraElement.of(Z_ZERO, -7)

    @pytest.mark.parametrize("pair,elem", [
        ((Z_PLUS, Z_MINUS), AlgebraElement.of(ww_label(H(1), H(1)))),
        ((Z_PLUS, C_LABEL), AlgebraElement()),
        ((w_label(H(1)), Z_MINUS), AlgebraElement()),
    ], ids=["expansion", "pair", "pair-first"])
    def test_label_outside_the_table_refused(self, pair, elem):
        with pytest.raises(BadTableEntry, match=r"outside the table") as info:
            StructureTable([Z_PLUS, Z_ZERO, Z_MINUS], {pair: elem})
        assert str(pair) in str(info.value)

    def test_odd_label_outside_the_table_refused(self):
        # check_jacobi once certified this table as graded although no
        # label of it is odd
        stray = w_label(H(1))
        with pytest.raises(BadTableEntry, match=r"odd labels outside") as info:
            StructureTable([Z_PLUS, Z_ZERO, Z_MINUS],
                           {(Z_PLUS, Z_MINUS): AlgebraElement.of(Z_ZERO, 2)},
                           odd={stray})
        assert str(stray) in str(info.value)


class TestDuality:
    @pytest.mark.parametrize("ell,sp,osp", [
        (H(1), 3, 5), (H(3), 10, 14), (H(5), 21, 27),
    ], ids=lambda x: str(x))
    def test_sector_dimensions(self, capsys, ell, sp, osp):
        assert duality_report(free_enlarged(ell)) == (sp, osp)
        assert cli.main(["verify", "duality", "--ell", str(ell)]) == 0
        js = json.loads(capsys.readouterr().out)["suites"]["duality"]
        assert (js["spDim"], js["ospDim"]) == (sp, osp)
        assert js["spClosed"] and js["ospClosed"]

    # a z0 term added to one entry takes the pair's bracket out of its
    # sector, which fails the suite
    @pytest.mark.parametrize("table,pair,sector", [
        (0, (ww_label(H(3), H(3)), ww_label(H(3), H(-3))), "sp"),
        (1, (w_label(H(3)), w_label(H(-3))), "osp"),
    ], ids=["plain-ww-ww", "graded-w-w"])
    def test_open_sector_raises(self, monkeypatch, capsys, table, pair,
                                sector):
        derive = cgaosc.enlarged._leibniz_tables

        def corrupted(basis):
            tables = list(derive(basis))
            entries = dict(tables[table].entries)
            entries[pair] = entries[pair] + AlgebraElement.of(Z_ZERO)
            tables[table] = StructureTable(basis.labels, entries,
                                           tables[table].odd)
            return tuple(tables)

        monkeypatch.setattr(cgaosc.enlarged, "_leibniz_tables", corrupted)
        basis = build_enlarged(free_span(H(3)))
        with pytest.raises(GradingViolation) as exc:
            duality_report(basis)
        msg = str(exc.value)
        assert f"({label_str(pair[0])}, {label_str(pair[1])})" in msg
        assert f"{sector} sector: (1)*z0" in msg
        monkeypatch.setattr(cli, "free_enlarged", lambda ell: basis)
        assert cli.main(["verify", "duality", "--ell", "3/2"]) == 1
        assert '"error": "GradingViolation"' in capsys.readouterr().out

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
        assert all(lb[0] == "w" and len(lb) == 2 for lb in basis.odd)
        assert not any(lb[0] == "w" for lb in basis.even)
        plain, graded = closure_tables(basis)
        assert graded.odd == set(basis.odd) and not plain.odd
