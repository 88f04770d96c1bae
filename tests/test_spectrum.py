import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import cgaosc.funcspace
import cgaosc.spectrum
from cgaosc.errors import (BadEll, DiagonalDependsOnC, Inconsistent,
                           Mismatch, NormalizationUnavailable, NotTriangular)
from cgaosc.funcspace import GaussFunc, apply_op, prepare
from cgaosc.realizations import (Z_ZERO, convention, osc_generators,
                                 positive_w_indices, w_label)
from cgaosc.scalars import CScalar, HalfInt, from_raw
from cgaosc.spectrum import (ExactMatrix, Ladder, _lowering_order,
                             _multi_indices, harmonic_reduction, hamiltonian,
                             hamiltonian_m_form_expected,
                             ladder_energy, ladder_relations, ladder_state,
                             matrix_oracle, spectrum, to_m_form, vacuum,
                             vacuum_energy)
from cgaosc.weyl import Chart, WeylOp

H = HalfInt
ELLS = [H(1), H(3), H(5), H(7), H(9)]
F = Fraction


class TestHamiltonianMForm:
    @pytest.mark.parametrize("ell,const", [
        (H(1), F(0)), (H(3), F(3, 2)), (H(5), F(4)),
        (H(7), F(15, 2)), (H(9), F(12)),
    ], ids=lambda x: str(x))
    def test_printed_rows(self, ell, const):
        h = to_m_form(hamiltonian(ell, "section7"), ell)
        assert h == hamiltonian_m_form_expected(ell)
        chart = h.chart
        zero_key = (0, (0,) * chart.nvars, (0,) * chart.nders)
        got = h.terms.get(zero_key, CScalar.zero())
        assert got == CScalar.from_rational(const)

    def test_half_is_harmonic_oscillator(self):
        # at the lowest ell the m-form is exactly the harmonic oscillator
        chart = Chart("osc", H(1))
        want = (WeylOp.der(chart, 1, power=2,
                           coef=CScalar.c_power(-1, F(-1, 2)))
                + WeylOp.var(chart, 0, power=2,
                             coef=CScalar.c_power(1, F(1, 2))))
        assert to_m_form(hamiltonian(H(1)), H(1)) == want


class TestVacuum:
    @pytest.mark.parametrize("ell,evac", [
        (H(1), F(1, 2)), (H(3), F(2)), (H(5), F(9, 2)),
        (H(7), F(8)), (H(9), F(25, 2)),
    ], ids=lambda x: str(x))
    def test_energy(self, ell, evac):
        assert vacuum_energy(ell, "section7") == evac
        v = vacuum(ell, "section7")
        h = hamiltonian(ell, "section7")
        assert apply_op(h, v) == v.scaled(CScalar.from_rational(evac))

    def test_section6_vacuum(self):
        v = vacuum(H(3), "section6")
        chart = Chart("osc", H(3))
        want = GaussFunc.monomial(chart, CScalar.c_power(1, F(1, 2)), mu2=2)
        assert v == want
        assert vacuum_energy(H(3), "section6") == 1


def _refusals():
    entry_points = {
        "hamiltonian": hamiltonian,
        "vacuum": vacuum,
        "vacuum_energy": vacuum_energy,
        "ladder_energy": lambda ell, name: ladder_energy(ell, name, (0, 0)),
        "Ladder": Ladder,
        "ladder_relations": ladder_relations,
        "spectrum": lambda ell, name: spectrum(ell, 1, name),
    }
    bad = [(H(5), "section6", NormalizationUnavailable),
           (H(3), "section5", ValueError),
           (H(3), "bogus", ValueError),
           (H(4), "section7", BadEll)]
    for entry, call in entry_points.items():
        for ell, name, error in bad:
            yield pytest.param(call, ell, name, error,
                               id=f"{entry}-{name}@{ell}")
    # one lowering operator too many: the multi-index does not fit
    yield pytest.param(
        lambda ell, name: ladder_energy(ell, name, (1, 0, 0)),
        H(3), "section7", ValueError, id="ladder_energy-long-index")


class TestConventionGuard:
    # vacuum_energy and ladder_energy once returned a value for every
    # input here, e.g. vacuum_energy(5/2, "section6") = 1 and
    # ladder_energy(3/2, "section7", (1, 0, 0)) = 3
    @pytest.mark.parametrize("call,ell,name,error", _refusals())
    def test_refused(self, call, ell, name, error):
        with pytest.raises(ValueError) as exc:
            call(ell, name)
        assert type(exc.value) is error


class TestLadder:
    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_relations(self, ell):
        split_ok, lows = ladder_relations(ell, "section7")
        assert split_ok is None
        assert all(lows.values())

    def test_explicit_shift_ninehalf(self):
        gens = osc_generators(H(9), "section7")
        h = hamiltonian(H(9), "section7")
        w = gens[w_label(H(-7))]
        assert h.commutator(w) == w.scaled(CScalar.from_rational(7))

    def test_section6_split(self):
        split_ok, lows = ladder_relations(H(3), "section6")
        assert split_ok is True

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_energies_c_free_and_formula(self, ell):
        recs = spectrum(ell, 4, "section7")
        evac = vacuum_energy(ell, "section7")
        for r in recs:
            want = sum(F(2 * a - 1) * na
                       for a, na in enumerate(r.n, 1)) + evac
            assert r.energy == want

    def test_bad_multi_index(self):
        with pytest.raises(ValueError):
            ladder_state(Ladder(H(3)), [1, -1])
        with pytest.raises(ValueError):
            ladder_state(Ladder(H(3)), [1, 0, 0])
        with pytest.raises(ValueError):
            ladder_state(Ladder(H(3), "section6"), [1, 0, 0])

    # ladder_energy once returned the float 3.5 for (1.5, 0) and 3 for
    # (True, 0), and ladder_state truncated both to (1, 0)
    @pytest.mark.parametrize("n", [(1.5, 0), (F(1), 0), (True, 0)],
                             ids=["float", "Fraction", "bool"])
    def test_multi_index_entries_are_ints(self, n):
        with pytest.raises(ValueError):
            ladder_energy(H(3), "section7", n)
        with pytest.raises(ValueError):
            ladder_state(Ladder(H(3)), n)

    def test_shared_parts_built_once(self, monkeypatch):
        counts = Counter()
        for name in ("hamiltonian", "vacuum", "apply_op", "image"):
            def counted(*args, _name=name,
                        _fn=getattr(cgaosc.spectrum, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cgaosc.spectrum, name, counted)
        states = len(spectrum(H(5), 4))
        raising = len(positive_w_indices(H(5)))
        # one lowering image per state but the vacuum and one eigen image
        # per state, through the kernel; apply_op only for the vacuum's
        # raising-operator checks
        assert counts == {"hamiltonian": 1, "vacuum": 1, "apply_op": raising,
                          "image": (states - 1) + states}

    def test_one_gaussfunc_per_spectrum(self, monkeypatch):
        # the vacuum is the only GaussFunc made: the ladder keeps every
        # other state as its integer part
        made = []
        init = GaussFunc.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GaussFunc, "__init__", counted)
        records = spectrum(H(5), 4)
        assert len(records) == 35
        assert records[0].n == (0, 0, 0)
        assert len(made) == 1
        assert made[0] == Ladder(H(5)).state(records[0].n)

    @pytest.mark.parametrize("ell,norm", [
        (H(5), "section7"), (H(3), "section6"),
    ], ids=str)
    def test_spectrum_builds_no_state(self, monkeypatch, ell, norm):
        # every step and eigen check reads integer parts; Fractions are
        # made only for a state asked for, or a failure's residual
        def refused(*args):
            raise AssertionError("from_raw called")

        monkeypatch.setattr(cgaosc.spectrum, "from_raw", refused)
        size = len(_lowering_order(ell, norm))
        assert len(spectrum(ell, 4, norm)) == comb(size + 4, 4)

    def test_one_ladder_state_call_per_record(self, monkeypatch):
        # perfbench's tracing counts spectrum() through this module-level
        # name, so spectrum() must look it up there for every record
        calls = []
        fn = cgaosc.spectrum.ladder_state

        def counted(ladder, n):
            calls.append(n)
            return fn(ladder, n)

        monkeypatch.setattr(cgaosc.spectrum, "ladder_state", counted)
        assert len(spectrum(H(1), 1)) == len(calls) == 2
        records = spectrum(H(5), 3)
        assert sorted(calls[2:]) == sorted(r.n for r in records)
        assert len(calls) == 2 + comb(3 + 3, 3)

    def test_state_takes_any_sequence(self):
        ladder = Ladder(H(3))
        assert ladder.state([1, 0]) == ladder.state((1, 0))
        low = w_label(-_lowering_order(H(3), "section7")[1])
        assert ladder.state([0, 2]) == apply_op(
            osc_generators(H(3), "section7")[low], ladder.state([0, 1]))
        with pytest.raises(ValueError):
            ladder.state([1, 0, 0])

    @pytest.mark.parametrize("ell,norm", [
        (H(3), "section6"), (H(5), "section7"),
    ], ids=str)
    def test_records_hold_the_ladder_states(self, ell, norm):
        ladder = Ladder(ell, norm)
        size = len(ladder.lowering)
        root, vac = ladder.state((0,) * size), vacuum(ell, norm)
        assert root == vac
        assert root.kappa == vac.kappa
        for n in _multi_indices(size, 3):
            record = ladder_state(ladder, n)
            state = ladder.state(record.n)
            assert state.terms == from_raw(*ladder.parts[record.n])
            assert state.kappa == root.kappa

    def test_operators_conjugated_once_per_ladder(self, monkeypatch):
        counts = Counter()
        for module in (cgaosc.spectrum, cgaosc.funcspace):
            def counted(*args, _fn=module.conjugate):
                counts["conjugate"] += 1
                return _fn(*args)
            monkeypatch.setattr(module, "conjugate", counted)
        states = len(spectrum(H(5), 4))
        raising = len(positive_w_indices(H(5)))
        # once per lowering operator and once for H, whatever the number
        # of states, and once per raising-operator check of the vacuum
        assert states == 35
        assert counts == {"conjugate": len(_lowering_order(H(5), "section7"))
                          + 1 + raising}

    @pytest.mark.parametrize("ell,norm", [
        (H(3), "section6"), (H(3), "section7"), (H(5), "section7"),
    ], ids=str)
    def test_frame_path_matches_the_gaussian_path(self, ell, norm):
        # each state equals the word of unconjugated lowering operators
        # applied to the Gaussian vacuum, and is an eigenstate of H
        gens = osc_generators(ell, convention(ell, norm, "spectrum")
                              .realization)
        lows = [gens[w_label(-j)] for j in _lowering_order(ell, norm)]
        h = hamiltonian(ell, norm)
        ladder = Ladder(ell, norm)
        for rec in spectrum(ell, 4, norm):
            state = vacuum(ell, norm)
            for i in reversed(range(len(lows))):
                for _ in range(rec.n[i]):
                    state = apply_op(lows[i], state)
            assert ladder.state(rec.n) == state
            assert ladder.state(rec.n).kappa == state.kappa
            assert apply_op(h - WeylOp.const(h.chart, rec.energy),
                            state).is_zero()

    @pytest.mark.parametrize("ell,norm", [
        (H(3), "section6"), (H(3), "section7"), (H(5), "section7"),
    ], ids=str)
    def test_standalone_state_matches_spectrum(self, ell, norm):
        recs = spectrum(ell, 4, norm)
        size = len(recs[0].n)
        assert len({r.n for r in recs}) == comb(size + 4, 4)
        for rec in recs:
            assert ladder_state(Ladder(ell, norm), rec.n) == rec

    def test_standalone_state_checks_only_itself(self, monkeypatch):
        # three lowering images down to (1, 1, 1) and one eigen image
        counts = Counter()
        image = cgaosc.spectrum.image

        def counted(*args):
            counts["image"] += 1
            return image(*args)

        monkeypatch.setattr(cgaosc.spectrum, "image", counted)
        ladder_state(Ladder(H(5)), (1, 1, 1))
        assert counts == {"image": 3 + 1}

    def test_hamiltonian_columns_are_keyed_by_exponents(self):
        # every state's eigen check reads conj(H)'s columns; states that
        # share an exponent tuple at different s-weights share a column
        ladder = Ladder(H(5))
        for n in _multi_indices(len(ladder.lowering), 4):
            ladder_state(ladder, n)
        keys = {key for t, _ in ladder.parts.values() for key in t}
        columns = ladder.h[2]
        assert set(columns) == {m for _, m in keys}
        assert len(columns) < len(keys)

    def test_zero_lowering_step_is_refused(self):
        # a zero state satisfies H 0 = E 0, so only the ladder can tell
        ladder = Ladder(H(3))
        ladder.lowering[1] = prepare(WeylOp.zero(Chart("osc", H(3))))
        ladder_state(ladder, (2, 0))
        with pytest.raises(Mismatch) as exc:
            ladder_state(ladder, (1, 1))
        assert "n=(0, 1)" in str(exc.value)

    def test_failure_names_the_state_and_residual(self, monkeypatch):
        energy = cgaosc.spectrum.ladder_energy

        def off_at_02(ell, normalization, n):
            return energy(ell, normalization, n) + (n == (0, 2))

        monkeypatch.setattr(cgaosc.spectrum, "ladder_energy", off_at_02)
        with pytest.raises(Mismatch) as exc:
            spectrum(H(3), 4)
        resid = exc.value.residual
        assert resid == Ladder(H(3)).state((0, 2)).scaled(-1)
        msg = str(exc.value)
        assert "n=(0, 2)" in msg
        assert f"({len(resid.terms)} terms" in msg
        assert repr(resid.head(3)) in msg

    def test_corrupted_hamiltonian_fails_at_the_first_affected_state(
            self, monkeypatch):
        # one coefficient of H, that of u_2 d_{u_2}, is off by one; the
        # vacuum does not depend on u_2, so a later state fails first
        h = hamiltonian(H(3))
        key = (0, (0, 1), (0, 0, 1))
        bad = WeylOp(h.chart, {**h.terms, key: h.terms[key] + 1})
        monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                            lambda ell, normalization="section7": bad)
        gens = osc_generators(H(3), "section7")
        lows = [gens[w_label(-j)] for j in _lowering_order(H(3), "section7")]
        first = None
        for n in cgaosc.spectrum._multi_indices(2, 4):
            state = vacuum(H(3))
            for i in reversed(range(len(lows))):
                for _ in range(n[i]):
                    state = apply_op(lows[i], state)
            energy = ladder_energy(H(3), "section7", n)
            resid = apply_op(bad - WeylOp.const(bad.chart, energy), state)
            if not resid.is_zero():
                first = n, resid
                break
        assert first is not None and any(first[0])
        with pytest.raises(Mismatch) as exc:
            spectrum(H(3), 4)
        assert f"eigen-relation for n={first[0]}" in str(exc.value)
        assert exc.value.residual == first[1]

    def test_wrong_vacuum_energy_is_refused(self, monkeypatch):
        energy = cgaosc.spectrum.ladder_energy

        def off_at_vacuum(ell, normalization, n):
            return energy(ell, normalization, n) + (not any(n))

        monkeypatch.setattr(cgaosc.spectrum, "ladder_energy", off_at_vacuum)
        with pytest.raises(Mismatch) as exc:
            spectrum(H(5), 2)
        assert "n=(0, 0, 0)" in str(exc.value)
        assert exc.value.residual == vacuum(H(5)).scaled(-1)

    def test_eigen_check_reads_both_sides(self, monkeypatch):
        # a zero H has an empty image, while E0 times the vacuum is not
        # zero: the check must find the terms the image lacks
        chart = Chart("osc", H(3))
        monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                            lambda ell, normalization="section7":
                            WeylOp.zero(chart))
        with pytest.raises(Mismatch) as exc:
            ladder_state(Ladder(H(3)), (0, 0))
        assert "n=(0, 0)" in str(exc.value)
        want = CScalar.from_rational(-vacuum_energy(H(3)))
        assert exc.value.residual == vacuum(H(3)).scaled(want)


class TestSectionSixFixture:
    """The printed list of the seven lowest eigenstates at ell=3/2."""

    CHART = Chart("osc", H(3))
    KAPPA = CScalar.c_power(1, F(1, 2))

    def printed(self):
        one = CScalar.one()
        c = CScalar.c()
        c2 = CScalar.c_power(2)
        # keyed by (m, k): polynomial-and-weight parts of
        # e^{E s} * p(u, v) * e^{c u^2 / 2}
        return {
            (0, 0): (F(1), {(2, (0, 0)): one}),
            (0, 1): (F(3, 2), {(3, (1, 0)): c}),
            (0, 2): (F(2), {(4, (0, 0)): c.scale(F(2)),
                            (4, (2, 0)): c2}),
            (1, 0): (F(5, 2), {(5, (1, 0)): c.scale(F(3)),
                               (5, (0, 1)): c.scale(F(-3))}),
            (0, 3): (F(5, 2), {(5, (1, 0)): c2.scale(F(6)),
                               (5, (3, 0)): CScalar.c_power(3)}),
            (1, 1): (F(3), {(6, (0, 0)): c.scale(F(3)),
                            (6, (2, 0)): c2.scale(F(3)),
                            (6, (1, 1)): c2.scale(F(-3))}),
            (0, 4): (F(3), {(6, (0, 0)): c2.scale(F(12)),
                            (6, (2, 0)): CScalar.c_power(3, F(12)),
                            (6, (4, 0)): CScalar.c_power(4)}),
        }

    def test_states_up_to_scalar(self):
        ladder = Ladder(H(3), "section6")
        for (m, k), (energy, terms) in self.printed().items():
            rec = ladder_state(ladder, (m, k))
            assert rec.energy == energy, (m, k)
            want = GaussFunc(self.CHART, self.KAPPA, terms)
            ratio = ladder.state(rec.n).proportionality(want)
            assert ratio is not None, (m, k)

    def test_energy_multiset_and_degeneracy(self):
        energies = sorted(v[0] for v in self.printed().values())
        assert energies == [F(1), F(3, 2), F(2), F(5, 2), F(5, 2),
                            F(3), F(3)]
        recs = spectrum(H(3), 4, "section6")
        by_energy = {}
        for r in recs:
            by_energy.setdefault(r.energy, []).append(r.n)
        assert len(by_energy[F(5, 2)]) == 2
        assert len(by_energy[F(1)]) == 1
        assert len(by_energy[F(3, 2)]) == 1

    def test_hamiltonian_ladder_identity(self):
        # checked internally on construction; a raw rebuild double-checks
        gens = osc_generators(H(3), "section5")
        h = hamiltonian(H(3), "section6")
        prod = (gens[w_label(H(-1))] * gens[w_label(H(1))]
                - gens[w_label(H(-3))] * gens[w_label(H(3))])
        assert h == prod.scaled(CScalar.c_power(-1, F(1, 2))) \
            + WeylOp.one(h.chart)


class TestMatrixOracle:
    def test_threehalf_degree2(self):
        mo = matrix_oracle(H(3), 2)
        assert isinstance(mo, ExactMatrix)
        assert sorted(mo.eigenvalues) == [F(2), F(3), F(4), F(5), F(6), F(8)]

    def test_half_degree3(self):
        mo = matrix_oracle(H(1), 3)
        assert sorted(mo.eigenvalues) \
            == [F(1, 2), F(3, 2), F(5, 2), F(7, 2)]

    def test_strictly_triangular(self):
        mo = matrix_oracle(H(3), 3)
        order = [sum(a * na for a, na in enumerate(n, 1)) for n in mo.basis]
        for (i, j) in mo.entries:
            if i != j:
                assert order[i] < order[j]

    @pytest.mark.parametrize("ell", ELLS, ids=str)
    def test_agrees_with_ladder(self, ell):
        mo = matrix_oracle(ell, 4)
        ladder = sorted(r.energy for r in spectrum(ell, 4, "section7"))
        assert ladder == sorted(mo.eigenvalues)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            matrix_oracle(H(3), -1)


class TestHarmonicReduction:
    @pytest.mark.parametrize("ell,const", [
        (H(1), F(0)), (H(3), F(3, 2)), (H(5), F(4)),
        (H(7), F(15, 2)), (H(9), F(12)),
    ], ids=lambda x: str(x))
    def test_all_ell(self, ell, const):
        constant, restricted = harmonic_reduction(ell)
        assert constant == const
        # restriction of a u1-only eigenfunction stays u1-only
        chart = Chart("osc", ell)
        f = GaussFunc.monomial(chart, CScalar.zero(), 0,
                               (2,) + (0,) * (chart.nvars - 1))
        img = apply_op(restricted, f)
        for (_, vp), _coef in img.terms.items():
            assert all(p == 0 for p in vp[1:])

    @pytest.mark.parametrize("extra,message", [
        (lambda chart: WeylOp.var(chart, 1), "maps u_1-only functions"),
        (lambda chart: WeylOp.const(chart, F(1)), "restricted operator"),
    ], ids=["u2-without-d_u2", "extra-constant"])
    def test_inconsistent(self, monkeypatch, extra, message):
        h = hamiltonian(H(3))
        bad = h + extra(h.chart)
        monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                            lambda ell, normalization="section7": bad)
        with pytest.raises(Inconsistent, match=message):
            harmonic_reduction(H(3))


def _h_key(ell, v, d):
    """The key of the H term with space-variable powers v and
    space-derivative powers d, padded with zeros to the chart."""
    pad = (0,) * ((ell.twice + 1) // 2 - len(v))
    return (0, v + pad, (0,) + d + pad)


class TestPinnedFailureReports:
    """The eigen-check's report, byte for byte, when one coefficient of H
    is off by one: u_2 d_{u_2} fails at a lowered state, d_{u_1}^2 at the
    vacuum.  The section6 energies are half-integers."""

    U2DU2, DU1DU1 = ((0, 1), (0, 1)), ((0,), (2,))
    PINS = [
        (H(5), "section7", U2DU2, (0, 1, 0),
         "GaussFunc((-2*c)*e^(3/2s)*u2; kappa=1/12*c)"),
        (H(5), "section7", DU1DU1, (0, 0, 0),
         "GaussFunc((1/6*c) + (1/36*c^2)*u1^2; kappa=1/12*c)"),
        (H(3), "section6", U2DU2, (1, 0),
         "GaussFunc((-3*c)*e^(5/2s)*v; kappa=1/2*c)"),
        (H(3), "section6", DU1DU1, (0, 0),
         "GaussFunc((1*c)*e^(1s) + (1*c^2)*e^(1s)*u^2; kappa=1/2*c)"),
        (H(7), "section7", U2DU2, (0, 1, 0, 0),
         "GaussFunc((-5/3*c)*e^(3/2s)*u2; kappa=1/16*c)"),
        (H(7), "section7", DU1DU1, (0, 0, 0, 0),
         "GaussFunc((1/8*c) + (1/64*c^2)*u1^2; kappa=1/16*c)"),
    ]

    @pytest.mark.parametrize("ell,norm,term,n,residual", PINS,
                             ids=lambda x: str(x))
    def test_report(self, fresh_caches, monkeypatch, ell, norm, term, n,
                    residual):
        h = hamiltonian(ell, norm)
        key = _h_key(ell, *term)
        bad = WeylOp(h.chart, {**h.terms, key: h.terms[key] + 1})
        monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                            lambda ell, normalization="section7": bad)
        with pytest.raises(Mismatch) as exc:
            spectrum(ell, 3, norm)
        terms = len(exc.value.residual.terms)
        assert str(exc.value) == (
            f"mismatch at eigen-relation for n={n}; residual ({terms} "
            f"term{'s' if terms > 1 else ''}): {residual}")
        assert repr(exc.value.residual) == residual
        energy = WeylOp.const(bad.chart, ladder_energy(ell, norm, n))
        assert exc.value.residual == apply_op(bad - energy,
                                              Ladder(ell, norm).state(n))


class TestFailurePaths:
    """Each raising check of the module, reached by corrupting one of its
    inputs."""

    @pytest.mark.parametrize("norm,extra,label", [
        ("section7", lambda chart: WeylOp.der(chart, 0),
         "Hamiltonian contains d_s"),
        ("section7", lambda chart: WeylOp.exp_s(chart, H(2)),
         "Hamiltonian carries an s-weight"),
        ("section6", lambda chart: WeylOp.one(chart),
         "ladder form of the Hamiltonian"),
    ], ids=["d_s", "s-weight", "section6-ladder-form"])
    def test_hamiltonian(self, fresh_caches, monkeypatch, norm, extra,
                         label):
        conv = convention(H(3), norm, "spectrum")
        om0 = cgaosc.spectrum.omega0_osc(H(3), conv.realization)
        z0 = osc_generators(H(3), conv.realization)[Z_ZERO]
        bad_om0 = om0 + extra(om0.chart)
        monkeypatch.setattr(cgaosc.spectrum, "omega0_osc",
                            lambda ell, normalization="section7": bad_om0)
        with pytest.raises(Mismatch) as exc:
            hamiltonian(H(3), norm)
        assert exc.value.label == label
        bad_h = conv.h * (bad_om0 - z0)
        # the ladder form is compared with the true H; the other two
        # checks show the whole operator
        want = (bad_h - conv.h * (om0 - z0) if norm == "section6"
                else bad_h)
        assert exc.value.residual == want

    def test_vacuum(self, fresh_caches, monkeypatch):
        gens = osc_generators(H(5), "section7")
        label = w_label(H(3))
        bad_w = gens[label] + WeylOp.one(gens[label].chart)
        monkeypatch.setattr(cgaosc.spectrum, "osc_generators",
                            lambda ell, realization: {**gens, label: bad_w})
        good = GaussFunc.monomial(Chart("osc", H(5)),
                                  CScalar.c_power(1, F(1, 12)))
        with pytest.raises(Mismatch) as exc:
            vacuum(H(5))
        assert exc.value.label == "raising operator w_3/2 on the vacuum"
        assert exc.value.residual == apply_op(bad_w, good) == good

    def test_energy_off_by_a_seventh(self, fresh_caches, monkeypatch):
        # E d_op is then no integer, so the residual map holds Fractions
        energy = cgaosc.spectrum.ladder_energy

        def off_at_01(ell, normalization, n):
            return energy(ell, normalization, n) + F(n == (0, 1), 7)

        monkeypatch.setattr(cgaosc.spectrum, "ladder_energy", off_at_01)
        with pytest.raises(Mismatch) as exc:
            spectrum(H(3), 2)
        assert exc.value.label == "eigen-relation for n=(0, 1)"
        state = Ladder(H(3)).state((0, 1))
        assert exc.value.residual == state.scaled(F(-1, 7))

    def test_spectrum_negative_bound(self, fresh_caches):
        with pytest.raises(ValueError, match="max_total must be "
                                             "non-negative"):
            spectrum(H(3), -1)

    # True once ran as 1, and 1.5 raised a bare TypeError from range
    @pytest.mark.parametrize("bound", [True, False, 1.5, F(2), 2.0, "2"],
                             ids=repr)
    def test_bounds_are_ints(self, fresh_caches, bound):
        shown = re.escape(repr(bound))
        with pytest.raises(ValueError,
                           match=f"^max_total must be an int, not {shown}$"):
            spectrum(H(3), bound)
        with pytest.raises(ValueError,
                           match=f"^max_degree must be an int, not {shown}$"):
            matrix_oracle(H(3), bound)

    @pytest.mark.parametrize("case", [
        "omega0", "h-shift", "z0", "section6-split"])
    def test_ladder_relations(self, fresh_caches, monkeypatch, case):
        norm = "section6" if case == "section6-split" else "section7"
        conv = convention(H(3), norm, "spectrum")
        gens = osc_generators(H(3), conv.realization)
        om0 = cgaosc.spectrum.omega0_osc(H(3), conv.realization)
        h = hamiltonian(H(3), norm)
        chart = h.chart
        w = gens[w_label(H(1))]
        u1 = WeylOp.var(chart, 0)
        if case == "omega0":
            bad = om0 + u1
            monkeypatch.setattr(cgaosc.spectrum, "omega0_osc",
                                lambda ell, normalization="section7": bad)
            label, want = "[Omega0, w_1/2]", bad.commutator(w)
        elif case == "h-shift":
            bad = h.scaled(2)
            monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                                lambda ell, normalization="section7": bad)
            label = "[H, w_1/2] shift"
            want = bad.commutator(w) - w.scaled(CScalar.from_rational(-1))
        elif case == "z0":
            bad = gens[Z_ZERO] + u1
            monkeypatch.setattr(cgaosc.spectrum, "osc_generators",
                                lambda ell, realization:
                                {**gens, Z_ZERO: bad})
            monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                                lambda ell, normalization="section7": h)
            label, want = "[z0, H]", bad.commutator(h)
        else:
            bad = h + WeylOp.one(chart)
            monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                                lambda ell, normalization="section7": bad)
            label, want = "Omega0 - (z0 + H)", WeylOp.const(chart, -1)
        with pytest.raises(Mismatch) as exc:
            ladder_relations(H(3), norm)
        assert exc.value.label == label
        assert exc.value.residual == want
        assert not want.is_zero()

    @pytest.mark.parametrize("extra,error,message", [
        (lambda chart: WeylOp.exp_s(chart, H(2)), NotTriangular,
         "s-weight appears in column (0, 0)"),
        (lambda chart: WeylOp.var(chart, 1), NotTriangular,
         "entry (0, 1) <- (0, 0) does not lower the order"),
        (lambda chart: WeylOp.const(chart, CScalar.c()), DiagonalDependsOnC,
         "diagonal at (0, 0): "),
        # lowers the order of u2^2 (4 -> 3) but leaves the degree-2 basis
        (lambda chart: WeylOp.var(chart, 0, power=3)
         * WeylOp.der(chart, 2, power=2), NotTriangular,
         "entry (3, 0) <- (0, 2) is outside the basis of degree <= 2"),
    ], ids=["s-weight", "raises-order", "c-diagonal", "outside-basis"])
    def test_matrix_oracle(self, fresh_caches, monkeypatch, extra, error,
                           message):
        h = hamiltonian(H(3))
        bad = h + extra(h.chart)
        monkeypatch.setattr(cgaosc.spectrum, "hamiltonian",
                            lambda ell, normalization="section7": bad)
        with pytest.raises(error) as exc:
            matrix_oracle(H(3), 2)
        assert type(exc.value) is error
        assert str(exc.value).startswith(message)
