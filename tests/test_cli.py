import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cgaosc.cli
import cgaosc.enlarged
from cgaosc.cli import main, parse_ell
from cgaosc.errors import Mismatch, NotTriangular
from cgaosc.realizations import AlgebraElement, free_generators, label_str
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.weyl import Chart, WeylOp

H = HalfInt


def weylop_from_json(obj: dict) -> WeylOp:
    """The operator that cgaosc.jsonio.weylop_json encoded."""
    def cscalar(items):
        return CScalar({int(it["cpow"]): Fraction(int(it["coef"]["n"]),
                                                  int(it["coef"]["d"]))
                        for it in items})
    chart = Chart(obj["chart"]["kind"], H(int(obj["chart"]["twice_ell"])))
    return WeylOp(chart, {
        (int(t["twice_expS"]), tuple(map(int, t["var"])),
         tuple(map(int, t["der"]))): cscalar(t["coef"])
        for t in obj["terms"]})


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestParsing:
    def test_parse_ell(self):
        assert parse_ell("3/2") == H(3)
        assert parse_ell("1/2") == H(1)
        for bad in ("7/4", "2", "abc", "0/0"):
            with pytest.raises(Exception):
                parse_ell(bad)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gens", "--ell", "7/4"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "closure", "--ell=-1/2"],
        ["verify", "spectrum", "--ell", "5/2", "--normalization", "s6"],
        ["spectrum", "--ell", "3/2", "--max-total", "-1"],
        ["verify", "jacobi", "--ell", "1/2", "--seed", "3"],
        ["verify", "spectrum", "--ell", "1/2", "--max-total", "-1"],
        ["verify", "spectrum", "--ell", "1/2", "--max-degree", "-1"],
        ["verify", "onshell", "--ell", "5/2", "--chart", "osc",
         "--normalization", "s5"],
        ["verify", "onshell", "--ell", "5/2", "--chart", "osc",
         "--normalization", "s6"],
        ["verify", "transform", "--ell", "5/2", "--normalization", "s5"],
        ["verify", "transform", "--ell", "5/2", "--normalization", "s6"],
        ["gens", "--ell", "5/2", "--chart", "osc", "--normalization", "s5"],
        ["hamiltonian", "--ell", "5/2", "--normalization", "s6"],
        ["eigenstate", "--ell", "5/2", "--normalization", "s6",
         "--n", "1,0"],
        ["verify", "all", "--ell", "7/2", "--normalization", "s6"],
        ["verify", "closure", "--ell", "5/2", "--normalization", "s6"],
        ["verify", "all", "--ell", "7/2", "--max-degree", "-1"],
        ["verify", "closure", "--ell", "1/2", "--max-total", "-1"],
        ["matrix", "--ell", "3/2", "--max-degree", "-1"],
        ["eigenstate", "--ell", "3/2", "--n", "-1,0"],
    ], ids=["bad-ell", "normalization", "max-total", "seed",
            "verify-max-total", "verify-max-degree", "onshell-s5",
            "onshell-s6", "transform-s5", "transform-s6", "gens-s5",
            "hamiltonian-s6", "eigenstate-s6", "all-s6", "closure-s6",
            "all-max-degree", "closure-max-total", "matrix-max-degree",
            "eigenstate-negative-n"])
    def test_bad_input_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_multi_index_is_named(self, capsys):
        # "--n -1,0" is the value of --n, not an option
        errs = []
        for argv in (["--n", "-1,0"], ["--n=-1,0"]):
            with pytest.raises(SystemExit) as exc:
                main(["eigenstate", "--ell", "3/2", *argv])
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == ("cgaosc: error: multi-index must have "
                                      "2 non-negative int entries\n")

    def test_normalization_refused_before_any_suite(self, capsys,
                                                    monkeypatch):
        def never(args):
            raise AssertionError("a suite ran before the flag was checked")

        monkeypatch.setattr(cgaosc.cli, "verify_closure", never)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--ell", "7/2", "--normalization", "s6"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_bound_refused_before_any_suite(self, capsys,
                                                     monkeypatch):
        def never(args):
            raise AssertionError("a suite ran before the bound was checked")

        monkeypatch.setattr(cgaosc.cli, "verify_closure", never)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--ell", "7/2", "--max-degree", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-degree: must be non-negative" in captured.err

    def test_closed_stdout_ends_quietly(self):
        # 141 = 128 + SIGPIPE, what a shell reports for a filter whose
        # reader left
        src = str(Path(cgaosc.cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cgaosc", "verify", "spectrum",
             "--ell", "1/2"], env=env, stdout=write_end,
            stderr=subprocess.PIPE)
        os.close(write_end)
        os.close(read_end)  # the reader leaves before reading anything
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    @pytest.mark.parametrize("ell,code", [("1/2", 0), ("-1/2", 2)])
    def test_python_m_cgaosc(self, ell, code):
        src = str(Path(cgaosc.cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-m", "cgaosc", "verify", "spectrum",
             f"--ell={ell}"], env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["status"] == "pass"


class TestGens:
    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "gens", "--ell", "3/2", "--chart", "free")
        assert code == 0
        payload = json.loads(out)
        gens = free_generators(H(3))
        labels = {label_str(lb): lb for lb in gens}
        assert len(payload) == len(gens)
        for name, opjson in payload.items():
            assert weylop_from_json(opjson) == gens[labels[name]]

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "gens", "--ell", "5/2", "--chart", "osc")
        _, second = run(capsys, "gens", "--ell", "5/2", "--chart", "osc")
        assert first == second

    def test_text_and_latex_formats(self, capsys):
        code, out = run(capsys, "gens", "--ell", "3/2", "--format", "text")
        assert code == 0
        assert "z+1 = " in out
        code, out = run(capsys, "gens", "--ell", "3/2", "--format", "latex")
        assert code == 0
        assert "\\partial_{t}" in out


class TestHamiltonian:
    def test_latex_m_form(self, capsys):
        code, out = run(capsys, "hamiltonian", "--ell", "3/2", "--m-form",
                        "--format", "latex")
        assert code == 0
        assert "m" in out and "u" in out
        assert "c" not in out.replace("\\frac", "").replace("\\cdot", "")

    def test_json(self, capsys):
        code, out = run(capsys, "hamiltonian", "--ell", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["normalization"] == "section7"
        assert payload["symbol"] == "c"


class TestSpectrumCommands:
    def test_spectrum_list(self, capsys):
        code, out = run(capsys, "spectrum", "--ell", "3/2",
                        "--max-total", "2")
        assert code == 0
        recs = json.loads(out)
        assert recs[0]["n"] == [0, 0]
        assert recs[0]["energy"] == {"n": "2", "d": "1"}

    def test_eigenstate(self, capsys):
        code, out = run(capsys, "eigenstate", "--ell", "3/2",
                        "--normalization", "s6", "--n", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["energy"] == {"n": "3", "d": "2"}
        assert "latex" in payload and "state" in payload

    def test_matrix(self, capsys):
        code, out = run(capsys, "matrix", "--ell", "3/2",
                        "--max-degree", "2")
        assert code == 0
        payload = json.loads(out)
        evs = sorted((int(e["n"]), int(e["d"]))
                     for e in payload["eigenvalues"])
        assert evs == [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (8, 1)]


class TestVerify:
    def test_all_suites_half(self, capsys):
        code, out = run(capsys, "verify", "all", "--ell", "1/2",
                        "--max-total", "3", "--max-degree", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert set(payload["suites"]) == {"closure", "jacobi", "duality",
                                          "onshell", "transform", "spectrum"}
        assert payload["suites"]["closure"] == {"evenDim": 7, "oddDim": 2,
                                                "ecgaDim": 9}
        assert payload["suites"]["spectrum"]["matrixAgrees"] is True

    def test_all_checks_jacobi_once_per_table(self, capsys, monkeypatch):
        calls = []
        check = cgaosc.enlarged.check_jacobi

        def counted(table, graded):
            calls.append(graded)
            return check(table, graded=graded)

        for module in (cgaosc.cli, cgaosc.enlarged):
            monkeypatch.setattr(module, "check_jacobi", counted)
        code, _ = run(capsys, "verify", "all", "--ell", "3/2")
        assert code == 0
        assert sorted(calls) == [False, True]

    # at ell=3/2 there are 1, 2 and 3 ladder states of total 0, 1 and 2
    @pytest.mark.parametrize("max_total,max_degree,states",
                             [(1, 2, 3), (2, 1, 6)])
    def test_spectrum_separate_bounds(self, capsys, max_total, max_degree,
                                      states):
        code, out = run(capsys, "verify", "spectrum", "--ell", "3/2",
                        "--max-total", str(max_total),
                        "--max-degree", str(max_degree))
        assert code == 0
        rep = json.loads(out)["suites"]["spectrum"]
        assert rep["states"] == states
        assert rep["matrixAgrees"] is True

    def test_single_suite_threehalf(self, capsys):
        code, out = run(capsys, "verify", "duality", "--ell", "3/2")
        assert code == 0
        payload = json.loads(out)
        rep = payload["suites"]["duality"]
        assert rep["spDim"] == 10 and rep["ospDim"] == 14

    # each flag names a table entry; verify spectrum runs section7 for s5,
    # and onshell and transform take the realization, section5 for s6
    @pytest.mark.parametrize("suite,flag,want", [
        ("spectrum", "s5", {"normalization": "section7",
                            "matrixAgrees": True}),
        ("spectrum", "s6", {"normalization": "section6", "splitOk": True,
                            "matrixAgrees": None}),
        ("transform", "s6", {"normalization": "section5"}),
        ("onshell", "s6", None),
    ], ids=["spectrum-s5", "spectrum-s6", "transform-s6", "onshell-s6"])
    def test_flag_to_convention(self, capsys, suite, flag, want):
        argv = ["verify", suite, "--ell", "3/2", "--chart", "osc",
                "--normalization"]
        code, out = run(capsys, *argv, flag)
        assert code == 0
        if want is None:
            assert out == run(capsys, *argv, "s5")[1]
            return
        rep = json.loads(out)["suites"][suite]
        fields = dict(rep, **rep.get("relations", {}))
        for key, value in want.items():
            assert fields.get(key) == value, key

    def test_failed_suite_ends_the_report(self, capsys, monkeypatch):
        def fail(args):
            raise Mismatch("w_3/2", AlgebraElement.of(("w", 3)))

        monkeypatch.setattr(cgaosc.cli, "verify_duality", fail)
        code, out = run(capsys, "verify", "all", "--ell", "1/2")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert list(payload["suites"]) == ["closure", "jacobi", "duality"]
        rep = payload["suites"]["duality"]
        assert rep["error"] == "Mismatch"
        assert "mismatch at w_3/2" in rep["detail"]

    def test_failed_query_reports_the_error(self, capsys, monkeypatch):
        def fail(ell, max_degree):
            raise NotTriangular("entry below the diagonal")

        monkeypatch.setattr(cgaosc.cli, "matrix_oracle", fail)
        code, out = run(capsys, "matrix", "--ell", "1/2")
        assert code == 1
        assert json.loads(out) == {"status": "fail",
                                   "error": "NotTriangular",
                                   "detail": "entry below the diagonal"}

    def test_spectrum_disagreement_names_the_energy(self, capsys,
                                                    monkeypatch):
        oracle = cgaosc.cli.matrix_oracle
        moved = oracle(H(3), 3).eigenvalues[-1]

        def off_by_half(ell, max_degree):
            mo = oracle(ell, max_degree)
            values = mo.eigenvalues[:-1] + [moved + Fraction(1, 2)]
            return dataclasses.replace(mo, eigenvalues=values)

        monkeypatch.setattr(cgaosc.cli, "matrix_oracle", off_by_half)
        code, out = run(capsys, "verify", "spectrum", "--ell", "3/2",
                        "--max-degree", "3")
        assert code == 1
        rep = json.loads(out)["suites"]["spectrum"]
        count = oracle(H(3), 3).eigenvalues.count(moved)
        assert rep == {"error": "CgaError", "detail": (
            f"ladder and matrix spectra disagree at energy {moved}: "
            f"multiplicity {count} on the ladder, {count - 1} in the "
            f"matrix")}

    def test_m_form_mismatch_shows_the_residual(self, capsys, monkeypatch):
        expected = cgaosc.cli.hamiltonian_m_form_expected

        def one_off(ell):
            h = expected(ell)
            terms = dict(h.terms)
            key = h.sorted_terms()[0][0]  # the constant term
            terms[key] = terms[key] + CScalar.from_rational(1)
            return WeylOp(h.chart, terms)

        monkeypatch.setattr(cgaosc.cli, "hamiltonian_m_form_expected",
                            one_off)
        code, out = run(capsys, "verify", "spectrum", "--ell", "3/2")
        assert code == 1
        rep = json.loads(out)["suites"]["spectrum"]
        assert rep["error"] == "Mismatch"
        assert rep["detail"] == ("mismatch at m-form Hamiltonian; "
                                 "residual (1 term): WeylOp(-1)")

    def test_onshell_osc_chart(self, capsys):
        code, out = run(capsys, "verify", "onshell", "--ell", "3/2",
                        "--chart", "osc")
        assert code == 0
        payload = json.loads(out)
        rep = payload["suites"]["onshell"]
        assert rep["chart"] == "osc"
        cen = rep["centralizerDegree1"]
        assert "z+1" in cen and "c" in cen
        assert "z0" not in cen and "z-1" not in cen
        assert len(cen) == 16


# sha256 of stdout for commands whose output must not change; a change
# that alters one on purpose updates its digest and says why
DIGESTS = [
    ("verify all --ell 1/2",
     "79414904d7c7c49ea56e1c35d8e75705e71f7b3debb11eb0dfb82c7335b32e1b"),
    ("verify all --ell 3/2",
     "cc41eb978ddccba95b24216d261c904f3b18d2c8098787e7c42b193cf3c1b5c8"),
    ("verify all --ell 5/2",
     "0b80a9f8c1fc433c3734bda37f662a4b7d4ff57d809f6c3a7e6f2bc8aa53d02b"),
    ("verify all --ell 3/2 --chart osc --normalization s5",
     "f189a871f74de7e92184ea672704513000a80ef28e0978e395116afbf1e17e90"),
    ("verify all --ell 3/2 --chart osc --normalization s6",
     "6b430957bb34554b585b09427bf9b041f5e8405dc68c5f6566f2a58ec2c23ccc"),
    ("gens --ell 3/2 --chart free",
     "88e1e9dd75482beab2f00a682ac2674e7f10fbd991a2e3d1db40eaa766b25bd5"),
    ("gens --ell 3/2 --chart osc --normalization s5",
     "a5ab61c8c7dea770b0c584b513615869958b209c2271d7bfbb3eea6af4c5d129"),
    ("gens --ell 5/2 --chart osc",
     "3998d46c296fb0b8469582d9a6c8d394fd7bb6a51f08ee8c5883af00bd8407c7"),
    ("hamiltonian --ell 3/2 --normalization s6 --m-form --format text",
     "c338e0c40df34b59ad3497e4d3e0e33096d4f23e8a514890b01da13bf77090d7"),
    ("spectrum --ell 3/2 --normalization s6 --max-total 3",
     "6bb1df52deffe76776685b57d67b4216d7ed823299061c2d1beba746bf628613"),
    ("eigenstate --ell 3/2 --normalization s6 --n 2,1",
     "f1dc8aa08fbde0d0fb554edddd67540737e7b809006732210cf91e14d48cd06a"),
    ("matrix --ell 3/2 --max-degree 2",
     "5acfd2fb1dfe67b74da1da3bfe045d7545a11d297681d4ab6351e4acd25b45f0"),
    ("spectrum --ell 5/2",
     "26d7d12c096d16df89980cf7c51ea108c07147765fe5dab6ced437cb3b5b2723"),
    ("eigenstate --ell 5/2 --n 1,0,1",
     "7519e5019a78f69fc9b22d803179e954b7dd0b4a348ffa8c82b8eb67fbd55c2e"),
    ("hamiltonian --ell 5/2 --format latex",
     "965156943d3fa81c4fdf5c868197f984af39dda6dc3a8cd9fc8da4b4ddae8d6a"),
    ("gens --ell 5/2 --chart free --format text",
     "49b818ff1824492f193a9eee5d15d00400fce7192ca807d5bbb174b0003b5d7b"),
    ("verify onshell --ell 5/2 --chart osc",
     "85d65be66923f6df01b5500e8f7b327dfeafb11feea8ac695996f8ece350360c"),
    ("verify transform --ell 7/2",
     "e7d1a59407d453afacf22cc58b800359bcfcb809ac5fa13c5676bc8acec5f58b"),
    ("verify transform --ell 3/2 --normalization s5",
     "bfce3e3c2a31a4980c96ebf4eafb10ed5c295e570e0506a51fbbc8c8fd923c99"),
    # ladder states and their term order, and the matrix oracle
    ("spectrum --ell 5/2 --max-total 4",
     "164e30aaa8ca8cf3f29b3ef9411b7b6b72ebda7c53a5f554c454c54f77b76638"),
    ("eigenstate --ell 5/2 --n 1,1,1",
     "6e6d6d812e6f8cc96ac5c30f2599010c23d78b02c882a6f89c1d2d6ae061dbbe"),
    ("matrix --ell 5/2 --max-degree 3",
     "79a842c4041bd84c9a2167fb42189f7a65c5a433aacb9b0379731ac382c4c6a1"),
]


@pytest.mark.parametrize("command,digest", DIGESTS,
                         ids=[c.replace(" ", "_") for c, _ in DIGESTS])
def test_output_digest(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


class TestVerifyFailurePaths:
    """The suites' own raising checks, reached by corrupting one input."""

    def test_closure_dimension_mismatch(self, fresh_caches, monkeypatch,
                                        capsys):
        ev, od, tot = cgaosc.cli.expected_dims(H(3))
        monkeypatch.setattr(cgaosc.cli, "expected_dims",
                            lambda ell: (ev + 1, od, tot + 1))
        code, out = run(capsys, "verify", "closure", "--ell", "3/2")
        assert code == 1
        assert json.loads(out)["suites"]["closure"] == {
            "error": "CgaError",
            "detail": f"dimension mismatch: {ev}, {od} expected {ev + 1}, "
                      f"{od}"}

    def test_onshell_solver_disagrees(self, fresh_caches, monkeypatch,
                                      capsys):
        solve = cgaosc.cli.solve_omega1

        def off_by_one(ell):
            op, elem = solve(ell)
            return op + WeylOp.one(op.chart), elem

        monkeypatch.setattr(cgaosc.cli, "solve_omega1", off_by_one)
        code, out = run(capsys, "verify", "onshell", "--ell", "3/2")
        assert code == 1
        assert json.loads(out)["suites"]["onshell"] == {
            "error": "CgaError",
            "detail": "solver disagrees with the printed operator"}
