import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgaosc.cli
import cgaosc.enlarged
from cgaosc.cli import main, parse_ell
from cgaosc.jsonio import weylop_from_json
from cgaosc.realizations import free_generators, parse_label
from cgaosc.scalars import HalfInt

H = HalfInt


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
    ], ids=["bad-ell", "normalization", "max-total", "seed",
            "verify-max-total", "verify-max-degree"])
    def test_bad_input_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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
        assert len(payload) == len(gens)
        for name, opjson in payload.items():
            lb = parse_label(name)
            assert weylop_from_json(opjson) == gens[lb]

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
