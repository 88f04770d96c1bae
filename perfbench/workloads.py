"""The three workloads: fixed inputs, the work one iteration times, and
the facts its output check compares with reference.json.

Each workload has a list of steps; the benchmark seed only permutes the
order of those steps (the ell sweep, or ladder-vs-oracle), and is never
passed to the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from fractions import Fraction

STEPS = {
    # criterion 2: closure tables + Jacobi over the free chart
    "structure": ["1/2", "3/2", "5/2", "7/2"],
    # criterion 6 at ell=7/2, degree 6: the ladder and the matrix oracle
    "spectrum": ["ladder", "oracle"],
    # the user-facing command, in process
    "verify_all": ["1/2", "3/2", "5/2"],
}
SPECTRUM_ELL = "7/2"
SPECTRUM_DEGREE = 6


def _ell(text):
    from cgaosc.scalars import HalfInt
    return HalfInt.from_fraction(Fraction(text))


def digest(obj):
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload):
    """Build the workload's realized generators (the end of set-up)."""
    from cgaosc.realizations import free_generators, osc_generators
    if workload == "spectrum":
        osc_generators(_ell(SPECTRUM_ELL))
        return
    for text in STEPS[workload]:
        free_generators(_ell(text))
        if workload == "verify_all":
            osc_generators(_ell(text))


def _run_structure(order):
    from cgaosc.enlarged import check_jacobi, closure_tables, free_enlarged
    out = {}
    for text in order:
        basis = free_enlarged(_ell(text))
        ecga, scga = closure_tables(basis)
        check_jacobi(ecga, graded=False)
        check_jacobi(scga, graded=True)
        out[text] = (basis, ecga, scga)
    return out


def _table_form(table):
    from cgaosc.realizations import label_sort_key, label_str

    def key(pair):
        return tuple(label_sort_key(lb) for lb in pair)
    rows = []
    for pair in sorted(table.entries, key=key):
        elem = table.entries[pair]
        coeffs = [[label_str(lb),
                   [[k, str(q)] for k, q in sorted(coef.terms.items())]]
                  for lb, coef in sorted(elem.coeffs.items(),
                                         key=lambda kv: label_sort_key(kv[0]))]
        rows.append([label_str(pair[0]), label_str(pair[1]),
                     table.kinds[pair], coeffs])
    return rows


def _facts_structure(out):
    return {text: {"even": len(basis.even), "odd": len(basis.odd),
                   "ecga": digest(_table_form(ecga)),
                   "scga": digest(_table_form(scga))}
            for text, (basis, ecga, scga) in sorted(out.items())}


def _run_spectrum(order):
    spec = importlib.import_module("cgaosc.spectrum")
    ell = _ell(SPECTRUM_ELL)
    out = {}
    for step in order:
        if step == "ladder":
            out[step] = spec.spectrum(ell, SPECTRUM_DEGREE)
        else:
            out[step] = spec.matrix_oracle(ell, SPECTRUM_DEGREE)
    return out


def _facts_spectrum(out):
    spec = importlib.import_module("cgaosc.spectrum")
    ell = _ell(SPECTRUM_ELL)
    recs = out["ladder"]
    energies = sorted(r.energy for r in recs)
    return {
        "states": len(recs),
        "closedForm": all(r.energy == spec.ladder_energy(ell, "section7", r.n)
                          for r in recs),
        "oracleAgrees": energies == sorted(out["oracle"].eigenvalues),
        "energies": digest([str(e) for e in energies]),
    }


def _run_verify_all(order):
    from cgaosc import cli
    out = {}
    for text in order:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "all", "--ell", text])
        out[text] = (code, buf.getvalue())
    return out


def _facts_verify_all(out):
    """Computed facts only: plainTriples/gradedTriples and the constant
    report fields are left out, since planned changes alter them."""
    result = {}
    for text, (code, stdout) in sorted(out.items()):
        report = json.loads(stdout)
        if code != 0:
            result[text] = {"exit": code, "report": report}
            continue
        suites = report["suites"]
        closure, duality = suites["closure"], suites["duality"]
        onshell, spectrum = suites["onshell"], suites["spectrum"]
        result[text] = {
            "exit": code,
            "status": report["status"],
            "dims": [closure[k] for k in ("evenDim", "oddDim", "ecgaDim")]
                    + [duality[k] for k in ("spDim", "ospDim")],
            "spClosed": duality["spClosed"],
            "ospClosed": duality["ospClosed"],
            "degree1": digest(onshell["degree1"]),
            "degree0": digest(onshell["degree0"]),
            "centralizerDegree1": onshell["centralizerDegree1"],
            "solverMatches": onshell["solverMatches"],
            "vacuumEnergy": spectrum["vacuumEnergy"],
            "reductionConstant": spectrum["reductionConstant"],
            "matrixAgrees": spectrum["matrixAgrees"],
        }
    return result


# RUNS[workload](order) is the timed work of one iteration; FACTS[workload]
# turns its output into the checked, order-independent facts.
RUNS = {"structure": _run_structure, "spectrum": _run_spectrum,
        "verify_all": _run_verify_all}
FACTS = {"structure": _facts_structure, "spectrum": _facts_spectrum,
         "verify_all": _facts_verify_all}
