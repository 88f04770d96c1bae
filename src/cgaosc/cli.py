"""Command-line front end.

Exit codes: 0 all checks pass / query succeeded, 1 a verification
failed (failure report as JSON on stdout), 2 usage error (bad arguments,
or an InputError such as an invalid ell or an unavailable normalization).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .enlarged import (build_enlarged, check_jacobi, closure_tables,
                       duality_report, expected_dims, free_enlarged)
from .errors import CgaError, InputError
from .jsonio import gaussfunc_json, gens_json, weylop_json
from .latexout import func_latex, op_latex, op_plain
from .onshell import (certify_onshell, cross_relations, offshell_centralizer,
                      omega0_free, omega0_osc, omega1_free, omega1_osc,
                      solve_omega1)
from .realizations import (free_generators, label_sort_key, label_str,
                           osc_generators)
from .scalars import HalfInt
from .spectrum import (harmonic_reduction, hamiltonian,
                       hamiltonian_m_form_expected, ladder_relations,
                       matrix_oracle, spectrum, to_m_form, ladder_state,
                       vacuum_energy)
from .transform import certify_transform

NORMS = {"s5": "section5", "s6": "section6", "s7": "section7"}


def parse_ell(text: str) -> HalfInt:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "ell must be half-odd-integer (like 3/2)")
    if q.denominator != 2:
        raise argparse.ArgumentTypeError("ell must be half-odd-integer")
    return HalfInt(q.numerator)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cgaosc",
        description="Exact conformal Galilei algebra realizations, "
                    "invariant operators and oscillator spectra.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, chart=False, norm=None, fmt=True):
        sp.add_argument("--ell", type=parse_ell, required=True,
                        help="half-odd-integer, e.g. 3/2")
        if chart:
            sp.add_argument("--chart", choices=["free", "osc"],
                            default="free")
        if norm:
            sp.add_argument("--normalization", choices=norm,
                            default=norm[-1])
        if fmt:
            sp.add_argument("--format", choices=["json", "latex", "text"],
                            default="json")

    sp = sub.add_parser("gens", help="dump the realized generators")
    common(sp, chart=True, norm=["s5", "s7"])

    sp = sub.add_parser("hamiltonian", help="the oscillator Hamiltonian")
    common(sp, norm=["s6", "s7"])
    sp.add_argument("--m-form", action="store_true",
                    help="display with c = -(2l+1)m substituted")

    sp = sub.add_parser("spectrum", help="ladder-state energies")
    common(sp, norm=["s6", "s7"], fmt=False)
    sp.add_argument("--max-total", type=int, default=3)

    sp = sub.add_parser("eigenstate", help="one ladder eigenstate")
    common(sp, norm=["s6", "s7"], fmt=False)
    sp.add_argument("--n", required=True,
                    help="comma-separated multi-index, e.g. 1,0")

    sp = sub.add_parser("matrix", help="triangular matrix oracle")
    common(sp, fmt=False)
    sp.add_argument("--max-degree", type=int, default=2)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suite", choices=["closure", "jacobi", "duality",
                                      "onshell", "transform", "spectrum",
                                      "all"])
    common(sp, chart=True, norm=["s5", "s6", "s7"], fmt=False)
    sp.add_argument("--max-total", type=int, default=3)
    sp.add_argument("--max-degree", type=int, default=3)
    return p


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _gens(ell: HalfInt, chart: str, normalization: str):
    if chart == "free":
        return free_generators(ell)
    return osc_generators(ell, normalization)


def cmd_gens(args) -> int:
    gens = _gens(args.ell, args.chart, NORMS[args.normalization])
    if args.format == "json":
        _emit(gens_json(gens))
        return 0
    render = op_latex if args.format == "latex" else op_plain
    for lb in sorted(gens, key=label_sort_key):
        print(f"{label_str(lb)} = {render(gens[lb])}")
    return 0


def cmd_hamiltonian(args) -> int:
    norm = NORMS[args.normalization]
    h = hamiltonian(args.ell, norm)
    sym = "c"
    if args.m_form:
        h = to_m_form(h, args.ell)
        sym = "m"
    if args.format == "json":
        _emit({"normalization": norm, "symbol": sym,
               "operator": weylop_json(h)})
    elif args.format == "latex":
        print(op_latex(h, sym=sym))
    else:
        print(op_plain(h, sym=sym))
    return 0


def cmd_spectrum(args) -> int:
    recs = spectrum(args.ell, args.max_total, NORMS[args.normalization])
    _emit([r.to_json() for r in recs])
    return 0


def cmd_eigenstate(args) -> int:
    n = [int(x) for x in args.n.split(",")]
    rec = ladder_state(args.ell, NORMS[args.normalization], n)
    out = rec.to_json()
    out["state"] = gaussfunc_json(rec.state)
    out["latex"] = func_latex(rec.state)
    _emit(out)
    return 0


def cmd_matrix(args) -> int:
    _emit(matrix_oracle(args.ell, args.max_degree).to_json())
    return 0


def verify_closure(args) -> dict:
    ell = args.ell
    basis = free_enlarged(ell)
    closure_tables(basis)
    ev, od, tot = expected_dims(ell)
    if (len(basis.even), len(basis.odd)) != (ev, od):
        raise CgaError(f"dimension mismatch: {len(basis.even)}, "
                       f"{len(basis.odd)} expected {ev}, {od}")
    return {"evenDim": ev, "oddDim": od, "ecgaDim": tot}


def verify_jacobi(args) -> dict:
    ell = args.ell
    plain, graded = closure_tables(free_enlarged(ell))
    return {"plainTriples": check_jacobi(plain, graded=False),
            "gradedTriples": check_jacobi(graded, graded=True)}


def verify_duality(args) -> dict:
    ell = args.ell
    basis = free_enlarged(ell)
    return duality_report(basis).to_json()


def verify_onshell(args) -> dict:
    ell = args.ell
    if args.chart == "free":
        om1, om0 = omega1_free(ell), omega0_free(ell)
    else:
        norm = NORMS[args.normalization]
        if norm == "section6":
            norm = "section5"
        gens = osc_generators(ell, norm)
        om0 = omega0_osc(ell, norm)
        om1 = omega1_osc(ell, norm)
    basis = (free_enlarged(ell) if args.chart == "free"
             else build_enlarged(gens, ell))
    cert1 = certify_onshell(om1, basis.realized)
    cert0 = certify_onshell(om0, basis.realized)
    cross_relations(om0, om1)
    out = {"chart": args.chart,
           "degree1": cert1.to_json(),
           "degree0": cert0.to_json(),
           "centralizerDegree1": [
               label_str(lb)
               for lb in offshell_centralizer(om1, basis.realized)]}
    if args.chart == "free":
        solved, elem = solve_omega1(ell)
        if solved != om1:
            raise CgaError("solver disagrees with the printed operator")
        out["solverMatches"] = True
    return out


def verify_transform(args) -> dict:
    norm = NORMS[args.normalization]
    if norm == "section6":
        norm = "section5"
    return certify_transform(args.ell, norm).to_json()


def verify_spectrum(args) -> dict:
    ell = args.ell
    norm = NORMS[args.normalization]
    if norm == "section5":
        norm = "section7"
    if min(args.max_total, args.max_degree) < 0:
        raise ValueError("--max-total and --max-degree must be "
                         "non-negative")
    rel = ladder_relations(ell, norm)
    # one ladder up to the larger bound serves both counts below
    recs = spectrum(ell, max(args.max_total, args.max_degree), norm)
    out = {"relations": rel.to_json(),
           "states": sum(1 for r in recs if sum(r.n) <= args.max_total),
           "vacuumEnergy": str(vacuum_energy(ell, norm))}
    if norm == "section7":
        mo = matrix_oracle(ell, args.max_degree)
        ladder = sorted(r.energy for r in recs
                        if sum(r.n) <= args.max_degree)
        if ladder != sorted(mo.eigenvalues):
            raise CgaError("ladder and matrix spectra disagree")
        out["matrixAgrees"] = True
        out["reductionConstant"] = str(harmonic_reduction(ell).constant)
        if to_m_form(hamiltonian(ell, norm), ell) \
                != hamiltonian_m_form_expected(ell):
            raise CgaError("m-form Hamiltonian mismatch")
    return out


def cmd_verify(args) -> int:
    suites = {
        "closure": verify_closure,
        "jacobi": verify_jacobi,
        "duality": verify_duality,
        "onshell": verify_onshell,
        "transform": verify_transform,
        "spectrum": verify_spectrum,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    report = {"ell": str(args.ell), "status": "pass", "suites": {}}
    for name in names:
        try:
            report["suites"][name] = suites[name](args)
        except InputError:
            raise
        except CgaError as exc:
            report["status"] = "fail"
            report["suites"][name] = {"error": type(exc).__name__,
                                      "detail": str(exc)}
            _emit(report)
            return 1
    _emit(report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gens": cmd_gens,
        "hamiltonian": cmd_hamiltonian,
        "spectrum": cmd_spectrum,
        "eigenstate": cmd_eigenstate,
        "matrix": cmd_matrix,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # InputError is a ValueError too
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except CgaError as exc:
        _emit({"status": "fail", "error": type(exc).__name__,
               "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
