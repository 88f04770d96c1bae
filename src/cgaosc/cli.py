"""Command-line front end.

Exit codes: 0 all checks pass / query succeeded, 1 a verification
failed (failure report as JSON on stdout), 2 usage error (bad arguments,
or an InputError such as an invalid ell or an unavailable normalization),
141 the reader closed stdout (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from .enlarged import (check_jacobi, closure_tables, duality_report,
                       expected_dims, free_enlarged)
from .errors import CgaError, InputError, Mismatch
from .jsonio import (certificate_json, gaussfunc_json, gens_json,
                     matrix_json, record_json, weylop_json)
from .latexout import func_latex, op_latex, op_plain
from .onshell import (certify_onshell, cross_relations, omega0_free,
                      omega0_osc, omega1_free, omega1_osc, solve_omega1)
from .realizations import (convention, free_generators, free_span,
                           label_sort_key, label_str, osc_generators)
from .scalars import HalfInt
from .spectrum import (Ladder, harmonic_reduction, hamiltonian,
                       hamiltonian_m_form_expected, ladder_relations,
                       matrix_oracle, spectrum, to_m_form, ladder_state,
                       vacuum_energy)
from .transform import certify_transform

NORMS = {"s5": "section5", "s6": "section6", "s7": "section7"}
# s5 names the ell=3/2 realization, which has no spectrum convention of
# its own: verify spectrum runs the general section7 family for it
SPECTRUM_NORMS = dict(NORMS, s5="section7")


def parse_ell(text: str) -> HalfInt:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "ell must be half-odd-integer (like 3/2)")
    if q.denominator != 2:
        raise argparse.ArgumentTypeError("ell must be half-odd-integer")
    return HalfInt(q.numerator)


def non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return n


def multi_index(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a comma-separated multi-index of ints, like 1,0")


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
    sp.add_argument("--max-total", type=non_negative, default=3)

    sp = sub.add_parser("eigenstate", help="one ladder eigenstate")
    common(sp, norm=["s6", "s7"], fmt=False)
    sp.add_argument("--n", type=multi_index, required=True,
                    help="comma-separated multi-index, e.g. 1,0")

    sp = sub.add_parser("matrix", help="triangular matrix oracle")
    common(sp, fmt=False)
    sp.add_argument("--max-degree", type=non_negative, default=2)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suite", choices=["closure", "jacobi", "duality",
                                      "onshell", "transform", "spectrum",
                                      "all"])
    common(sp, chart=True, norm=["s5", "s6", "s7"], fmt=False)
    sp.add_argument("--max-total", type=non_negative, default=3)
    sp.add_argument("--max-degree", type=non_negative, default=3)
    return p


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def cmd_gens(args) -> int:
    gens = (free_generators(args.ell) if args.chart == "free"
            else osc_generators(args.ell, NORMS[args.normalization]))
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
    _emit([record_json(r) for r in recs])
    return 0


def cmd_eigenstate(args) -> int:
    ladder = Ladder(args.ell, NORMS[args.normalization])
    rec = ladder_state(ladder, args.n)
    state = ladder.state(rec.n)
    out = record_json(rec)
    out["state"] = gaussfunc_json(state)
    out["latex"] = func_latex(state)
    _emit(out)
    return 0


def cmd_matrix(args) -> int:
    _emit(matrix_json(matrix_oracle(args.ell, args.max_degree)))
    return 0


def verify_closure(args) -> dict:
    ell = args.ell
    basis = free_enlarged(ell)
    closure_tables(basis)
    even, odd = basis.dims
    ev, od, tot = expected_dims(ell)
    if (even, odd) != (ev, od):
        raise CgaError(f"dimension mismatch: {even}, {odd} "
                       f"expected {ev}, {od}")
    return {"evenDim": even, "oddDim": odd, "ecgaDim": even + odd}


def verify_jacobi(args) -> dict:
    ell = args.ell
    plain, graded = closure_tables(free_enlarged(ell))
    return {"plainTriples": check_jacobi(plain, graded=False),
            "gradedTriples": check_jacobi(graded, graded=True)}


def verify_duality(args) -> dict:
    basis = free_enlarged(args.ell)
    sp, osp = duality_report(basis)
    even, odd = basis.dims
    # duality_report raises when a sector is open, so both read true
    return {"ell": {"twice": args.ell.twice}, "evenDim": even,
            "oddDim": odd, "ecgaDim": even + odd, "spDim": sp,
            "ospDim": osp, "spClosed": True, "ospClosed": True}


def verify_onshell(args) -> dict:
    ell = args.ell
    if args.chart == "free":
        gens = free_span(ell).gens
        om1, om0 = omega1_free(ell), omega0_free(ell)
    else:
        norm = convention(ell, NORMS[args.normalization]).realization
        gens = osc_generators(ell, norm)
        om1, om0 = omega1_osc(ell, norm), omega0_osc(ell, norm)
    cert1 = certify_onshell(om1, gens)
    cert0 = certify_onshell(om0, gens)
    cross_relations(om0, om1)
    out = {"chart": args.chart,
           "degree1": certificate_json(cert1),
           "degree0": certificate_json(cert0),
           "centralizerDegree1": [label_str(lb) for lb, f
                                  in cert1.items() if f is None]}
    if args.chart == "free":
        solved, elem = solve_omega1(ell)
        if solved != om1:
            raise CgaError("solver disagrees with the printed operator")
        out["solverMatches"] = True
    return out


def verify_transform(args) -> dict:
    norm = convention(args.ell, NORMS[args.normalization]).realization
    matched, pairs = certify_transform(args.ell, norm)
    return {"ell": {"twice": args.ell.twice}, "normalization": norm,
            "generatorsMatched": [label_str(lb) for lb in matched],
            "homomorphismPairs": pairs}


def verify_spectrum(args) -> dict:
    ell = args.ell
    norm = SPECTRUM_NORMS[args.normalization]
    split_ok, lows = ladder_relations(ell, norm)
    relations = {"ell": {"twice": ell.twice}, "normalization": norm,
                 "splitOk": split_ok,
                 "loweringCommutatorsZero": {
                     f"{HalfInt(i)},{HalfInt(j)}": v
                     for (i, j), v in sorted(lows.items())}}
    # one ladder up to the larger bound serves both counts below
    recs = spectrum(ell, max(args.max_total, args.max_degree), norm)
    out = {"relations": relations,
           "states": sum(1 for r in recs if sum(r.n) <= args.max_total),
           "vacuumEnergy": str(vacuum_energy(ell, norm))}
    if norm == "section7":
        ladder = Counter(r.energy for r in recs
                         if sum(r.n) <= args.max_degree)
        oracle = Counter(matrix_oracle(ell, args.max_degree).eigenvalues)
        if ladder != oracle:
            e = min(e for e in ladder | oracle if ladder[e] != oracle[e])
            raise CgaError(f"ladder and matrix spectra disagree at energy "
                           f"{e}: multiplicity {ladder[e]} on the ladder, "
                           f"{oracle[e]} in the matrix")
        out["matrixAgrees"] = True
        constant, _ = harmonic_reduction(ell)
        out["reductionConstant"] = str(constant)
        resid = (to_m_form(hamiltonian(ell, norm), ell)
                 - hamiltonian_m_form_expected(ell))
        if not resid.is_zero():
            raise Mismatch("m-form Hamiltonian", resid)
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
    # refuse the flag before any suite runs, whichever suites read it
    convention(args.ell, NORMS[args.normalization])
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--ell -1/2" or "--n -1,0" would read as an option: keep the value
    # with its flag at every occurrence, as argparse lets the last one win
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--ell", "--n") and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
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
        try:
            code = handlers[args.command](args)
        except ValueError as exc:  # InputError is a ValueError too
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
        except CgaError as exc:
            _emit({"status": "fail", "error": type(exc).__name__,
                   "detail": str(exc)})
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: exit quietly with 128 + SIGPIPE, and point
        # stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
