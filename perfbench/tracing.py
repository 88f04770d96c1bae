"""Outside-in tracing of the cgaosc layers.

Spans are recorded from the benchmark's side: each entry point listed in
FUNCTIONS/METHODS is replaced by a timing wrapper wherever it is looked
up, so the library itself carries no tracing code.  The scalar layer is
too hot for spans: CScalar's ring ops are only counted (COUNTED).  Every
module's self time comes from cProfile, in a separate traced child.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) of the traced free functions.
FUNCTIONS = [
    ("cgaosc.cli", "verify_closure", "cli.verify_closure"),
    ("cgaosc.cli", "verify_jacobi", "cli.verify_jacobi"),
    ("cgaosc.cli", "verify_duality", "cli.verify_duality"),
    ("cgaosc.cli", "verify_onshell", "cli.verify_onshell"),
    ("cgaosc.cli", "verify_transform", "cli.verify_transform"),
    ("cgaosc.cli", "verify_spectrum", "cli.verify_spectrum"),
    ("cgaosc.enlarged", "closure_tables", "enlarged.closure_tables"),
    ("cgaosc.enlarged", "check_jacobi", "enlarged.check_jacobi"),
    ("cgaosc.enlarged", "duality_report", "enlarged.duality_report"),
    ("cgaosc.realizations", "osc_generators", "realizations.osc_generators"),
    ("cgaosc.realizations", "free_generators",
     "realizations.free_generators"),
    ("cgaosc.weyl", "conjugate", "weyl.conjugate"),
    ("cgaosc.funcspace", "apply_op", "funcspace.apply_op"),
    ("cgaosc.spectrum", "ladder_state", "spectrum.ladder_state"),
    ("cgaosc.spectrum", "hamiltonian", "spectrum.hamiltonian"),
    ("cgaosc.spectrum", "vacuum", "spectrum.vacuum"),
    ("cgaosc.spectrum", "matrix_oracle", "spectrum.matrix_oracle"),
    ("cgaosc.onshell", "certify_onshell", "onshell.certify_onshell"),
    ("cgaosc.onshell", "solve_omega1", "onshell.solve_omega1"),
    ("cgaosc.onshell", "omega0_osc", "onshell.omega0_osc"),
    ("cgaosc.transform", "certify_transform", "transform.certify_transform"),
]

# (module, class, method, span name) of the traced methods.  Patching the
# class reaches every module that imported it.
METHODS = [
    ("cgaosc.weyl", "WeylOp", "__mul__", "weyl.mul"),
    ("cgaosc.weyl", "WeylOp", "commutator", "weyl.commutator"),
    ("cgaosc.realizations", "SpanBasis", "expand", "realizations.expand"),
    ("cgaosc.linsolve", "SpanSolver", "solve", "linsolve.solve"),
    ("cgaosc.linsolve", "SpanSolver", "rank", "linsolve.rank"),
]

# (module, class, method, counter) of the methods that are only counted:
# too hot for spans.  __mul__ also serves __rmul__, __add__ __radd__.
COUNTED = [
    ("cgaosc.scalars", "CScalar", "__mul__", "scalars.mul.calls"),
    ("cgaosc.scalars", "CScalar", "__add__", "scalars.add.calls"),
]
COUNTED_NAMES = {name for *_, name in COUNTED}


def _terms_out(name):
    def count(counters, args, result):
        counters[name] += len(getattr(result, "terms", ()))
    return count


def _jacobi(counters, args, result):
    counters["enlarged.jacobi_triples"] += result
    counters["enlarged.jacobi_cube"] += len(args[0].labels) ** 3


# Counters that need the arguments or the result of a traced call.
EXTRA = {
    "weyl.mul": _terms_out("weyl.mul.terms_out"),
    "funcspace.apply_op": _terms_out("funcspace.apply_op.terms_out"),
    "enlarged.check_jacobi": _jacobi,
}


class Tracer:
    """In-memory span recorder: spans[i] = (name, start, end, parent)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def span(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        extra = EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if extra is not None:
                extra(counters, args, result)
            return result
        return traced

    def count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted


def _replace(namespaces, original, wrapper):
    """Point every name bound to original in the (owner, namespace)
    pairs at wrapper; returns the names of the owners changed."""
    owners = []
    for owner, ns in namespaces:
        for key, value in list(ns.items()):
            if value is original:
                setattr(owner, key, wrapper)
                owners.append(owner.__name__)
    return owners


def install(tracer):
    """Wrap every traced entry point wherever cgaosc looks it up.

    Functions are replaced in every cgaosc module that binds them, and
    methods in their class (which every importer shares).  Returns
    {span or counter name: names of the modules that now reach the
    wrapper}."""
    for modname, *_ in FUNCTIONS + METHODS + COUNTED:
        importlib.import_module(modname)
    modules = [(mod, vars(mod)) for name, mod in sorted(sys.modules.items())
               if name == "cgaosc" or name.startswith("cgaosc.")]
    sites = {}
    for modname, attr, name in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        sites[name] = _replace(modules, original,
                               tracer.span(name, original))
    for modname, cls_name, attr, name in METHODS + COUNTED:
        cls = getattr(sys.modules[modname], cls_name)
        original = vars(cls)[attr]
        wrap = tracer.count if name in COUNTED_NAMES else tracer.span
        _replace([(cls, vars(cls))], original, wrap(name, original))
        sites[name] = [mod.__name__ for mod, ns in modules
                       if ns.get(cls_name) is cls]
    return sites


def covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_table(spans):
    """Per span name: calls, inclusive seconds of the outermost spans of
    that name (nested same-name spans are not counted twice), and self
    seconds (span minus the part its children cover)."""
    children = defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        kids = [(spans[k][1], spans[k][2]) for k in children[idx]]
        row["self_s"] += (end - start) - covered(kids, start, end)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return dict(table)


def layer_values(table, counters, self_s):
    """Every per-layer metric of layers.py, from the span table, the
    counters and the profiler's module self times (empty when the run was
    not profiled).  trace_overhead is left at 0: it needs the untraced
    run.  Also returns the bases of the two ratios."""
    from layers import LAYER_METRICS
    values = {}
    for name, *_ in LAYER_METRICS:
        prefix, _, field = name.rpartition(".")
        if name in counters:
            values[name] = counters[name]
        elif field == "self_s":
            values[name] = self_s.get(prefix, 0.0)
        elif field in ("calls", "s"):
            values[name] = table.get(prefix, {}).get(field, 0)
        else:
            values[name] = 0
    cube = counters["enlarged.jacobi_cube"]
    states = values["spectrum.ladder_state.calls"]
    values["enlarged.jacobi_coverage"] = (
        values["enlarged.jacobi_triples"] / cube if cube else 0.0)
    values["spectrum.apply_per_state"] = (
        values["funcspace.apply_op.calls"] / states if states else 0.0)
    return values, {"enlarged.jacobi_coverage": cube,
                    "spectrum.apply_per_state": states}


def module_of(filename, package_dir, fractions_file):
    """Layer name for a cProfile filename: the cgaosc module stem,
    "fractions", "other", or None for a built-in ('~')."""
    if filename == "~":
        return None
    if filename == fractions_file:
        return "fractions"
    if os.path.dirname(filename) == package_dir:
        return os.path.splitext(os.path.basename(filename))[0]
    return "other"


def module_self_times(stats, package_dir):
    """Per-module self seconds from pstats data.

    A built-in's time is charged to the module of the function that
    called it, so a module's self time includes the dict, tuple and
    integer work it does inline."""
    import fractions
    self_s = defaultdict(float)
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        mod = module_of(filename, package_dir, fractions.__file__)
        if mod is not None:
            self_s[mod] += tt
            continue
        if not callers:
            self_s["other"] += tt
        for (cfile, _, _), edge in callers.items():
            cmod = module_of(cfile, package_dir, fractions.__file__)
            self_s[cmod or "other"] += edge[2]
    return dict(self_s)
