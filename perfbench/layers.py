"""The per-layer metrics of the traced run and what each should move.

Each entry is (name, unit, better, moves, nonzero_on):
  moves       the end-to-end metrics ("metric/workload") that a change
              to this layer quantity is predicted to move;
  nonzero_on  the workloads on which the traced run must read a non-zero
              value (the trace wiring check).
ZERO_ON lists the quantities that must read exactly zero on a workload,
because that workload never reaches the layer.

BENCHMARK.json's "per_layer" list mirrors (name, unit, better) of this
table; selftest.py checks that the two agree.
"""

S, V, SP = "structure", "verify_all", "spectrum"
ALL = (S, SP, V)


def _w(*workloads):
    return tuple(f"wall_s/{w}" for w in workloads)


LAYER_METRICS = [
    # cli: one span per verify suite
    ("cli.verify_closure.s", "s", "lower", _w(V), (V,)),
    ("cli.verify_jacobi.s", "s", "lower", _w(V), (V,)),
    ("cli.verify_duality.s", "s", "lower", _w(V), (V,)),
    ("cli.verify_onshell.s", "s", "lower", _w(V), (V,)),
    ("cli.verify_transform.s", "s", "lower", _w(V), (V,)),
    ("cli.verify_spectrum.s", "s", "lower", _w(V), (V,)),
    # enlarged: closure tables and Jacobi
    ("enlarged.closure_tables.s", "s", "lower", _w(S), (S, V)),
    ("enlarged.closure_tables.calls", "count", "lower", _w(S), (S, V)),
    ("enlarged.check_jacobi.s", "s", "lower", _w(V), (S, V)),
    ("enlarged.check_jacobi.calls", "count", "lower", _w(V), (S, V)),
    ("enlarged.jacobi_triples", "count", "higher", _w(V), (S, V)),
    ("enlarged.jacobi_coverage", "ratio", "higher", _w(V), (S, V)),
    ("enlarged.duality_report.s", "s", "lower", _w(V), (V,)),
    # realizations: generator factories and span re-expansion
    ("realizations.expand.calls", "count", "lower", _w(S), (S, V)),
    ("realizations.expand.s", "s", "lower", _w(S), (S, V)),
    ("realizations.osc_generators.calls", "count", "lower", _w(SP),
     (SP, V)),
    ("realizations.osc_generators.s", "s", "lower", _w(SP), (SP, V)),
    ("realizations.free_generators.calls", "count", "lower", _w(S, V),
     (S, V)),
    # weyl: operator products and brackets
    ("weyl.mul.calls", "count", "lower", _w(S, V, SP), ALL),
    ("weyl.mul.s", "s", "lower", _w(S, V, SP), ALL),
    ("weyl.mul.terms_out", "count", "lower", _w(S, V, SP), ALL),
    ("weyl.commutator.calls", "count", "lower", _w(S, V), (S, V)),
    ("weyl.conjugate.calls", "count", "lower", _w(SP, V), (SP, V)),
    ("weyl.self_s", "s", "lower", _w(S, V, SP), ALL),
    # scalars: CScalar ring ops and the Fraction arithmetic beneath them
    ("scalars.mul.calls", "count", "lower", _w(S, SP), ALL),
    ("scalars.add.calls", "count", "lower", _w(S, SP), ALL),
    ("scalars.self_s", "s", "lower", _w(S, SP), ALL),
    ("fractions.self_s", "s", "lower", _w(S, SP), ALL),
    # linsolve: SpanSolver
    ("linsolve.solve.calls", "count", "lower", _w(S), (S, V)),
    ("linsolve.solve.s", "s", "lower", _w(S), (S, V)),
    ("linsolve.rank.calls", "count", "lower", _w(V), (V,)),
    ("linsolve.self_s", "s", "lower", _w(S), (S, V)),
    # funcspace: apply_op
    ("funcspace.apply_op.calls", "count", "lower", _w(SP), (SP, V)),
    ("funcspace.apply_op.s", "s", "lower", _w(SP), (SP, V)),
    ("funcspace.apply_op.terms_out", "count", "lower", _w(SP), (SP, V)),
    ("funcspace.self_s", "s", "lower", _w(SP), (SP, V)),
    # spectrum: ladder states and the matrix oracle
    ("spectrum.ladder_state.calls", "count", "lower", _w(SP), (SP, V)),
    ("spectrum.hamiltonian.calls", "count", "lower", _w(SP), (SP, V)),
    ("spectrum.vacuum.calls", "count", "lower", _w(SP), (SP, V)),
    ("spectrum.matrix_oracle.s", "s", "lower", _w(SP), (SP, V)),
    ("spectrum.apply_per_state", "ratio", "lower", _w(SP), (SP, V)),
    # onshell / transform
    ("onshell.certify_onshell.s", "s", "lower", _w(V), (V,)),
    ("onshell.solve_omega1.s", "s", "lower", _w(V), (V,)),
    ("onshell.omega0_osc.calls", "count", "lower", _w(V, SP), (SP, V)),
    ("transform.certify_transform.s", "s", "lower", _w(V), (V,)),
    # the cost of tracing itself: traced / untraced wall_s, for the run
    # with spans and counters and for the one also under cProfile
    ("trace_overhead", "ratio", "lower", (), ALL),
    ("profile_overhead", "ratio", "lower", (), ALL),
]

ZERO_ON = {"funcspace.apply_op.calls": (S,)}

# Count metrics that two traced runs with different seeds must repeat
# exactly (the determinism guard).
COUNT_METRICS = [name for name, unit, *_ in LAYER_METRICS
                 if unit == "count"]
