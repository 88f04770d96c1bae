"""Self-tests of the benchmark's own arithmetic, wiring and checks.

    python3 perfbench/selftest.py

The mutation checks spawn one real iteration per workload (about 30 s in
all); everything else runs in a few milliseconds.
"""

import copy
import json
import os
import sys
import unittest

import layers
import run
import tracing


class Statistics(unittest.TestCase):
    def test_median_quartiles_tail(self):
        s = run.summary(range(20, 0, -1))
        self.assertEqual((s["n"], s["median"]), (20, 10.5))
        self.assertEqual((s["q1"], s["q3"]), (5.25, 15.75))
        # p50 is the highest percentile with ten samples beyond it
        self.assertEqual(s["tail"], (50, 10))

    def test_tail_needs_more_than_ten_samples(self):
        self.assertIsNone(run.percentile_rank(10))
        self.assertEqual(run.percentile_rank(11), (9, 1))
        self.assertEqual(run.percentile_rank(100), (90, 90))
        self.assertEqual(run.percentile_rank(1000), (99, 990))

    def test_single_sample(self):
        s = run.summary([2.5])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["tail"]),
                         (2.5, 2.5, 2.5, None))


class Normalization(unittest.TestCase):
    def test_probe_time_removed_then_rescaled(self):
        # 10 probe samples of 2 * PROBE_REF_S each: the core ran at half
        # the reference speed, so 1.2 s raw minus the probes' 1.1 ms is
        # worth half as much at reference speed
        ref = run.PROBE_REF_S
        raw = 1.2
        probe = [10, 10 * 2 * ref, 2 * ref]
        self.assertAlmostEqual(run.normalized(raw, probe),
                               (raw - 20 * ref) / 2)

    def test_no_probe_sample_keeps_raw(self):
        self.assertEqual(run.normalized(0.004, [0, 0.0, 0.0]), 0.004)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [("a", 0.0, 10.0, -1),
                 ("b", 1.0, 3.0, 0),
                 ("c", 2.0, 5.0, 0),   # overlaps b: union is 1..5
                 ("d", 3.0, 4.0, 2)]
        table = tracing.span_table(spans)
        self.assertEqual(table["a"]["self_s"], 6.0)
        self.assertEqual(table["c"]["self_s"], 2.0)
        self.assertEqual(table["d"]["self_s"], 1.0)

    def test_nested_same_name_counts_once(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 9.0, 0),
                 ("a", 2.0, 4.0, 1)]
        table = tracing.span_table(spans)
        self.assertEqual((table["a"]["calls"], table["a"]["s"]), (2, 10.0))
        self.assertEqual(table["a"]["self_s"], 2.0 + 2.0)

    def test_covered_clips_to_parent(self):
        self.assertEqual(tracing.covered([(-1.0, 2.0), (8.0, 12.0)],
                                         0.0, 10.0), 4.0)

    def test_builtin_time_goes_to_caller_module(self):
        pkg = "/x/cgaosc"
        caller = (f"{pkg}/weyl.py", 1, "f")
        stats = {
            caller: (1, 1, 0.5, 0.7, {}),
            ("~", 0, "<built-in method builtins.len>"):
                (2, 2, 0.2, 0.2, {caller: (2, 2, 0.2, 0.2)}),
        }
        self.assertEqual(tracing.module_self_times(stats, pkg),
                         {"weyl": 0.7})


class Guard(unittest.TestCase):
    def record(self, **changes):
        values = {name: 1 for name, *_ in layers.LAYER_METRICS}
        values["funcspace.apply_op.calls"] = 0
        values.update(changes)
        return {"layers": values, "facts": {"x": 1}}

    def test_identical_runs_pass(self):
        a = self.record()
        self.assertEqual(run.guard("structure", a, self.record(),
                                   a["layers"]), [])

    def test_count_drift_fails(self):
        a, b = self.record(), self.record(**{"weyl.mul.calls": 2})
        problems = run.guard("structure", a, b, a["layers"])
        self.assertEqual(len(problems), 1)
        self.assertIn("weyl.mul.calls", problems[0])

    def test_wiring_zero_and_nonzero(self):
        a = self.record(**{"weyl.mul.calls": 0,
                           "funcspace.apply_op.calls": 5})
        problems = run.guard("structure", a, a, a["layers"])
        self.assertEqual(len(problems), 2)


class Wiring(unittest.TestCase):
    """Names imported into other modules are wrapped where looked up."""

    def test_lookup_sites(self):
        sys.path.insert(0, run.SRC)
        import cgaosc  # noqa: F401
        tracer = tracing.Tracer()
        sites = tracing.install(tracer)
        for name, modules in {
                "funcspace.apply_op": ["cgaosc.spectrum"],
                "realizations.osc_generators":
                    ["cgaosc.spectrum", "cgaosc.transform", "cgaosc.cli"],
                "realizations.free_generators":
                    ["cgaosc.onshell", "cgaosc.transform", "cgaosc.cli",
                     "cgaosc.enlarged"],
                "enlarged.check_jacobi": ["cgaosc.cli", "cgaosc.enlarged"],
                "linsolve.solve": ["cgaosc.realizations", "cgaosc.onshell"],
        }.items():
            for module in modules:
                self.assertIn(module, sites[name], name)
        from cgaosc.scalars import HalfInt
        from cgaosc.spectrum import spectrum
        spectrum(HalfInt(1), 1)
        table = tracing.span_table(tracer.spans)
        self.assertEqual(table["spectrum.ladder_state"]["calls"], 2)
        self.assertGreater(table["funcspace.apply_op"]["calls"], 0)
        self.assertGreater(tracer.counters["scalars.mul.calls"], 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_layers(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better)
             for name, unit, better, *_ in layers.LAYER_METRICS])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.STEPS))


class Mutation(unittest.TestCase):
    """A corrupted reference makes every iteration fail."""

    CORRUPT = {"structure": ("7/2", "ecga"), "spectrum": ("states",),
               "verify_all": ("3/2", "vacuumEnergy")}

    def test_corrupted_reference_fails_every_iteration(self):
        with open(run.REFERENCE) as fh:
            reference = json.load(fh)
        for workload, path in self.CORRUPT.items():
            bad = copy.deepcopy(reference)
            node = bad[workload]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = "corrupted"
            _, _, failures, attempted = run.measure(
                workload, seed=0, seconds=0, reference=bad, min_iters=1,
                probes=1)
            self.assertEqual((len(failures), attempted), (1, 1), workload)
            self.assertEqual(len(failures) / attempted, 1.0)
            self.assertIn(path[0], failures[0])


if __name__ == "__main__":
    unittest.main()
