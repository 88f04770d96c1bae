"""cgaosc benchmark driver.

    python3 perfbench/run.py --workload {structure,spectrum,verify_all}
                             --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  Every iteration runs in its
own fresh interpreter (perfbench/child.py), one child at a time, because
a fresh process is what each `cgaosc` run pays for and because the
library caches per process (free_enlarged, basis._tables), so a second
iteration in one process would time cache hits.

--trace 0 measures for S seconds (at least MIN_ITERS iterations) and
reports the end-to-end metrics:
  wall_s       median work time of one iteration, after set-up
  setup_s      median spawn-to-ready time (cgaosc imported, generators
               built), over SETUP_PROBES set-up-only children plus every
               iteration
  peak_rss_mb  median of the children's ru_maxrss
Both times are normalized for the shared host's speed: each child times
a fixed probe snippet every 2 ms, and a phase's time is expressed in
units of the probe's mean time during that phase, times PROBE_REF_S.
The raw times are printed too.  Failed iterations (exception, non-zero
exit, output mismatch against reference.json) are counted in "failed";
fail_frac = failed / attempted.

--trace 1 ignores S and runs three children on the same code: one
untraced, one with spans and counters (the per-layer times and counts)
and one, with the next seed's step order, also under cProfile (module
self times).  trace_overhead compares the first two by normalized work
time; profile_overhead is a raw time ratio, since the speed probe is
off under cProfile.  It checks that every count repeats between the two traced
children, that both give the same checked output, and that each count
layers.py predicts non-zero for the workload is non-zero.

The last stdout line is the JSON result.  Without a cgaosc source tree
next to perfbench/ the run exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from layers import COUNT_METRICS, LAYER_METRICS, ZERO_ON
from workloads import STEPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REFERENCE = os.path.join(HERE, "reference.json")
MIN_ITERS = 2
SETUP_PROBES = 8
CHILD_TIMEOUT = 150
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
# The speed probe's mean time on an uncontended core of the reference host
# (see README.md); it only sets the scale of the normalized times.
PROBE_REF_S = 55e-6


class SetupFailed(Exception):
    """The program could not even be imported and set up."""


def step_orders(workload, seed):
    """The seed's endless sequence of step orders for one workload."""
    rng = random.Random(f"{workload}/{seed}")
    steps = STEPS[workload]
    while True:
        yield rng.sample(steps, len(steps))


def spawn(workload, mode, order):
    """Run one child; returns (record, None) or (None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, workload,
           mode, json.dumps(order)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        return None, f"exit {proc.returncode}: {lines[-1]}"
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    return record, None


def mismatch(facts, expected):
    """Describe how facts differ from the reference, or None."""
    if facts == expected:
        return None
    keys = sorted(set(facts) | set(expected))
    bad = [k for k in keys if facts.get(k) != expected.get(k)]
    return f"output differs from reference at {bad}"


def checked(workload, mode, order, reference):
    """Spawn and check one iteration: (record or None, failure or None)."""
    record, error = spawn(workload, mode, order)
    if error is None:
        error = mismatch(record["facts"], reference[workload])
    return record, error


def setup_probes(workload, count):
    """Spawn set-up-only children; the first one doubles as the check
    that the program can be imported at all."""
    records = []
    for _ in range(count):
        record, error = spawn(workload, "setup", [])
        if error:
            raise SetupFailed(error)
        records.append(record)
    return records


def measure(workload, seed, seconds, reference, min_iters=MIN_ITERS,
            probes=SETUP_PROBES):
    """Closed-loop iterations for `seconds` (at least min_iters).

    Returns (set-up-only records, records of completed iterations,
    failure texts, attempted)."""
    setups = setup_probes(workload, probes)
    orders = step_orders(workload, seed)
    records, failures, attempted = [], [], 0
    start = time.monotonic()
    while True:
        record, error = checked(workload, "run", next(orders), reference)
        attempted += 1
        if record is not None:
            records.append(record)
        if error:
            failures.append(error)
        elapsed = time.monotonic() - start
        if attempted >= min_iters and elapsed * (1 + 1 / attempted) > seconds:
            break
    return setups, records, failures, attempted


def normalized(raw, probe):
    """raw seconds in units of the speed probe's mean time meanwhile,
    scaled by PROBE_REF_S.

    probe = (count, total, fastest) of the probe samples taken during the
    phase.  The probe's own time is taken out first.  A phase too short
    for any probe sample keeps its raw time."""
    count, total, _ = probe
    if not count:
        return raw
    return (raw - total) * PROBE_REF_S * count / total


def percentile_rank(n):
    """Highest whole percentile with at least ten of n samples beyond it,
    as (p, 1-based nearest rank), or None when n <= 10."""
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    return p, math.ceil(p * n / 100)


def summary(values):
    """Median, quartiles and tail percentile of a sample."""
    data = sorted(values)
    q1, _, q3 = (statistics.quantiles(data, n=4) if len(data) > 1
                 else data * 3)
    tail = percentile_rank(len(data))
    return {"n": len(data), "median": statistics.median(data),
            "q1": q1, "q3": q3,
            "tail": None if tail is None else (tail[0], data[tail[1] - 1])}


def print_summary(label, unit, values):
    s = summary(values)
    tail = ("none (n <= 10)" if s["tail"] is None
            else f"p{s['tail'][0]} {s['tail'][1]:.4f}")
    print(f"  {label:<14} median {s['median']:.4f} {unit:<4} "
          f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  tail {tail}  n={s['n']}")
    return s["median"]


def end_to_end(workload, seed, seconds, reference):
    setups, records, failures, attempted = measure(workload, seed, seconds,
                                                   reference)
    phases = [(r["setup_s"], r["probe_setup"]) for r in setups + records]
    works = [(r["work_s"], r["probe_work"]) for r in records]
    samples = {
        "wall_s": [normalized(raw, p) for raw, p in works],
        "setup_s": [normalized(raw, p) for raw, p in phases],
        "peak_rss_mb": [r["rss_mb"] for r in records],
        "raw wall_s": [raw for raw, _ in works],
        "raw setup_s": [raw for raw, _ in phases],
    }
    metrics = {}
    for name, unit in END_TO_END + [("raw wall_s", "s"), ("raw setup_s", "s")]:
        if samples[name]:
            value = print_summary(name, unit, samples[name])
        else:
            value = None
        if not name.startswith("raw"):
            metrics[name] = {"value": value, "unit": unit}
    means = [p[1] / p[0] for _, p in works if p[0]]
    if means:
        print(f"  speed probe: median of the mean during the work "
              f"{statistics.median(means) * 1e6:.1f} us, fastest "
              f"{min(p[2] for _, p in works) * 1e6:.1f} us, reference "
              f"{PROBE_REF_S * 1e6:.1f} us")
    for name in ("wall_s", "raw wall_s"):
        print(f"  {name} samples: "
              + " ".join(f"{v:.4f}" for v in samples[name]))
    print(f"  {'fail_frac':<14} {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.3f}")
    return failures, [], attempted, metrics


def other_order(workload, seed, first):
    """A step order from the next seed that differs from first, when the
    workload has more than one order."""
    order = next(step_orders(workload, seed + 1))
    return order if order != first else first[::-1]


def traced(workload, seed, reference):
    setup_probes(workload, 1)
    order = next(step_orders(workload, seed))
    runs = {}
    failures = []
    for mode, run_order in (("run", order), ("trace", order),
                            ("profile", other_order(workload, seed, order))):
        record, error = checked(workload, mode, run_order, reference)
        runs[mode] = record
        if error:
            failures.append(f"{mode}: {error}")
    if failures:
        return failures, [], len(runs), {
            name: {"value": None, "unit": unit}
            for name, unit, *_ in LAYER_METRICS}
    plain, spans, prof = runs["run"], runs["trace"], runs["profile"]
    values = {name: (prof if name.endswith(".self_s") else spans)
              ["layers"][name] for name, *_ in LAYER_METRICS}
    def work(record):
        return normalized(record["work_s"], record["probe_work"])
    values["trace_overhead"] = work(spans) / work(plain)
    values["profile_overhead"] = prof["work_s"] / plain["work_s"]
    problems = guard(workload, spans, prof, values)
    for name, unit, *_ in LAYER_METRICS:
        base = spans["bases"].get(name)
        print(f"  {name:<36} {values[name]:.6g} {unit}"
              + ("" if base is None else f"  (base {base})"))
    print(f"  raw work time: untraced {plain['work_s']:.4f} s, spans "
          f"{spans['work_s']:.4f} s, spans+cProfile {prof['work_s']:.4f} s")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in LAYER_METRICS}
    return [], problems, len(runs), metrics


def guard(workload, first, second, values):
    """Determinism guard and trace wiring check; returns problems."""
    problems = []
    for name in COUNT_METRICS:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"count {name} differs between seeds: "
                            f"{first['layers'][name]} vs "
                            f"{second['layers'][name]}")
    if first["facts"] != second["facts"]:
        problems.append("checked output differs between seeds")
    for name, _, _, _, nonzero_on in LAYER_METRICS:
        if workload in nonzero_on and not values[name]:
            problems.append(f"{name} reads zero on {workload}")
    for name, workloads in ZERO_ON.items():
        if workload in workloads and values[name]:
            problems.append(f"{name} reads {values[name]} on {workload}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cgaosc", "__init__.py")):
        print(f"perfbench: no cgaosc sources under {SRC}", file=sys.stderr)
        return 1
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    try:
        if args.trace:
            failures, problems, attempted, metrics = traced(
                args.workload, args.seed, reference)
        else:
            failures, problems, attempted, metrics = end_to_end(
                args.workload, args.seed, args.seconds, reference)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    for problem in failures + problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
