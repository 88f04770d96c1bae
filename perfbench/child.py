"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR WORKLOAD MODE ORDER_JSON

MODE is "setup" (import and build the generators, then stop), "run"
(also time the work and compute the checked facts), "trace" (as run,
with spans and counters over the work) or "profile" (as trace, under
cProfile as well).  The last stdout line is a JSON object; "ready" is
the CLOCK_MONOTONIC time at which set-up ended, which the parent
subtracts from its own spawn time.

Except in "profile" mode, a speed probe times a fixed snippet every
PROBE_INTERVAL_S of wall time, during set-up and during the work, and
reports (count, total seconds, fastest) per phase, so the parent can
tell how fast the shared core ran meanwhile.  (Under cProfile its
Fraction work would count as the library's.)
"""

import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.002


def probe_snippet():
    """The fixed work the speed probe times: about 0.1 ms of the same
    Fraction and dict traffic the library does."""
    total, seen = Fraction(0), {}
    for i in range(1, 25):
        total += Fraction(i, i + 1)
        seen[i] = total
    return total


class SpeedProbe:
    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_snippet()
        self.samples.append(time.perf_counter() - start)

    def phase(self):
        """(count, total, fastest) of the samples since the last call."""
        samples, self.samples = self.samples, []
        return [len(samples), sum(samples), min(samples, default=0.0)]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    src, workload, mode, order = argv[1], argv[2], argv[3], json.loads(argv[4])
    probe = SpeedProbe() if mode != "profile" else None
    try:
        return measure(src, workload, mode, order, probe)
    finally:
        if probe is not None:
            probe.stop()


def measure(src, workload, mode, order, probe):
    sys.path.insert(0, src)
    import cgaosc
    package_dir = os.path.dirname(os.path.abspath(cgaosc.__file__))
    if package_dir != os.path.join(os.path.abspath(src), "cgaosc"):
        raise RuntimeError(f"imported cgaosc from {package_dir}, not {src}")
    import workloads
    workloads.setup(workload)
    result = {"ready": time.monotonic()}
    if probe is not None:
        result["probe_setup"] = probe.phase()
    if mode == "setup":
        return result
    if mode in ("trace", "profile"):
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if mode == "profile":
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    out = workloads.RUNS[workload](order)
    result["work_s"] = time.perf_counter() - start
    if mode == "profile":
        profiler.disable()
    if probe is not None:
        probe.stop()
        result["probe_work"] = probe.phase()
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["rss_mb"] = rusage.ru_maxrss / 1024
    result["facts"] = workloads.FACTS[workload](out)
    if mode in ("trace", "profile"):
        self_s = ({} if mode == "trace" else tracing.module_self_times(
            pstats.Stats(profiler).stats, package_dir))
        result["layers"], result["bases"] = tracing.layer_values(
            tracing.span_table(tracer.spans), tracer.counters, self_s)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
