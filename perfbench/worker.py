"""One cold measurement of one workload, in its own interpreter.

Started by run.py, never imported. The set-up clock starts before numpy and
weyldelta are imported, so setup_s includes the import. Modes:

  setup   set up, report setup_s and exit
  verify  set up, then run the checks with tracing off
  traced  wrap the layer entry points, then set up and verify; also writes
          the spans to --spans

In setup and verify mode a SpeedProbe samples the machine while the worker
runs; setup_s and verify_s are the phase times at the reference speed, and
setup_wall_s and verify_wall_s the plain wall clock. The traced mode runs
without the probe and reports wall clock for both.

Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

REFERENCE_LOOP = 40000  # iterations of the probe's pure-Python loop
REFERENCE_S = 2.0e-3  # about the loop's time on the machine in perfbench/README.md, uncontended
PROBE_PERIOD_S = 0.1


def reference_loop():
    s = 0
    for i in range(REFERENCE_LOOP):
        s += i * i
    return s


class SpeedProbe:
    """Samples how fast the machine runs fixed code, while the worker runs.

    On a shared host the same work takes up to 2x longer in phases that last
    seconds, and process CPU time moves with wall time. Every PROBE_PERIOD_S
    a SIGALRM handler times reference_loop. A Python handler runs between
    bytecodes of the main thread, so it never interrupts a C call of numpy.
    reference_seconds() converts a stretch of the run into the time it would
    have taken at the reference speed: the time before each probe is scaled
    by REFERENCE_S over the local probe time (a median of five probes), and
    the probes' own time is left out.
    """

    def __init__(self):
        self.probes = []  # (start, end) of each run of reference_loop

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.probes.append((start, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)  # re-armed here, so ticks never nest

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.01)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def local_s(self, k):
        return statistics.median(end - start for start, end in self.probes[max(0, k - 2):k + 3])

    def reference_seconds(self, t0, t1):
        """(time at the reference speed, wall time less the probes) of [t0, t1]."""
        if not self.probes:
            raise RuntimeError("the speed probe took no sample")
        ref = wall = 0.0
        prev = t0
        for k, (start, end) in enumerate(self.probes):
            if end <= t0:
                continue
            if start >= t1:
                break
            span = max(0.0, start - prev)
            ref += span * REFERENCE_S / self.local_s(k)
            wall += span
            prev = max(prev, end)
        # the stretch after the last probe in [t0, t1] runs at the speed of probe k,
        # the first one after t1 or else the last one taken
        span = max(0.0, t1 - prev)
        ref += span * REFERENCE_S / self.local_s(k)
        wall += span
        return ref, wall


def openblas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "verify", "traced"), required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    probe = None
    if args.mode != "traced":
        probe = SpeedProbe()
        probe.start()

    import workloads

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    setup, verify, seed_perturbs = workloads.WORKLOADS[args.workload]
    ctx = setup(args.seed)
    t_setup = time.perf_counter()
    out = {}
    if args.mode == "setup":
        probe.stop()
        out["setup_s"], out["setup_wall_s"] = probe.reference_seconds(T0, t_setup)
    else:
        log = workloads.CheckLog()
        verify(ctx, args.seed, log)
        t_verify = time.perf_counter()
        if probe is None:
            out["setup_s"] = out["setup_wall_s"] = t_setup - T0
            out["verify_s"] = out["verify_wall_s"] = t_verify - t_setup
        else:
            probe.stop()
            out["setup_s"], out["setup_wall_s"] = probe.reference_seconds(T0, t_setup)
            out["verify_s"], out["verify_wall_s"] = probe.reference_seconds(t_setup, t_verify)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["checks"] = log.records
        out["notes"] = log.notes
        out["seed_perturbs"] = seed_perturbs
        if tracer is not None:
            out["layers"], out["self_s"] = tracer.layer_metrics()
            tracer.write(args.spans)
    if probe is not None:
        out["probes"] = len(probe.probes)
        out["probe_median_s"] = statistics.median(end - start for start, end in probe.probes)
    import numpy

    out["numpy"] = numpy.__version__
    out["openblas_threads"] = openblas_threads()
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
