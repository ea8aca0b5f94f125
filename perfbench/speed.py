"""Reference CPU speed, probed next to every measurement.

The benchmark machine's CPU slows by up to 2x for periods from a fraction of a
second to half a minute, when other tenants load the host.  A short fixed
probe of interpreter work (dict updates on tuple keys, Fraction arithmetic:
the same kinds of work as the program) slows by about the same factor, so
each measured time is scaled by ``REFERENCE_S / probe time``, the mean of
the probes run just before and just after it.  A probe is the best of three
runs, so that one run slowed by preemption or by caches the op left cold does
not count.  The scaled values read as seconds at the speed where the probe
takes ``REFERENCE_S``, about the undisturbed speed of the 2-vCPU machine on
which the benchmark was defined.  Allocation-heavy ops slow down less than
the probe, so in a heavy slowdown they read somewhat low.

The probe runs with the garbage collector off, so that a collection of the
program's own objects that falls due lands in the program's next op, as it
would without the probe, and does not slow the probe instead.  The probe frees
all it allocates, so it leaves the collector's schedule as it found it.
"""

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.00026
PROBE_RUNS = 3


def _work() -> int:
    acc = {}
    f = Fraction(1, 3)
    for i in range(150):
        key = (i % 7, i % 5, (i % 3,))
        c = acc.get(key)
        acc[key] = f * i if c is None else c + f
    return len(acc)


def probe_s() -> float:
    """Seconds the fixed probe takes now: the best of ``PROBE_RUNS`` runs,
    garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_RUNS):
            t = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe``, at reference speed."""
    return seconds * REFERENCE_S / probe
