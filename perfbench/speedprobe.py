"""Machine-speed probe: how fast the CPU runs right now, sampled while the
program runs.

The benchmark's machine shares its cores with other tenants, and their load
changes how fast the same code runs from one second to the next by up to
about 1.6 times, in CPU time as well as wall time.  While installed, the
probe times a fixed piece of pure-Python code (the kernel) every
``PERIOD_S`` of process CPU time, from an ``ITIMER_PROF`` signal handler, and
keeps each sample's main-thread CPU time and duration.  Work timed under the
probe is then rescaled to the reference speed: each stretch of main-thread
CPU time between two samples is multiplied by ``REFERENCE_S`` over the
kernel's duration at that point.  Time spent in the kernel itself is left
out.  Main-thread CPU time leaves out the time other tenants hold the core
and the spinning of numpy's idle BLAS threads; the program runs
single-threaded (``--workers 1``), so on a machine of its own its wall time
would be this CPU time.

The probe uses the main thread's signal handler and must be installed from
the main thread.  It imports only builtin modules, so that a fresh
interpreter can install it before importing relaycast and numpy at no cost.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

PERIOD_S = 0.02  # process CPU seconds between samples
LOOPS = 800
# thread CPU seconds one kernel call takes at the reference speed: about its
# median inside the benchmark's workloads on the 2-core Xeon the benchmark
# was tuned on, Python 3.11, so that rescaled times read close to CPU times
# there.  It only sets the unit of the rescaled times.
REFERENCE_S = 1.6e-4


def kernel() -> float:
    s = 0.0
    for i in range(1, LOOPS):
        s += math.exp(-1e-3 * i) * math.log1p(i)
    return s


class SpeedProbe:
    """Context manager sampling the kernel's duration while it is active."""

    def __init__(self) -> None:
        self.at = array("d")  # main-thread CPU time at the start of each sample
        self.took = array("d")  # thread CPU time of each kernel call
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        kernel()
        self.took.append(time.thread_time() - t0)
        self.at.append(t0)

    def __enter__(self) -> "SpeedProbe":
        kernel()  # once untimed, so that no sample pays for warming it up
        self._sample(signal.SIGPROF, None)  # so that every stretch has a sample before it
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[float, int]:
        """Main-thread CPU time and sample count now: the start of a stretch."""
        return time.thread_time(), len(self.took)

    def rescaled(self, start: tuple[float, int]) -> tuple[float, float]:
        """(main-thread CPU seconds, the same at the reference speed) since
        ``start``, both without the time spent in the kernel."""
        c0, n0 = start
        c1 = time.thread_time()
        took = self.took[n0:]
        cpu = c1 - c0 - sum(took)
        if not took:  # shorter than one period: scaled by the sample before it
            return cpu, cpu * REFERENCE_S / self.took[n0 - 1]
        # each sample scales the stretch of program time since the previous
        # sample; the stretch after the last one is scaled by the last one
        bounds = list(self.at[n0:]) + [c1]
        scaled, prev = 0.0, c0
        for k, dur in enumerate(took):
            scaled += (bounds[k] - prev) * REFERENCE_S / dur
            prev = bounds[k] + dur
        scaled += (c1 - prev) * REFERENCE_S / took[-1]
        return cpu, scaled
