"""Host-speed probe: times on a shared host, converted to reference-host seconds.

On a shared 2-core host, other tenants slow each core by up to 70% at a
time.  The slow and fast states switch within a fraction of a second, the
two cores switch independently, and the share of slow time drifts for
minutes.  Process CPU time rises with wall time, so CPU time does not
remove the slowdown.  The probe measures it *during* the timed work
instead: a ticker thread signals the main thread every :data:`PERIOD`
seconds, and the signal handler, which runs in the main thread between two
bytecodes of the work, times a fixed pure-Python kernel (its thread CPU
time, so waiting for the core does not count).  An interval's reference
time is its wall time minus the time spent in the handler, divided by the
mean kernel time inside it over :data:`REFERENCE_S`, the kernel's time on a
quiet core.

The handler samples the core the main thread is on.  Work that runs on one
core (a serial join, or the service's threads with the process pinned to
one CPU) is sampled where it runs.  When the process may use several
CPUs, the handler moves itself to each of them in turn for one sample and
then restores the affinity, so forked workers and node subprocesses still
start with every CPU.

One NM join of 600 points per side, repeated for 150 s while the host was
busy: per-join times spread by 20-35% (interquartile range over median)
raw, and by 5-8% converted; medians over 25-second windows by 21-36% raw
and 3-6% converted.  The kernel is the benchmark's own code, so a change to
the program moves the work and never the divisor.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Seconds between samples; each sample costs about 2% of that.
PERIOD = 0.02
#: Loop length of one kernel run.
KERNEL_ITERATIONS = 3000
#: Thread CPU seconds of one kernel run on a quiet core.
REFERENCE_S = 0.00042
#: An interval with fewer samples inside borrows the nearest ones.
MIN_SAMPLES = 10

clock = time.perf_counter


def kernel() -> float:
    """A fixed pure-Python job of dict, integer and float work."""
    table = {}
    total = 0.0
    for i in range(KERNEL_ITERATIONS):
        table[i & 1023] = total
        total += (i * 3 % 7) * 0.5
    return total


class HostProbe:
    """Samples host speed while the ``with`` block runs (disabled: raw times)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: (entered, left, kernel CPU seconds) per handler run.
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        self._cpus: List[int] = []
        self._previous = None

    def __enter__(self) -> "HostProbe":
        if self.enabled:
            self._cpus = sorted(os.sched_getaffinity(0))
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            main = threading.main_thread().ident
            self._ticker = threading.Thread(
                target=self._tick, args=(main,), name="host-probe", daemon=True
            )
            self._ticker.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._ticker is not None:
            self._stop.set()
            self._ticker.join()
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, main: int) -> None:
        while not self._stop.wait(PERIOD):
            signal.pthread_kill(main, signal.SIGALRM)

    def _sample(self, signum, frame) -> None:
        entered = clock()
        roam = len(self._cpus) > 1
        if roam:
            os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
        started = time.thread_time()
        kernel()
        spent = time.thread_time() - started
        if roam:
            os.sched_setaffinity(0, self._cpus)
        self.samples.append((entered, clock(), spent))

    def seconds(self, start: float, end: float) -> float:
        """Reference-host seconds of the interval between two clock readings."""
        if not self.enabled:
            return end - start
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        work = end - start - sum(left - entered for entered, left, _ in inside)
        basis = inside
        if len(inside) < MIN_SAMPLES:
            basis = sorted(self.samples, key=lambda s: max(start - s[1], s[0] - end))
            basis = basis[:MIN_SAMPLES]
        if not basis:
            return work
        return work / (statistics.mean(s[2] for s in basis) / REFERENCE_S)
