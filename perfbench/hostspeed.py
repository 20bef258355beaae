"""Host-speed correction for times measured on a shared machine.

On a shared host the speed of one core drifts by tens of percent within
seconds (other tenants, frequency changes), so raw wall times of the same
code spread between runs by more than any useful regression bound. While a
timed region runs, an interval timer interrupts it every ``INTERVAL_S`` and
runs a small fixed calibration kernel, no ``dpgo`` code: a pure-Python float
loop and small ``numpy.dot`` calls, which follow the interpreter's speed, and
a copy of a 1 MB array, which follows the memory system's. The jobs mix both
kinds of work: admm-4x60 is interpreter-bound, the encoder update of
learn-4x100 moves large arrays. The region is then reported as

    corrected_s = (wall_s - time spent in the kernel) * REF_KERNEL_S / kernel time

that is, in seconds of a host on which the kernel takes ``REF_KERNEL_S``. The
kernel time is the mean of the region's samples without the fastest and
slowest ``TRIM`` of them, since a sample that a preemption hit says nothing
about the rest of the region.

A change in ``dpgo`` moves the region's time and not the kernel's, so it shows
in full; a host that slows down slows both, and the ratio cancels it. The
kernel also runs once just before and once just after the region, so that
every region has at least two samples. Each sample is the second of two
back-to-back kernel runs, both taken out of the region's time.

The handler runs between Python bytecodes, so a long call into C delays a
sample but does not lose it. Spans that a traced run records include the
kernel time of the interrupts that fell into them (under 1%).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL_S = 0.02
# About the kernel time measured inside regions on a 2-core x86-64 container, so that
# corrected and wall times roughly agree there; it only scales the reported seconds.
REF_KERNEL_S = 1.3e-4
TRIM = 0.1

_VEC = np.arange(32.0)
_SRC = np.ones(1 << 17)
_DST = np.empty_like(_SRC)


def _kernel() -> float:
    s = 0.0
    for i in range(300):
        s += (i * 0.5) % 3.0
    for _ in range(16):
        s += float(np.dot(_VEC, _VEC))
    np.copyto(_DST, _SRC)
    return s


def _sample() -> tuple[float, float]:
    """Run the kernel twice; return (time of the second run, time of both).

    The first run brings the kernel back into the caches that the region
    used, so that the timed run depends on the host and not on the region.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection of the region's garbage must not land in a sample
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    _kernel()
    t2 = time.perf_counter()
    if gc_was_enabled:
        gc.enable()
    return t2 - t1, t2 - t0


@dataclass
class Timing:
    wall_s: float = 0.0
    kernel_samples: list[float] = field(default_factory=list)
    in_kernel_s: float = 0.0  # kernel time inside the region, taken out of ``net_s``

    @property
    def net_s(self) -> float:
        return self.wall_s - self.in_kernel_s

    @property
    def kernel_s(self) -> float:
        """Mean kernel time without the fastest and slowest TRIM of the samples."""
        ordered = sorted(self.kernel_samples)
        k = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[k : len(ordered) - k])

    @property
    def corrected_s(self) -> float:
        return self.net_s * REF_KERNEL_S / self.kernel_s


_active: Timing | None = None
_sampling = False


def _on_alarm(signum, frame) -> None:
    # Python runs signal handlers between bytecodes, also inside this one:
    # an alarm that arrives while a sample runs (the process was descheduled
    # for a whole interval) is dropped rather than nested.
    global _sampling
    t = _active
    if t is None or _sampling:
        return
    _sampling = True
    try:
        sample, spent = _sample()
        t.kernel_samples.append(sample)
        t.in_kernel_s += spent
    finally:
        _sampling = False


class timed:
    """Context manager: ``with timed() as t: work()``, then read ``t.corrected_s``.

    Uses SIGALRM and ``ITIMER_REAL``; must run in the main thread, not nested.
    The handler stays installed after the first use and ignores alarms that
    arrive outside a region.
    """

    def __enter__(self) -> Timing:
        global _active
        t = self.timing = Timing()
        t.kernel_samples.append(_sample()[0])
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        _active = t
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return t

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        t = self.timing
        t.wall_s = time.perf_counter() - self._start
        _active = None
        t.kernel_samples.append(_sample()[0])
