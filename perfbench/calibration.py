"""Machine-speed calibration for the benchmark's timings.

A shared virtual machine changes speed with the load of other tenants: on
a 2-vCPU Intel Xeon VM the same cold operation took up to half again as
long for minutes at a time, which no number of repetitions inside one run
averages out, and its speed also swings within seconds.  Two things
change: how fast the vCPU runs while it runs, and how much of the time
the hypervisor takes it away (*steal* time, 0-40% of a second on that VM,
counted per CPU in ``/proc/stat``).

A run is pinned to one CPU.  While each timed region (an operation or a
set-up) runs, a ``SIGALRM`` interval timer interrupts it every
:data:`PERIOD` seconds, and the handler times a fixed micro-kernel that
does not touch ``repro`` (interpreted dict work, about 0.4 ms).  One more
sample is taken just before and one just after the region.  The steal
time of the CPU is read before and after.  The region's time at
reference speed is::

    (wall seconds - seconds spent in the handler - steal seconds)
        * (REFERENCE_SECONDS / 20%-trimmed mean of the samples) ** ELASTICITY

Calibration kernels timed only before and after each operation missed
the swings inside it: on short recorded traces the sampled divisor left
a per-operation spread of 2-4% on the CPU-bound workloads, where the
median of four adjacent 0.13 s kernels left 5-9%.  The trimmed mean drops
the samples that the campaign's worker process (sharing the CPU) delayed.
In the VM's fast spells the micro-kernel speeds up a little more than the
workloads do (by up to 35% where ``tune`` sped up by 25%), hence the
exponent: on an 11-minute trace of the ``tune``, ``numeric-square``,
``mc`` and ``campaign`` operations in turn, during which raw times varied
by 15-18% (coefficient of variation), 0.9 left 5.5%, 4.6%, 5.2% and 8.7%
where 1 left 6.8%, 5.0%, 5.2% and 8.9%.  On a second, 6-minute trace
taking out steal time brought them from 6.7%, 7.5%, 8.0% and 14.4% to
5.7%, 4.2%, 4.4% and 12.6%.

The handler runs with the garbage collector off, so a sample's time does
not depend on how many objects the program under test keeps alive; it
still shares the program's caches, which a 256-key dict barely touches.
Interval timers are not inherited by forked children, so a campaign
worker is never interrupted.  Raw wall-clock seconds and the mean sample
time are printed beside every result, so the scaling can be undone.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import List

#: A typical micro-kernel time on that VM (Python 3.11), so that scaled
#: times read close to its wall-clock seconds.
REFERENCE_SECONDS = 0.00044
#: Seconds between speed samples inside a timed region.
PERIOD = 0.02
#: Share of the samples dropped at each end before averaging.
TRIM = 0.2
#: How far operation times follow the micro-kernel's speed (see above).
ELASTICITY = 0.9


def _micro_kernel() -> float:
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def steal_seconds() -> float:
    """Steal time so far of the one CPU this process is pinned to."""
    (cpu,) = os.sched_getaffinity(0)
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"/proc/stat has no line for cpu{cpu}")


def sample() -> float:
    """Time the micro-kernel once, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _micro_kernel()
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    """One timed region and the speed samples taken around and inside it."""

    wall: float
    samples: List[float] = field(default_factory=list)
    #: Seconds the handler spent inside the region.
    probe: float = 0.0
    #: Seconds the hypervisor took the CPU away during the region.
    steal: float = 0.0

    @property
    def seconds(self) -> float:
        """Wall seconds of the region without the handler's or steal time."""
        return self.wall - self.probe - self.steal

    @property
    def speed(self) -> float:
        """Trimmed mean micro-kernel time: the divisor of :attr:`scaled`."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    @property
    def scaled(self) -> float:
        """:attr:`seconds` at reference speed."""
        return self.seconds * (REFERENCE_SECONDS / self.speed) ** ELASTICITY


class SpeedProbe:
    """Times callables while sampling the machine's speed (main thread only)."""

    def __init__(self) -> None:
        self._inside: List[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._inside.append(sample())

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result and its :class:`Timing`."""
        before = sample()
        self._inside = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        steal = steal_seconds()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            steal = steal_seconds() - steal
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside = self._inside
        timing = Timing(wall, [before] + inside + [sample()], sum(inside),
                        min(steal, wall - sum(inside)))
        return result, timing
