"""Host time scaled to the speed of an idle host.

On a shared host the simulator's speed swings by up to 2x within a second
as other tenants load the same cores: on a 2-vCPU Intel Xeon host, the
median throughput of one fixed replay over 20 s windows ranged from 309k to
486k ops/s, so plain timings cannot tell two commits apart.

`HostSpeed.timed` runs a measurement while a SIGALRM timer interrupts it
every INTERVAL_S seconds to time a short fixed probe loop.  The probe stays
in cache, so it tracks contention for the core and not the measured code's
own cache footprint.  The measurement's seconds, less the probes' own time,
are scaled by PROBE_S over the probes' mean time.  The probes run in the
main thread: no other thread or process is started.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

#: Seconds `HostSpeed.probe()` takes on an idle host (an Intel Xeon vCPU
#: with Python 3.11); reported times are scaled to this speed.
PROBE_S = 0.00066
INTERVAL_S = 0.01
_ROUNDS = 2000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, by: int) -> int:
        self.value = (self.value + by) & 0xFFFF
        return self.value


class HostSpeed:
    def __init__(self) -> None:
        # A small dict of slotted objects: method calls, dict lookups, tuple
        # packing and list updates, like the simulator, but cache-resident.
        self._table = {(i * 2654435761) & 0xFFFFF: _Cell(i, i) for i in range(512)}
        self._keys = list(self._table)

    def probe(self) -> float:
        """Seconds of one fixed probe loop."""
        start = time.perf_counter()
        table, keys = self._table, self._keys
        ring: list[tuple[int, int]] = []
        acc = 0
        for i in range(_ROUNDS):
            cell = table[keys[(i * 7919) & 511]]
            acc ^= cell.bump(i)
            ring.append((cell.key, acc))
            if len(ring) > 256:
                del ring[:128]
        return time.perf_counter() - start

    def timed(self, fn: Callable, *args):
        """Return (fn(*args), the seconds it took at idle-host speed)."""
        probes: list[float] = []

        def on_alarm(signum, frame):
            probes.append(self.probe())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - sum(probes)
        if not probes:  # shorter than one interval: probe right after
            probes.append(self.probe())
        return result, own * PROBE_S / statistics.fmean(probes)
