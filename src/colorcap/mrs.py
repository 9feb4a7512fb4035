"""Malloc revocation shim: color lifecycle, double-free detection, and
revocation sweeps over the tagged machine.

The shim claims the lowest free color before it carves a block, stamps it
onto the capability with the shim's sw_vmem authority, and hands that out
without the authority.  Free retracts the color's provenance-validity bit,
which also detects double frees, and returns the block to the heap at once.
The PVT is the only record of retracted colors; the shim counts them
(`pending`).  A sweep starts only at `malloc`'s threshold test: a color is
pending, no sweep is in flight, and fewer colors are unclaimed than the
threshold (`RunConfig.threshold_fraction` of the pool, at least 1, so an
empty pool is below it).  It is the one revocation job of `heap.HeapScheme`,
for which the shim supplies `_freeze` and `_release`.  Its targets are a
PVT snapshot, whose set bits are then the pending colors, and the table of
one byte per color its selector reads; its release clears the snapshot's
bits and batch releases the table's runs, O(runs), not O(targets).  Colors
retracted later wait for the next sweep.  The snapshot doubles the PVT in
the modelled resident bytes while the sweep runs; the table, 8x the PVT, is
host memory held only for as long.  `m_malloc` and `m_free` alias `malloc`
and `free` for the bench's spans.
"""

from __future__ import annotations

import math
import re

from .capability import PERMS_APP, Capability, derive
from .heap import HeapScheme, OutOfMemory
from .machine import FaultKind, TaggedMachine
from .unr import Exhausted, UnrState


class PoolExhausted(Exception):
    """Every color is claimed and no sweep can reclaim any."""


#: _BIT[k] maps a PVT byte to its bit k, so `snapshot.translate(_BIT[k])`
#: reads bit k of every byte: the target flags of colors k, k + 8, ...
_BIT = [bytes(byte >> k & 1 for byte in range(256)) for k in range(8)]
#: Runs of target bytes: `\x01+`, spelled with a literal first byte, which
#: the regex engine scans for about 20x faster.
_RUNS = re.compile(rb"\x01\x01*")


def color_selector(targets: bytearray):
    """The sweep selector that dooms every capability whose color is 1 in
    `targets`, one byte per color; no otype below 1 or past the table is."""
    size = len(targets)
    return lambda pairs: [
        key for key, cap in pairs if 0 < (otype := cap.otype) < size and targets[otype]
    ]


class MallocRevocationShim(HeapScheme):
    """The heap scheme plus colors: `live` maps base -> (size, color), and
    nothing is ever quarantined."""

    def __init__(self, machine: TaggedMachine) -> None:
        super().__init__(machine)
        config = machine.config
        self.pool = config.color_count - 1  # color 0 is reserved
        self.unr = UnrState(self.pool)
        self.threshold_count = math.ceil(config.threshold_fraction * self.pool)
        self.pending = 0  # colors retracted since the last sweep started
        self.pvt_bytes = config.pvt_bytes
        self._sample()

    # -- accounting -----------------------------------------------------

    def _sample(self) -> None:
        """Peak accounting: live heap bytes plus the PVT (doubled while a
        sweep holds its snapshot) plus the ID-allocator node memory."""
        unr_bytes = self.unr.node_bytes
        pvt = self.pvt_bytes if self.job is None else 2 * self.pvt_bytes
        resident = self.live_bytes + pvt + unr_bytes
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        if unr_bytes > self.peak_unr_bytes:
            self.peak_unr_bytes = unr_bytes

    # -- allocation ------------------------------------------------------

    def malloc(self, size: int) -> Capability:
        """Allocate >= size bytes and return a freshly colored capability.

        Advances the sweep in flight, if any; below the threshold, starts
        one.  Claims the lowest free color, finishing the sweep in flight if
        none is free, then carves.  Raises PoolExhausted or OutOfMemory.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self.job is not None:
            self._advance(self.sweep_window)
        unr = self.unr
        if self.pool - unr.population < self.threshold_count and (
            self.job is None and self.pending
        ):
            self._start_job(self.sweep_window)
        try:
            color = unr.alloc_first_free()
        except Exhausted:
            # With a color pending, the threshold test above started a
            # sweep; only a windowed one can still hold every color.
            if self.job is None:
                raise PoolExhausted("provenance identifiers exhausted")
            self._advance(None)  # a sweep's targets are never empty
            color = unr.alloc_first_free()
        try:
            base, block = self._carve(size)
        except OutOfMemory:
            unr.free_one(color)
            raise
        cap = derive(self.root, base, block, PERMS_APP, self._color_count, color)
        self.live[base] = (block, color)
        return cap

    # -- free --------------------------------------------------------------

    def free(self, cap: Capability):
        """Validate and free; returns None or a MalformedFree/DoubleFree fault.

        Total over hostile input: untagged, uncolored, interior, and
        non-heap capabilities are malformed; a retracted color means the
        allocation was already freed.
        """
        if not cap.tag:
            return FaultKind.MALFORMED_FREE
        otype = cap.otype
        record = self.live.get(cap.base)
        if record is None or record[1] != otype:
            # A live block's color is in range and its bit is clear (it is
            # claimed again only after a sweep clears it): the retraction
            # below always changes the table, which is read only here.
            if 0 < otype < self._color_count and self.machine.pvb_retracted(otype):
                return FaultKind.DOUBLE_FREE
            return FaultKind.MALFORMED_FREE
        size = record[0]
        self.machine.pvt[otype >> 3] |= 1 << (otype & 7)
        if self.machine.pvt_buffer is not None:
            self.machine.pvt_buffer.invalidations += 1
        self.pending += 1
        del self.live[cap.base]
        self.live_bytes -= size
        self.heap.free(cap.base, size)  # immediately reusable
        self.frees += 1
        return None

    # -- revocation ----------------------------------------------------------

    def _freeze(self):
        # With no job in flight the PVT's set bits are the pending colors, so
        # the snapshot's are the targets; later retractions wait for the next.
        snapshot = bytes(self.machine.pvt)
        table = bytearray(8 * len(snapshot))
        for k in range(8):
            table[k::8] = snapshot.translate(_BIT[k])
        self.pending = 0
        return color_selector(table), (snapshot, table)

    def _release(self, targets) -> None:
        """Clear the snapshot's bits and release the table's runs of colors."""
        snapshot, table = targets
        self.machine.pvt_set_many(snapshot, retracted=False)
        self.unr.batch_release(map(re.Match.span, _RUNS.finditer(table)))

    m_malloc, m_free = malloc, free  # the names bench/layers.py wraps
