"""Malloc revocation shim: color lifecycle, double-free detection, and
revocation sweeps over the tagged machine.

Allocation claims the lowest free color before it carves the block, stamps
the color onto the capability with the shim's sw_vmem authority, and strips
that authority from what the application receives.  Free retracts the
color's provenance-validity bit - detecting double frees as a side effect -
and returns the block to the free list immediately; no quarantine is needed
because retraction already makes every stale capability fault.

The shim is a `heap.HeapScheme`: heap, root capability, live map, counters
and block carving come from the base; its own `malloc` and `free` hold the
color lifecycle (`m_malloc` and `m_free` alias them for the bench's spans).

Colors stay out of rotation until a revocation sweep completes.  The PVT
is the only record of which colors are retracted; the shim keeps just their
number, `pending`.  A sweep starts in one place, `malloc`'s threshold
test: some color is pending, no sweep is in flight, and fewer colors are
unclaimed than the threshold (`RunConfig.threshold_fraction` of the pool,
at least 1, so an empty pool is below it).  The job snapshots the PVT,
whose set bits are then exactly the pending colors and become its targets,
expands the snapshot into a table of one byte per color for its `doomed`
selector, and logs the tagged capability stores made while it runs;
`_advance` scans memory clearing matching tags (`TaggedMachine.sweep_scan`),
then re-visits the logged words and the registers, clears the snapshot's
bits and batch releases the colors, the table's runs of target bytes, so a
finished sweep costs O(runs), not O(targets).  Colors retracted after the
snapshot wait for the next sweep.  The snapshot doubles the PVT in the
modelled resident bytes while the sweep is in flight; the table, 8x the
PVT, is host memory held only for as long.
A sweep window (`RunConfig.sweep_window`) bounds the words scanned per
allocation call; without one, a sweep runs to completion in the call that
advances it.  The shim reads both settings from `machine.config`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class RevocationJob:
    """One in-flight sweep: the PVT as it stood when the sweep started (its
    set bits are the target colors), a cursor over the tagged addresses
    captured then, the words given a tagged capability since (`rewrites`,
    which the machine fills as `cap_writes`), and `targets`, the target set
    as one byte per color, 1 for a target, expanded from the snapshot by
    eight C-level translations with no step per color."""

    snapshot: bytes
    addresses: list[int]
    cursor: int = 0
    swept: int = 0
    rewrites: set[int] = field(default_factory=set)
    targets: bytearray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.targets = targets = bytearray(8 * len(self.snapshot))
        for k in range(8):
            targets[k::8] = self.snapshot.translate(_BIT[k])

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.addresses)

    def doomed(self, pairs) -> list[int]:
        """Sweep selector: the keys whose capability's color is a target.

        Total over any (key, capability) pairs, read once: an uncolored
        (UNSEALED or 0), negative or sealed (past the table) otype is never
        a target.
        """
        targets = self.targets
        size = len(targets)
        return [
            key
            for key, cap in pairs
            if 0 < (otype := cap.otype) < size and targets[otype]
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
        self.sweep_window = config.sweep_window
        self.pending = 0  # colors retracted since the last sweep started
        self.job: Optional[RevocationJob] = None
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
        one.  Claims the lowest free color; with none free, finishes the
        sweep in flight first.  `_carve` then takes the block and the one
        peak sample.  Raises PoolExhausted (every color live) or OutOfMemory.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self.job is not None:
            self._advance(self.sweep_window)
        unr = self.unr
        if self.pool - unr.population < self.threshold_count and (
            self.job is None and self.pending
        ):
            self._start_job()
            if self.sweep_window is None:
                self._advance(None)
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

    def _start_job(self) -> None:
        # With no job in flight the PVT's set bits are the pending colors, so
        # the snapshot's are the targets; later retractions wait for the next.
        self.job = job = RevocationJob(bytes(self.machine.pvt), sorted(self.machine.caps))
        self.pending = 0
        self.machine.cap_writes = job.rewrites
        self.revocations += 1
        self._sample()

    def _advance(self, window: Optional[int]) -> None:
        """Scan up to `window` more words (None: all), then finalize once done."""
        job = self.job
        if not job.done:
            self.revocation_step(window)
        if job.done:
            self.revocation_finalize()

    def revocation_step(self, window: Optional[int] = None) -> None:
        """Advance the sweep over up to `window` tagged words (None: all)."""
        job = self.job
        end = len(job.addresses)
        if window is not None:
            end = min(job.cursor + window, end)
        chunk = job.addresses[job.cursor : end]
        job.swept += self.machine.sweep_scan(job.doomed, chunk, include_registers=False)
        job.cursor = end

    def revocation_finalize(self) -> None:
        """Complete a fully scanned job: stop logging capability stores,
        re-visit the words the job logged, scan the registers, clear the
        target bits, and batch release the colors."""
        job = self.job
        self.machine.cap_writes = None
        job.swept += self.machine.sweep_scan(job.doomed, sorted(job.rewrites))
        self.machine.pvt_set_many(job.snapshot, retracted=False)
        self.unr.batch_release(map(re.Match.span, _RUNS.finditer(job.targets)))
        self.swept_tags += job.swept
        self.job = None
        self._sample()

    m_malloc, m_free = malloc, free  # the names bench/layers.py wraps
