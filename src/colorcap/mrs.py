"""Malloc revocation shim: color lifecycle, double-free detection, and
revocation sweeps over the tagged machine.

Allocation claims the lowest free color before it carves the block, stamps
the color onto the capability with the shim's sw_vmem authority, and strips
that authority from what the application receives.  Free retracts the color's provenance-validity bit -
detecting double frees as a side effect - and returns the block to the free
list immediately; no quarantine is needed because retraction already makes
every stale capability fault.

The shim is a `heap.HeapScheme`: heap, root capability, live map, counters
and block carving come from the base; only the color lifecycle lives here.

Colors stay out of rotation until a revocation sweep completes.  When the
unclaimed population drops below the threshold, the shim freezes the
retracted set as the sweep's targets, scans memory and registers clearing
matching tags (`TaggedMachine.sweep_scan` with the job's `doomed`
selector), then clears the target bits and batch releases the colors.
Colors retracted after the targets froze stay retracted and wait for the
next sweep.  The hardware sweep works from a snapshot of the PVT; the
simulator keeps no copy and models the snapshot only by counting the PVT
twice in the resident bytes while a sweep is in flight.  The sweep runs to
completion at trigger time by default; a window size makes it advance
incrementally across subsequent allocation calls instead.  With no color
free, allocation sweeps until a retracted one comes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .capability import PERMS_APP, Capability, derive
from .heap import HeapScheme, OutOfMemory
from .machine import FaultKind, TaggedMachine
from .unr import Exhausted, UnrState

__all__ = [
    "MallocRevocationShim",
    "PoolExhausted",
    "RevocationJob",
    "OutOfMemory",
]


class PoolExhausted(Exception):
    """Every color is claimed and no sweep can reclaim any."""


@dataclass
class RevocationJob:
    """One in-flight sweep: the frozen target colors and a cursor over the
    tagged addresses captured when it started.  The PVT snapshot it stands
    for is modelled only by the doubled-PVT accounting in `_sample`."""

    targets: frozenset[int]
    addresses: list[int]
    cursor: int = 0
    swept: int = 0

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.addresses)

    def doomed(self, pairs) -> list[int]:
        """Sweep selector: the keys whose capability's color is a target."""
        targets = self.targets
        return [key for key, cap in pairs if cap.otype in targets]


class MallocRevocationShim(HeapScheme):
    """The heap scheme plus colors: `live` maps base -> (size, color), and
    nothing is ever quarantined."""

    def __init__(
        self,
        machine: TaggedMachine,
        threshold_fraction: float = 0.01,
        sweep_window: Optional[int] = None,
    ) -> None:
        super().__init__(machine)
        config = machine.config
        self.pool = config.color_count - 1  # color 0 is reserved
        self.unr = UnrState(self.pool)
        self.threshold_count = math.ceil(threshold_fraction * self.pool)
        self.sweep_window = sweep_window
        self.retracted_pending: set[int] = set()
        self.job: Optional[RevocationJob] = None
        self._otypeth = config.otypeth
        self._pvt_bytes = config.pvt_bytes
        self._sample()

    # -- accounting -----------------------------------------------------

    @property
    def unclaimed(self) -> int:
        return self.pool - self.unr.population

    def _sample(self) -> None:
        """Peak accounting: live heap bytes plus the PVT (doubled while a
        sweep holds its snapshot) plus the ID-allocator node memory."""
        unr_bytes = self.unr.node_memory()
        pvt = self._pvt_bytes
        if self.job is not None:
            pvt *= 2
        resident = self.live_bytes + pvt + unr_bytes
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        if unr_bytes > self.peak_unr_bytes:
            self.peak_unr_bytes = unr_bytes

    # -- allocation ------------------------------------------------------

    def m_malloc(self, size: int) -> Capability:
        """Allocate >= size bytes and return a freshly colored capability.

        Polls the sweep in flight, if any; below the threshold, starts one.
        Claims the lowest free color, sweeping for one if none is free,
        before `_carve` takes the block and the one peak sample.  Raises
        PoolExhausted (every color live) or OutOfMemory (heap).
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self.job is not None:
            self._poll_job()
        unr = self.unr
        if self.pool - unr.population < self.threshold_count and self.maybe_revoke():
            if self.sweep_window is None:
                self._finish_job()
        try:
            color = unr.alloc_first_free()
        except Exhausted:
            color = self._claim_color()
        try:
            base, block = self._carve(size)
        except OutOfMemory:
            unr.free_one(color)
            raise
        cap = derive(self.root, base, block, PERMS_APP, self._otypeth, color)
        self.live[base] = (block, color)
        return cap

    def _claim_color(self) -> int:
        """With no color free, finish the sweep in flight or start one over
        the retracted colors, then claim the lowest color it released (a
        sweep's targets are never empty)."""
        if self.job is None:
            if not self.retracted_pending:
                raise PoolExhausted("provenance identifiers exhausted")
            self._start_job()
        self._finish_job()
        return self.unr.alloc_first_free()

    # -- free --------------------------------------------------------------

    def m_free(self, cap: Optional[Capability]):
        """Validate and free; returns None or a MalformedFree/DoubleFree fault.

        Total over hostile input: untagged, uncolored, interior, and
        non-heap capabilities are malformed; a retracted color means the
        allocation was already freed.
        """
        if cap is None or not cap.tag:
            return FaultKind.MALFORMED_FREE
        otype = cap.otype
        if otype is None or not 0 < otype < self._otypeth:
            return FaultKind.MALFORMED_FREE
        if self.machine.pvb_retracted(otype):
            return FaultKind.DOUBLE_FREE
        record = self.live.get(cap.base)
        if record is None or record[1] != otype:
            return FaultKind.MALFORMED_FREE
        size = record[0]
        self.machine.pvt_set(otype, retracted=True)
        self.retracted_pending.add(otype)
        del self.live[cap.base]
        self.live_bytes -= size
        self.heap.free(cap.base, size)  # immediately reusable
        self.frees += 1
        return None

    # -- revocation ----------------------------------------------------------

    def maybe_revoke(self) -> bool:
        """Start a revocation job if the unclaimed population fell below the
        threshold, some color waits to be reclaimed and none is in flight."""
        if self.job is not None or not self.retracted_pending:
            return False
        if self.unclaimed >= self.threshold_count:
            return False
        self._start_job()
        return True

    def _start_job(self) -> None:
        # Freeze the targets: colors retracted from here on wait for the
        # next sweep and stay retracted when this one completes.
        targets = frozenset(self.retracted_pending)
        self.retracted_pending.clear()
        self.job = RevocationJob(
            targets=targets,
            addresses=sorted(self.machine.caps),
        )
        self.machine.start_cap_write_log()
        self.revocations += 1
        self._sample()

    def _poll_job(self) -> None:
        job = self.job
        if self.sweep_window is not None and not job.done:
            self.revocation_step(self.sweep_window)
        if job.done:
            self.revocation_finalize()

    def _finish_job(self) -> None:
        """Run the job in flight to completion right now."""
        self.revocation_step()
        self.revocation_finalize()

    def revocation_step(self, window: Optional[int] = None) -> int:
        """Advance the sweep over up to `window` tagged words (all of them
        when None); returns the number of words scanned."""
        job = self.job
        if job is None:
            raise RuntimeError("no revocation in progress")
        end = len(job.addresses)
        if window is not None:
            end = min(job.cursor + window, end)
        chunk = job.addresses[job.cursor : end]
        job.swept += self.machine.sweep_scan(
            job.doomed, addresses=chunk, include_registers=False
        )
        scanned = end - job.cursor
        job.cursor = end
        return scanned

    def revocation_finalize(self) -> int:
        """Complete a fully scanned job: re-visit words that received
        capability stores during the sweep, scan the registers, clear the
        target bits, and batch release the colors.  Returns the number of
        colors reclaimed."""
        job = self.job
        if job is None:
            raise RuntimeError("no revocation in progress")
        if not job.done:
            raise RuntimeError("revocation scan has not completed")
        rewrites = self.machine.take_cap_write_log()
        job.swept += self.machine.sweep_scan(
            job.doomed, addresses=sorted(rewrites), include_registers=True
        )
        self.machine.pvt_set_many(job.targets, retracted=False)
        if job.targets:
            self.unr.batch_release(sorted(job.targets))
        self.swept_tags += job.swept
        self.job = None
        self._sample()
        return len(job.targets)
