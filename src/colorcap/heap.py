"""First-fit free-list allocator over a fixed heap region, and the base
every scheme builds on.

Deterministic by construction: blocks are carved from the lowest-addressed
free block that fits, frees coalesce with both neighbors, and allocation is at
16-byte granularity.  The free blocks are kept address-sorted in buckets, each
two parallel int lists of bases and sizes with the bucket's first base and
largest size alongside, so first-fit skips whole buckets: an alloc or free
costs O(buckets + bucket size), not O(free blocks).  `HeapScheme` owns one
heap, the live map and the counters the harness harvests; schemes layer their
own bookkeeping (colors, quarantine, versions) on top.

Every sweep is one `RevocationJob`, which `HeapScheme` starts, advances and
finalizes; a sweeping scheme supplies only `_freeze`, which takes its
targets and builds their selector, and `_release`, which reclaims them.
With no window (`RunConfig.sweep_window` None) a job clears every doomed
tag of memory and the registers in one `TaggedMachine.sweep_scan` call.  A
windowed job sorts the tagged addresses at its start, scans `sweep_window`
of them per malloc, logs the tagged stores made meanwhile, and finalizes
with a short stop-the-world pass over those words and the registers.
Picasso, cornucopia and versioning's fallback sweep this way; only
cornucopia-rof always sweeps at once (see `schemes`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Final, Optional

from .capability import PERM_LOAD, PERM_STORE, PERMS_APP, UNSEALED, Capability

if TYPE_CHECKING:
    from .machine import FaultKind, TaggedMachine

GRANULE: Final = 16
#: A bucket that grows past twice this many free blocks splits in half.
BUCKET_SPLIT: Final = 32


class OutOfMemory(Exception):
    pass


class FreeListHeap:
    """First-fit over free blocks, disjoint, non-adjacent and sorted by
    base, held in buckets of at most 2 * BUCKET_SPLIT blocks.  Bucket j is
    two parallel int lists, the bases `bases[j]` and the sizes `sizes[j]`,
    so the size scans and the max rescans (`max(sizes[j])`) run over plain
    ints.  An op costs about buckets plus bucket size, least when a bucket
    holds near the square root of the free blocks: BUCKET_SPLIT is 32 for
    the 3,600 or so free blocks that random-victim churn leaves.

    Index invariant: the buckets concatenated are the address-sorted free
    list, no bucket is empty, and for each bucket j `firsts[j]` is its first
    base and `maxes[j]` its largest size.  `alloc` skips every bucket whose
    max is below the request and scans only the one it lands in; `free`
    bisects `firsts` and then that bucket's bases.  Either costs O(buckets +
    bucket size) instead of O(free blocks), with the same placement as one
    flat address-sorted list scanned from the front."""

    __slots__ = ("bases", "sizes", "firsts", "maxes")

    def __init__(self, base: int, size: int) -> None:
        self.bases: list[list[int]] = [[base]]
        self.sizes: list[list[int]] = [[size]]
        self.firsts: list[int] = [base]
        self.maxes: list[int] = [size]

    @property
    def free_blocks(self) -> list[list[int]]:
        """The free list flattened, as [base, size] pairs sorted by base;
        O(free blocks), so no hot path reads it."""
        return [list(block) for bucket in zip(self.bases, self.sizes) for block in zip(*bucket)]

    def alloc(self, size: int) -> int:
        """Return the base of a block of exactly `size` bytes (caller rounds)."""
        if size <= 0 or size % GRANULE:
            raise ValueError("allocation size must be a positive granule multiple")
        maxes = self.maxes
        j = 0
        for largest in maxes:
            if largest >= size:
                break
            j += 1
        else:
            raise OutOfMemory(f"no free block of {size} bytes")
        sizes = self.sizes[j]
        for i, have in enumerate(sizes):
            if have >= size:
                break
        bases = self.bases[j]
        base = bases[i]
        if have == size:
            if len(sizes) == 1:
                del self.bases[j], self.sizes[j], self.firsts[j], maxes[j]
                return base
            del bases[i], sizes[i]
            # Same-size holes are common: another one keeps the max.
            if have == largest and have not in sizes:
                maxes[j] = max(sizes)
        else:
            bases[i] = base + size
            sizes[i] = have - size
            if have == largest:
                maxes[j] = max(sizes) if len(sizes) > 1 else have - size
        if i == 0:
            self.firsts[j] = bases[0]
        return base

    def free(self, base: int, size: int) -> None:
        all_bases, all_sizes, firsts, maxes = self.bases, self.sizes, self.firsts, self.maxes
        if not firsts:
            all_bases.append([base])
            all_sizes.append([size])
            firsts.append(base)
            maxes.append(size)
            return
        # The last bucket starting below `base`; bisecting from 1 gives the
        # first bucket when `base` precedes every free block.  Either way the
        # predecessor, if any, is in this bucket; the successor, block n of
        # bucket k, may open the next one.
        j = bisect_right(firsts, base, 1) - 1
        bases, sizes = all_bases[j], all_sizes[j]
        i = bisect_left(bases, base)
        top = base + size
        if i < len(bases):
            k, n, succ = j, i, bases[i]
        elif j + 1 < len(firsts):
            k, n, succ = j + 1, 0, firsts[j + 1]
        else:
            succ = None
        if i and bases[i - 1] + sizes[i - 1] == base:
            if succ == top:
                following = all_sizes[k]
                size += (succ_size := following[n])
                if k == j:
                    del bases[i], sizes[i]
                elif len(following) == 1:  # the successor was the next bucket
                    del all_bases[k], all_sizes[k], firsts[k], maxes[k]
                else:
                    del all_bases[k][0], following[0]
                    firsts[k] = all_bases[k][0]
                    if succ_size == maxes[k]:
                        maxes[k] = max(following)
            sizes[i - 1] += size
            if sizes[i - 1] > maxes[j]:
                maxes[j] = sizes[i - 1]
        elif succ == top:
            # Grow the successor downward; it stays where it is.
            following = all_sizes[k]
            all_bases[k][n] = base
            following[n] += size
            if n == 0:
                firsts[k] = base
            if following[n] > maxes[k]:
                maxes[k] = following[n]
        else:
            bases.insert(i, base)
            sizes.insert(i, size)
            if i == 0:
                firsts[j] = base
            if size > maxes[j]:
                maxes[j] = size
            if len(bases) > 2 * BUCKET_SPLIT:
                tail = sizes[BUCKET_SPLIT:]
                all_bases.insert(j + 1, bases[BUCKET_SPLIT:])
                all_sizes.insert(j + 1, tail)
                firsts.insert(j + 1, bases[BUCKET_SPLIT])
                maxes.insert(j + 1, max(tail))
                del bases[BUCKET_SPLIT:], sizes[BUCKET_SPLIT:]
                maxes[j] = max(sizes)


@dataclass
class RevocationJob:
    """One in-flight sweep: its selector, the targets its scheme releases,
    a windowed job's sorted snapshot of the tagged addresses and cursor, the
    tags cleared, and the words stored to since (the machine's `cap_writes`)."""

    select: Callable
    targets: Any
    addresses: Optional[list[int]] = None
    cursor: int = 0
    swept: int = 0
    rewrites: set[int] = field(default_factory=set)


class HeapScheme:
    """What `run_trace` drives: a heap, the live map, the counters harvested
    into `Metrics`, and the allocator calls.  `malloc` advances the sweep in
    flight, if any, and builds an unsealed capability to exactly the carved
    block; `load` and `store` call the machine's `check_access`, then copy
    with `read_bytes`/`write_bytes` directly.  Each scheme supplies its own
    `free`."""

    def __init__(self, machine: TaggedMachine) -> None:
        config = machine.config
        self.machine = machine
        self.heap = FreeListHeap(config.heap_base, config.heap_size)
        self.live: dict = {}  # base -> the scheme's allocation record
        self.allocations = 0
        self.frees = 0
        self.revocations = 0
        self.swept_tags = 0
        self.live_bytes = 0
        self.quarantine_bytes = 0
        self.peak_live_bytes = 0
        self.peak_quarantine_bytes = 0
        self.peak_resident_bytes = 0
        self.peak_unr_bytes = 0
        self.pvt_bytes = 0  # only picasso keeps a provenance-validity table
        self.sweep_window = config.sweep_window
        self.job: Optional[RevocationJob] = None  # the sweep in flight

    def _sample(self) -> None:
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        if self.quarantine_bytes > self.peak_quarantine_bytes:
            self.peak_quarantine_bytes = self.quarantine_bytes
        resident = self.live_bytes + self.quarantine_bytes
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident

    def _carve(self, size: int) -> tuple[int, int]:
        """Carve a block for `size` bytes from the heap and count it live.
        Out of memory with blocks in quarantine, frozen by a sweep or not,
        revoke them all and retry once, as Cornucopia does, before giving up."""
        block = (size + GRANULE - 1) & -GRANULE  # rounded up to granules
        try:
            base = self.heap.alloc(block)  # quarantined blocks are off the list
        except OutOfMemory:
            if not self.quarantine_bytes:
                raise
            self.revoke()  # only quarantining schemes hold quarantine bytes
            base = self.heap.alloc(block)
        self.live_bytes += block
        self.allocations += 1
        self._sample()
        return base, block

    def _start_job(self, window: Optional[int]) -> None:
        """Start a sweep of the targets `_freeze` takes; with no window it
        runs to completion at once, else `window` words per `_advance`."""
        addresses = None if window is None else sorted(self.machine.caps)
        self.job = job = RevocationJob(*self._freeze(), addresses)
        self.machine.cap_writes = job.rewrites
        self.revocations += 1
        self._sample()
        if window is None:
            self._advance(None)

    def _advance(self, window: Optional[int]) -> None:
        """Scan up to `window` more words (None: all), then finalize once done."""
        if self.revocation_step(window):
            self.revocation_finalize()

    def revocation_step(self, window: Optional[int] = None) -> bool:
        """Scan up to `window` more tagged words (None: all); True once all
        are.  A job with no window scans memory and registers in one call."""
        job = self.job
        addresses = job.addresses
        if addresses is None:
            job.swept += self.machine.sweep_scan(job.select)
            return True
        end = len(addresses) if window is None else min(job.cursor + window, len(addresses))
        chunk = addresses[job.cursor : end]  # registers wait for the finalize
        job.swept += self.machine.sweep_scan(job.select, chunk, include_registers=False)
        job.cursor = end
        return end == len(addresses)

    def revocation_finalize(self) -> None:
        """Complete a fully scanned job: stop logging stores, re-visit the
        logged words and the registers if windowed, release the targets."""
        job = self.job
        self.machine.cap_writes = None
        if job.addresses is not None:
            job.swept += self.machine.sweep_scan(job.select, sorted(job.rewrites))
        self._release(job.targets)
        self.swept_tags += job.swept
        self.job = None
        self._sample()

    def malloc(self, size: int) -> Capability:
        if self.job is not None:
            self._advance(self.sweep_window)
        base, block = self._carve(size)
        self.live[base] = block
        return Capability(base, base, block, PERMS_APP, UNSEALED, True)

    def free(self, cap: Capability) -> Optional[FaultKind]:
        raise NotImplementedError

    # The provenance check inside check_access runs only for picasso's colors.
    def load(self, cap, offset: int, width: int):
        fault = self.machine.check_access(cap, offset, width, PERM_LOAD)
        if fault is not None:
            return fault
        return self.machine.read_bytes(cap.address + offset, width)

    def store(self, cap, offset: int, data: bytes):
        fault = self.machine.check_access(cap, offset, len(data), PERM_STORE)
        if fault is not None:
            return fault
        self.machine.write_bytes(cap.address + offset, data)
        return None
