"""First-fit free-list allocator over a fixed heap region, and the base
every scheme builds on.

Deterministic by construction: blocks are carved from the lowest-addressed
free block that fits, frees coalesce with both neighbors, and allocation is
at 16-byte granularity.  The free blocks are kept address-sorted in buckets
with each bucket's first base and largest size alongside, so first-fit skips
whole buckets: an alloc or free costs O(buckets + bucket size) rather than
O(free blocks).  `HeapScheme` owns one heap, its root capability, the live
map and the counters the harness harvests; schemes layer their own
bookkeeping (colors, quarantine, versions) on top.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Final, Optional

from .capability import (
    PERM_LOAD,
    PERM_STORE,
    PERMS_APP,
    PERMS_ROOT,
    UNSEALED,
    Capability,
    derive,
)

if TYPE_CHECKING:
    from .machine import FaultKind, TaggedMachine

GRANULE: Final = 16
#: A bucket that grows past twice this many free blocks splits in half.
BUCKET_SPLIT: Final = 64

_size_of = itemgetter(1)


class OutOfMemory(Exception):
    pass


class FreeListHeap:
    """First-fit over [base, size] free blocks, disjoint, non-adjacent and
    sorted by base, held in `buckets` of at most 2 * BUCKET_SPLIT blocks.

    Index invariant: the buckets concatenated are the address-sorted free
    list, no bucket is empty, and for each bucket j `firsts[j]` is its first
    base and `maxes[j]` its largest size.  `alloc` skips every bucket whose
    max is below the request and scans only the one it lands in; `free`
    bisects `firsts` and then that bucket.  Either costs O(buckets + bucket
    size) instead of O(free blocks), with the same placement as one flat
    address-sorted list scanned from the front."""

    __slots__ = ("buckets", "firsts", "maxes")

    def __init__(self, base: int, size: int) -> None:
        self.buckets: list[list[list[int]]] = [[[base, size]]]
        self.firsts: list[int] = [base]
        self.maxes: list[int] = [size]

    @property
    def free_blocks(self) -> list[list[int]]:
        """The free list flattened, as [base, size] pairs sorted by base;
        O(free blocks), so no hot path reads it."""
        return list(chain.from_iterable(self.buckets))

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
        bucket = self.buckets[j]
        for block in bucket:
            if block[1] >= size:
                break
        base, have = block
        if have == size:
            if len(bucket) == 1:
                del self.buckets[j], self.firsts[j], maxes[j]
                return base
            del bucket[bisect_left(bucket, block)]  # bases are distinct
            # Same-size holes are common: another one keeps the max.
            if have == largest and have not in map(_size_of, bucket):
                maxes[j] = max(map(_size_of, bucket))
        else:
            block[0] = base + size
            block[1] = have - size
            if have == largest:
                maxes[j] = max(map(_size_of, bucket)) if len(bucket) > 1 else have - size
        if base == self.firsts[j]:
            self.firsts[j] = bucket[0][0]
        return base

    def free(self, base: int, size: int) -> None:
        buckets, firsts, maxes = self.buckets, self.firsts, self.maxes
        if not buckets:
            buckets.append([[base, size]])
            firsts.append(base)
            maxes.append(size)
            return
        # The last bucket starting below `base`; bisecting from 1 gives the
        # first bucket when `base` precedes every free block.  Either way the
        # predecessor, if any, is in this bucket; the successor may open the
        # next one.
        j = bisect_right(firsts, base, 1) - 1
        bucket = buckets[j]
        i = bisect_left(bucket, [base, 0])
        top = base + size
        if i < len(bucket):
            succ, k = bucket[i], j
        elif j + 1 < len(buckets):
            succ, k = buckets[j + 1][0], j + 1
        else:
            succ = None
        if i and (pred := bucket[i - 1])[0] + pred[1] == base:
            if succ is not None and succ[0] == top:
                size += succ[1]
                if k == j:
                    del bucket[i]
                else:  # the successor opens the next bucket
                    following = buckets[k]
                    if len(following) == 1:
                        del buckets[k], firsts[k], maxes[k]
                    else:
                        del following[0]
                        firsts[k] = following[0][0]
                        if succ[1] == maxes[k]:
                            maxes[k] = max(map(_size_of, following))
            pred[1] += size
            if pred[1] > maxes[j]:
                maxes[j] = pred[1]
        elif succ is not None and succ[0] == top:
            # Grow the successor downward; it stays where it is.
            succ[0] = base
            succ[1] += size
            if k != j or i == 0:
                firsts[k] = base
            if succ[1] > maxes[k]:
                maxes[k] = succ[1]
        else:
            bucket.insert(i, [base, size])
            if i == 0:
                firsts[j] = base
            if size > maxes[j]:
                maxes[j] = size
            if len(bucket) > 2 * BUCKET_SPLIT:
                tail = bucket[BUCKET_SPLIT:]
                del bucket[BUCKET_SPLIT:]
                buckets.insert(j + 1, tail)
                firsts.insert(j + 1, tail[0][0])
                maxes.insert(j + 1, max(map(_size_of, tail)))
                maxes[j] = max(map(_size_of, bucket))


class HeapScheme:
    """What `run_trace` drives: a heap, its root capability, the live map,
    the counters harvested into `Metrics`, and the allocator calls.
    `malloc` hands out plain narrowed capabilities; `load` and `store` call
    the machine's `check_access`, then copy with `read_bytes`/`write_bytes`
    directly.  Each scheme supplies its own `free`."""

    def __init__(self, machine: TaggedMachine) -> None:
        config = machine.config
        self.machine = machine
        self.heap = FreeListHeap(config.heap_base, config.heap_size)
        self.root = Capability(
            address=config.heap_base,
            base=config.heap_base,
            length=config.heap_size,
            perms=PERMS_ROOT,
            otype=UNSEALED,
            tag=True,
        )
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
        Out of memory with blocks in quarantine, revoke them and retry once,
        as Cornucopia does, before giving up."""
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

    def malloc(self, size: int) -> Capability:
        base, block = self._carve(size)
        self.live[base] = block
        return derive(self.root, base, block, PERMS_APP)

    def free(self, cap: Optional[Capability]) -> Optional[FaultKind]:
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
