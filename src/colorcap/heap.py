"""First-fit free-list allocator over a fixed heap region, and the base
every scheme builds on.

Deterministic by construction: blocks are carved from the lowest-addressed
free block that fits, frees coalesce with both neighbors, and allocation is
at 16-byte granularity.  `HeapScheme` owns one heap, its root capability,
the live map and the counters the harness harvests; schemes layer their own
bookkeeping (colors, quarantine, versions) on top.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Final, Optional

from .capability import PERMS_APP, PERMS_ROOT, UNSEALED, Capability, derive

if TYPE_CHECKING:
    from .machine import Fault, TaggedMachine

GRANULE: Final = 16


class OutOfMemory(Exception):
    pass


def round_up(size: int) -> int:
    return (size + GRANULE - 1) & ~(GRANULE - 1)


class FreeListHeap:
    __slots__ = ("free_blocks",)

    def __init__(self, base: int, size: int) -> None:
        # [base, size] pairs sorted by base; disjoint and non-adjacent.
        self.free_blocks: list[list[int]] = [[base, size]]

    def alloc(self, size: int) -> int:
        """Return the base of a block of exactly `size` bytes (caller rounds)."""
        if size <= 0 or size % GRANULE:
            raise ValueError("allocation size must be a positive granule multiple")
        blocks = self.free_blocks
        for block in blocks:  # enumerate() would slow this hot scan
            if block[1] >= size:
                base = block[0]
                if block[1] == size:
                    del blocks[bisect_left(blocks, block)]  # bases are distinct
                else:
                    block[0] += size
                    block[1] -= size
                return base
        raise OutOfMemory(f"no free block of {size} bytes")

    def free(self, base: int, size: int) -> None:
        blocks = self.free_blocks
        i = bisect_left(blocks, [base, 0])
        # Coalesce with the successor, then the predecessor.
        if i < len(blocks) and blocks[i][0] == base + size:
            size += blocks[i][1]
            del blocks[i]
        if i > 0 and blocks[i - 1][0] + blocks[i - 1][1] == base:
            blocks[i - 1][1] += size
        else:
            insort(blocks, [base, size])


class HeapScheme:
    """What `run_trace` drives: a heap, its root capability, the live map,
    the counters harvested into `Metrics`, and the allocator calls.
    `malloc` hands out plain narrowed capabilities and data access goes
    through the machine's checks; each scheme supplies its own `free`."""

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
        block = round_up(size)
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

    def free(self, cap: Optional[Capability]) -> Optional[Fault]:
        raise NotImplementedError

    # Data access: spatial/tag/permission checks via the machine, plus the
    # provenance check for colored capabilities (picasso's only).
    def load(self, cap, offset: int, width: int):
        return self.machine.load_data(cap, offset, width)

    def store(self, cap, offset: int, data: bytes):
        return self.machine.store_data(cap, offset, data)
