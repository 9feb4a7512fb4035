"""First-fit free-list allocator over a fixed heap region.

Deterministic by construction: blocks are carved from the lowest-addressed
free block that fits, frees coalesce with both neighbors, and allocation is
at 16-byte granularity.  Schemes layer their own bookkeeping (colors,
quarantine, versions) on top.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Final

GRANULE: Final = 16


class OutOfMemory(Exception):
    pass


def round_up(size: int) -> int:
    return (size + GRANULE - 1) & ~(GRANULE - 1)


class FreeListHeap:
    __slots__ = ("base", "size", "free_blocks", "free_bytes")

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        # [base, size] pairs sorted by base; disjoint and non-adjacent.
        self.free_blocks: list[list[int]] = [[base, size]]
        self.free_bytes = size

    def alloc(self, size: int) -> int:
        """Return the base of a block of exactly `size` bytes (caller rounds)."""
        if size <= 0 or size % GRANULE:
            raise ValueError("allocation size must be a positive granule multiple")
        for block in self.free_blocks:
            if block[1] >= size:
                base = block[0]
                if block[1] == size:
                    self.free_blocks.remove(block)
                else:
                    block[0] += size
                    block[1] -= size
                self.free_bytes -= size
                return base
        raise OutOfMemory(f"no free block of {size} bytes")

    def free(self, base: int, size: int) -> None:
        self.free_bytes += size
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
