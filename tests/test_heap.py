"""Differential test of the bucketed `FreeListHeap` against a flat free list.

The oracle below is the plain first-fit allocator the bucketed heap
replaced: one address-sorted list scanned from the front on every alloc.
Both heaps take the same random alloc/free sequence and must agree after
every op on the base returned, on `OutOfMemory`, and on the free list; the
bucketed heap must also keep its index invariant.
"""

import random
from bisect import bisect_left, insort
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorcap import heap as heap_module
from colorcap.heap import BUCKET_SPLIT, GRANULE, FreeListHeap, OutOfMemory

BASE = 0x10000


class FlatHeap:
    """First-fit over one flat [base, size] list sorted by base."""

    def __init__(self, base: int, size: int) -> None:
        self.free_blocks = [[base, size]]

    def alloc(self, size: int) -> int:
        blocks = self.free_blocks
        for block in blocks:
            if block[1] >= size:
                base = block[0]
                if block[1] == size:
                    del blocks[bisect_left(blocks, block)]
                else:
                    block[0] += size
                    block[1] -= size
                return base
        raise OutOfMemory(f"no free block of {size} bytes")

    def free(self, base: int, size: int) -> None:
        blocks = self.free_blocks
        i = bisect_left(blocks, [base, 0])
        if i < len(blocks) and blocks[i][0] == base + size:
            size += blocks[i][1]
            del blocks[i]
        if i > 0 and blocks[i - 1][0] + blocks[i - 1][1] == base:
            blocks[i - 1][1] += size
        else:
            insort(blocks, [base, size])


def check_index(heap: FreeListHeap, split: int) -> None:
    assert all(heap.bases), "no bucket is empty"
    assert [len(bases) for bases in heap.bases] == [len(sizes) for sizes in heap.sizes]
    assert all(len(bases) <= 2 * split for bases in heap.bases)
    assert heap.firsts == [bases[0] for bases in heap.bases]
    assert heap.maxes == [max(sizes) for sizes in heap.sizes]


def replay(heap_granules: int, ops: list[tuple[bool, int]]):
    """Drive both heaps through `ops`, checking after each one.  An op is
    (True, granules) for an alloc, or (False, n) to free live block n modulo
    the live count."""
    split = heap_module.BUCKET_SPLIT
    flat = FlatHeap(BASE, heap_granules * GRANULE)
    heap = FreeListHeap(BASE, heap_granules * GRANULE)
    live: list[tuple[int, int]] = []
    for is_alloc, n in ops:
        if is_alloc:
            size = n * GRANULE
            try:
                expected = flat.alloc(size)
            except OutOfMemory as exc:
                with pytest.raises(OutOfMemory) as raised:
                    heap.alloc(size)
                assert str(raised.value) == str(exc)
            else:
                assert heap.alloc(size) == expected
                live.append((expected, size))
        elif live:
            base, size = live.pop(n % len(live))
            flat.free(base, size)
            heap.free(base, size)
        assert heap.free_blocks == flat.free_blocks
        check_index(heap, split)
    return heap


def random_ops(seed: int, n: int) -> list[tuple[bool, int]]:
    """`n` ops drawn from `seed`.  An alloc is of 1 to 300 granules, half of
    them at most 4, so that free blocks are many and exact fits common."""
    rng = random.Random(seed)
    p_alloc = rng.uniform(0.4, 0.7)  # from shrinking heaps to exhausted ones
    return [
        (True, rng.randint(1, 4) if rng.random() < 0.5 else rng.randint(1, 300))
        if rng.random() < p_alloc
        else (False, rng.randrange(1 << 16))
        for _ in range(n)
    ]


# 2 * _FREED one-granule blocks fill the heap; freeing live index 0, 1, 2,
# ... releases every other block, _FREED free blocks in all: more than
# 2 * BUCKET_SPLIT, so one bucket splits.
_FREED = 2 * BUCKET_SPLIT + 22
_CHECKERBOARD = [(True, 1)] * (2 * _FREED) + [(False, n) for n in range(_FREED)]


@settings(max_examples=200, deadline=None)
@given(
    split=st.sampled_from([1, 2, BUCKET_SPLIT]),
    heap_granules=st.integers(1, 4096),
    ops=st.builds(random_ops, st.integers(0, 2**32 - 1), st.integers(0, 2000)),
)
# More than 2 * BUCKET_SPLIT free blocks: a bucket splits.
@example(split=BUCKET_SPLIT, heap_granules=2 * _FREED, ops=_CHECKERBOARD)
# Then live block BUCKET_SPLIT - 1 sits between the last free block of the
# first bucket and the first of the second: its free bridges the two buckets.
@example(
    split=BUCKET_SPLIT,
    heap_granules=2 * _FREED,
    ops=_CHECKERBOARD + [(False, BUCKET_SPLIT - 1)],
)
# A bucket holding one block loses it to an exact fit, leaving no bucket,
# and the next free starts one again.
@example(
    split=BUCKET_SPLIT,
    heap_granules=3,
    ops=[(True, 1)] * 3 + [(False, 0), (True, 1), (False, 2), (False, 0)],
)
def test_matches_flat_free_list(split, heap_granules, ops):
    with mock.patch.object(heap_module, "BUCKET_SPLIT", split):
        replay(heap_granules, ops)


def test_split_and_bridge_examples_cover_their_case():
    heap = replay(2 * _FREED, _CHECKERBOARD)
    assert [len(bases) for bases in heap.bases] == [BUCKET_SPLIT, _FREED - BUCKET_SPLIT]
    heap = replay(2 * _FREED, _CHECKERBOARD + [(False, BUCKET_SPLIT - 1)])
    last = BUCKET_SPLIT - 1  # the first bucket's last free block grew to 3 granules
    assert heap.bases[0][last] == BASE + 2 * last * GRANULE
    assert heap.sizes[0][last] == 3 * GRANULE
    assert len(heap.bases[0]) == BUCKET_SPLIT
    assert len(heap.bases[1]) == _FREED - BUCKET_SPLIT - 1


def test_matches_flat_free_list_at_bench_scale():
    """Random-victim churn at the bench's fragmentation: 8,000 live blocks
    of 1-256 granules, then 16,000 free/alloc pairs, leave a few thousand
    free blocks in dozens of buckets, which the drawn examples above never
    reach.  Every base must match; the free list and the index are checked
    every 1,000 pairs and at the end."""
    rng = random.Random(1)
    flat = FlatHeap(BASE, 64 << 20)
    heap = FreeListHeap(BASE, 64 << 20)
    live: list[tuple[int, int]] = []
    peak_buckets = 0

    def alloc() -> None:
        size = rng.randint(1, 256) * GRANULE
        base = heap.alloc(size)
        assert base == flat.alloc(size)
        live.append((base, size))

    for _ in range(8000):
        alloc()
    for pair in range(16000):
        victim = rng.randrange(len(live))
        live[victim], live[-1] = live[-1], live[victim]
        base, size = live.pop()
        flat.free(base, size)
        heap.free(base, size)
        alloc()
        peak_buckets = max(peak_buckets, len(heap.firsts))
        if pair % 1000 == 999:
            assert heap.free_blocks == flat.free_blocks
            check_index(heap, BUCKET_SPLIT)
    assert peak_buckets >= 80
