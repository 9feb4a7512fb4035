"""Compressed allocator for the provenance-identifier space.

Tracks which integer IDs in 1..total are claimed using an ordered sequence
of nodes: runs (consecutive IDs sharing one state) and 512-bit bitmaps.
Sequential claiming produces long runs, so the first available ID always
sits right after the leading claimed run and lowest-first allocation is
cheap.  Bitmaps are formed greedily wherever one would replace at least
three runs - the point where it stops costing more memory than the runs -
and are dissolved back into runs when they become uniform.

Batch release takes ascending, disjoint runs of IDs, as (start, stop)
pairs, and rewrites the node sequence in a single forward pass: a run is
split at node edges, each piece inside a claimed run is one builder step and
each piece inside a bitmap one mask test and one clear, so the pass costs
O(nodes + runs) whatever the number of IDs.  The builder converts to a
"first good bitmap" the moment a window of runs qualifies, with no lookahead
for globally optimal packing.  The claimed/available membership is that of
releasing the IDs one at a time; only the node structure may differ, and it
is the one that emitting each released ID as its own builder step makes.
"""

from __future__ import annotations

from typing import Final, Iterable

BITMAP_CAPACITY: Final = 512
#: Accounting: every node costs one unit; a bitmap adds its bit payload.
NODE_UNIT_BYTES: Final = 32
BITMAP_PAYLOAD_BYTES: Final = BITMAP_CAPACITY // 8


class Exhausted(Exception):
    """No ID is available."""


class NotClaimed(Exception):
    """Attempt to release an ID that is not currently claimed."""


class Run:
    """`length` consecutive IDs, all claimed or all available."""

    __slots__ = ("claimed", "length")

    def __init__(self, claimed: bool, length: int) -> None:
        self.claimed = claimed
        self.length = length


class BitmapNode:
    """Up to 512 IDs with mixed states; bit i (LSB first) covers the i-th ID."""

    __slots__ = ("bits", "length")

    def __init__(self, bits: int, length: int) -> None:
        self.bits = bits
        self.length = length


class _Builder:
    """Streaming node assembler shared by rebuilds and batch release.

    Emitted runs accumulate in a window; the window converts to a bitmap as
    soon as it spans >= 3 runs within the 512-bit capacity.  Runs and
    bitmaps that fit are folded into a trailing bitmap, since growing one
    never costs memory while separate nodes do.
    """

    __slots__ = ("out", "win", "win_len")

    def __init__(self) -> None:
        self.out: list = []
        self.win: list[list] = []  # pending [claimed, length] runs
        self.win_len = 0

    def run(self, claimed: bool, length: int) -> None:
        if length <= 0:
            return
        win = self.win
        if win:
            if win[-1][0] == claimed:
                win[-1][1] += length
            else:
                win.append([claimed, length])
            self.win_len += length
            self._settle()
            return
        if self._fold(claimed, length):
            return
        win.append([claimed, length])
        self.win_len = length
        self._settle()

    def release(self, length: int) -> None:
        """Emit `length` available IDs as the same nodes that as many
        one-ID runs would make, in O(1) builder steps."""
        win, out = self.win, self.out
        if len(win) == 2 and win[1][0] and self.win_len < BITMAP_CAPACITY:
            self.run(False, 1)
            length -= 1
        if not win and out and type(out[-1]) is BitmapNode:
            room = min(length, BITMAP_CAPACITY - out[-1].length)
            out[-1].length += room
            length -= room
        self.run(False, length)

    def bitmap(self, bits: int, length: int) -> None:
        if bits == 0 or bits == (1 << length) - 1:  # uniform: dissolve into a run
            self.run(bits != 0, length)
            return
        if self.win and self.win_len + length <= BITMAP_CAPACITY:
            # Fold the pending runs in as the bitmap's prefix.
            prefix, at = self._take_window()
            bits = prefix | (bits << at)
            length += at
        else:
            self._flush_window()
        self._push_bitmap(bits, length)

    def finish(self) -> list:
        self._flush_window()
        return self.out

    def _settle(self) -> None:
        win = self.win
        while self.win_len > BITMAP_CAPACITY and len(win) > 1:
            claimed, length = win.pop(0)
            self.win_len -= length
            self._commit(claimed, length)
        if self.win_len > BITMAP_CAPACITY:
            claimed, length = win.pop(0)
            self.win_len = 0
            self._commit(claimed, length)
        elif len(win) >= 3:
            self._push_bitmap(*self._take_window())

    def _take_window(self) -> tuple[int, int]:
        """Empty the window into one (bits, length) bitmap image."""
        bits = 0
        at = 0
        for claimed, run_len in self.win:
            if claimed:
                bits |= ((1 << run_len) - 1) << at
            at += run_len
        self.win.clear()
        self.win_len = 0
        return bits, at

    def _flush_window(self) -> None:
        for claimed, length in self.win:
            self._commit(claimed, length)
        self.win.clear()
        self.win_len = 0

    def _commit(self, claimed: bool, length: int) -> None:
        if not self._fold(claimed, length):
            self.out.append(Run(claimed, length))

    def _fold(self, claimed: bool, length: int) -> bool:
        """Extend the last emitted node by a run, if it can take one."""
        out = self.out
        if out:
            tail = out[-1]
            if type(tail) is Run:
                if tail.claimed == claimed:
                    tail.length += length
                    return True
            elif tail.length + length <= BITMAP_CAPACITY:
                if claimed:
                    tail.bits |= ((1 << length) - 1) << tail.length
                tail.length += length
                return True
        return False

    def _push_bitmap(self, bits: int, length: int) -> None:
        out = self.out
        if out:
            tail = out[-1]
            if type(tail) is BitmapNode and tail.length + length <= BITMAP_CAPACITY:
                tail.bits |= bits << tail.length
                tail.length += length
                return
        out.append(BitmapNode(bits, length))


class UnrState:
    """Claimed/available state of the ID pool 1..total.  `node_bytes` is
    `node_memory()`, recounted by `_adopt` and kept by `alloc_first_free`."""

    __slots__ = ("total", "nodes", "node_bytes", "population")

    def __init__(self, total: int) -> None:
        if total < 1:
            raise ValueError("pool must hold at least one ID")
        self.total = total
        self.nodes: list = [Run(False, total)]
        self.node_bytes = NODE_UNIT_BYTES
        self.population = 0

    # -- queries ---------------------------------------------------------

    def node_memory(self) -> int:
        """Bytes consumed by the node representation, in O(1)."""
        return self.node_bytes

    # -- mutations ---------------------------------------------------------

    def alloc_first_free(self) -> int:
        """Claim and return the smallest available ID."""
        if self.population >= self.total:
            raise Exhausted(f"all {self.total} IDs claimed")
        # Adjacent runs of one state merge and a full bitmap dissolves into a
        # claimed run, so a claimed run is never followed by another one nor
        # by a full bitmap: the first free ID is in nodes[0] or, after a
        # leading claimed run, in nodes[1].
        nodes = self.nodes
        node = nodes[0]
        if type(node) is Run and node.claimed:
            prev = node
            offset = node.length
            node = nodes[1]
        else:
            prev = None
            offset = 0
        if type(node) is Run:
            # A free run: its head moves into the claimed run before it
            # (ID 1 opens one).
            if prev is None:
                prev = Run(True, 0)
                nodes.insert(0, prev)
                self.node_bytes += NODE_UNIT_BYTES
            prev.length += 1
            node.length -= 1
            if not node.length:
                if len(nodes) > 2 and type(nodes[2]) is Run:  # claimed: merge it
                    prev.length += nodes[2].length
                    del nodes[1:3]
                    self.node_bytes -= 2 * NODE_UNIT_BYTES
                else:
                    del nodes[1]
                    self.node_bytes -= NODE_UNIT_BYTES
            self.population += 1
            return offset + 1
        full = (1 << node.length) - 1
        inv = ~node.bits & full
        bit = (inv & -inv).bit_length() - 1
        node.bits |= 1 << bit
        self.population += 1
        if node.bits == full:
            self._rebuild()
        return offset + bit + 1

    def free_one(self, ident: int) -> None:
        """Release one claimed ID."""
        if not 1 <= ident <= self.total:
            raise ValueError(f"id {ident} outside [1, {self.total}]")
        self.batch_release(((ident, ident + 1),))

    def batch_release(self, runs: Iterable[tuple[int, int]]) -> None:
        """Release runs of claimed IDs, each the IDs start..stop-1 of one
        (start, stop) pair, in one forward pass over the node sequence.
        The runs must ascend and be disjoint; adjacent ones are allowed.

        A run is split where it crosses a node edge; each piece inside a
        claimed run node is one builder step, and each piece inside a
        bitmap one mask test and one clear, so the pass costs O(nodes +
        runs), not O(IDs).  Atomic: if any ID is not claimed, nothing
        changes.  The claimed set is that of calling free_one for each ID
        in order, and the nodes are those of one builder step per ID.
        """
        it = iter(runs)
        run = next(it, None)
        if run is None:
            return
        start, stop = run
        if not 1 <= start < stop:
            raise ValueError(f"run {run} is empty or starts below 1")
        builder = _Builder()
        emit, release = builder.run, builder.release
        released = 0
        lo = 1  # the node covers IDs lo..hi-1
        for node in self.nodes:
            hi = lo + node.length
            if start is None or start >= hi:
                if type(node) is Run:
                    emit(node.claimed, node.length)
                else:
                    builder.bitmap(node.bits, node.length)
                lo = hi
                continue
            # Release the runs, or their pieces, that start in this node.
            is_run = type(node) is Run
            if is_run:
                if not node.claimed:
                    raise NotClaimed(f"id {start} is not claimed")
                done = lo  # the IDs below `done` are emitted
            else:
                bits = node.bits
            while True:
                piece = stop if stop < hi else hi
                if is_run:
                    emit(True, start - done)
                    release(piece - start)
                    done = piece
                else:
                    mask = ((1 << (piece - start)) - 1) << (start - lo)
                    missing = mask & ~bits
                    if missing:
                        first = lo + (missing & -missing).bit_length() - 1
                        raise NotClaimed(f"id {first} is not claimed")
                    bits ^= mask
                released += piece - start
                if stop > hi:  # the rest starts in the next node
                    start = hi
                    break
                run = next(it, None)
                if run is None:
                    start = None
                    break
                prev, (start, stop) = stop, run
                if not prev <= start < stop:
                    raise ValueError(f"run {run} is empty or not past {prev - 1}")
                if start >= hi:
                    break
            if is_run:
                emit(True, hi - done)
            else:
                builder.bitmap(bits, node.length)
            lo = hi
        if start is not None:
            raise NotClaimed(f"id {start} outside the pool")
        self._adopt(builder)
        self.population -= released

    def _rebuild(self) -> None:
        builder = _Builder()
        for node in self.nodes:
            if type(node) is Run:
                builder.run(node.claimed, node.length)
            else:
                builder.bitmap(node.bits, node.length)
        self._adopt(builder)

    def _adopt(self, builder: _Builder) -> None:
        self.nodes = nodes = builder.finish()
        bitmaps = sum(type(node) is BitmapNode for node in nodes)
        self.node_bytes = NODE_UNIT_BYTES * len(nodes) + BITMAP_PAYLOAD_BYTES * bitmaps
