"""Compressed allocator for the provenance-identifier space.

Tracks which integer IDs in 1..total are claimed using an ordered sequence
of nodes: runs (consecutive IDs sharing one state) and 512-bit bitmaps.
Sequential claiming produces long runs, so the first available ID always
sits right after the leading claimed run and lowest-first allocation is
cheap.  Bitmaps are formed greedily wherever one would replace at least
three runs - the point where it stops costing more memory than the runs -
and are dissolved back into runs when they become uniform.

Batch release takes a strictly ascending ID sequence and rewrites the node
sequence in a single forward pass, freeing IDs on the fly and converting to
a "first good bitmap" the moment a window of runs qualifies, with no
lookahead for globally optimal packing.  The resulting claimed/available
membership is identical to releasing the IDs one at a time; only the node
structure may differ.
"""

from __future__ import annotations

from typing import Final, Iterable, Iterator, Sequence

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

    def __repr__(self) -> str:
        return f"Run({'c' if self.claimed else 'a'}:{self.length})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Run)
            and other.claimed == self.claimed
            and other.length == self.length
        )


class BitmapNode:
    """Up to 512 IDs with mixed states; bit i (LSB first) covers the i-th ID."""

    __slots__ = ("bits", "length")

    def __init__(self, bits: int, length: int) -> None:
        self.bits = bits
        self.length = length

    def __repr__(self) -> str:
        return f"BitmapNode(len={self.length}, bits={self.bits:#x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitmapNode)
            and other.bits == self.bits
            and other.length == self.length
        )


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
        out = self.out
        if out:
            tail = out[-1]
            if type(tail) is Run and tail.claimed == claimed:
                tail.length += length
                return
            if type(tail) is BitmapNode and tail.length + length <= BITMAP_CAPACITY:
                if claimed:
                    tail.bits |= ((1 << length) - 1) << tail.length
                tail.length += length
                return
        win.append([claimed, length])
        self.win_len = length
        self._settle()

    def bitmap(self, bits: int, length: int) -> None:
        full = (1 << length) - 1
        if bits == 0:  # uniform bitmaps dissolve back into runs
            self.run(False, length)
            return
        if bits == full:
            self.run(True, length)
            return
        if self.win and self.win_len + length <= BITMAP_CAPACITY:
            # Fold the pending runs in as the bitmap's prefix.
            prefix = 0
            at = 0
            for claimed, run_len in self.win:
                if claimed:
                    prefix |= ((1 << run_len) - 1) << at
                at += run_len
            bits = prefix | (bits << at)
            length += at
            self.win.clear()
            self.win_len = 0
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
            bits = 0
            at = 0
            for claimed, run_len in win:
                if claimed:
                    bits |= ((1 << run_len) - 1) << at
                at += run_len
            win.clear()
            self.win_len = 0
            self._push_bitmap(bits, at)

    def _flush_window(self) -> None:
        for claimed, length in self.win:
            self._commit(claimed, length)
        self.win.clear()
        self.win_len = 0

    def _commit(self, claimed: bool, length: int) -> None:
        out = self.out
        if out:
            tail = out[-1]
            if type(tail) is Run and tail.claimed == claimed:
                tail.length += length
                return
            if type(tail) is BitmapNode and tail.length + length <= BITMAP_CAPACITY:
                if claimed:
                    tail.bits |= ((1 << length) - 1) << tail.length
                tail.length += length
                return
        out.append(Run(claimed, length))

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
    """Claimed/available state of the ID pool 1..total."""

    __slots__ = ("total", "nodes", "population", "node_scan_passes")

    def __init__(self, total: int) -> None:
        if total < 1:
            raise ValueError("pool must hold at least one ID")
        self.total = total
        self.nodes: list = [Run(False, total)]
        self.population = 0
        #: Number of full forward traversals performed by mutating
        #: operations; batch_release contributes exactly one.
        self.node_scan_passes = 0

    # -- queries ---------------------------------------------------------

    def is_claimed(self, ident: int) -> bool:
        if not 1 <= ident <= self.total:
            raise ValueError(f"id {ident} outside [1, {self.total}]")
        offset = 0
        for node in self.nodes:
            if ident <= offset + node.length:
                if type(node) is Run:
                    return node.claimed
                return (node.bits >> (ident - offset - 1)) & 1 == 1
            offset += node.length
        raise AssertionError("node coverage broken")

    def claimed_ids(self) -> Iterator[int]:
        offset = 0
        for node in self.nodes:
            if type(node) is Run:
                if node.claimed:
                    yield from range(offset + 1, offset + node.length + 1)
            else:
                bits = node.bits
                while bits:
                    low = bits & -bits
                    yield offset + low.bit_length()
                    bits ^= low
            offset += node.length

    def claimed_set(self) -> set[int]:
        return set(self.claimed_ids())

    def node_count(self) -> int:
        return len(self.nodes)

    def node_memory(self) -> int:
        """Bytes consumed by the node representation."""
        total = 0
        for node in self.nodes:
            total += NODE_UNIT_BYTES
            if type(node) is BitmapNode:
                total += BITMAP_PAYLOAD_BYTES
        return total

    def dump(self) -> str:
        """Debug form: `R:c:50 R:a:12 B:len=512:<hex>` (bitmap LSB = first ID)."""
        parts = []
        for node in self.nodes:
            if type(node) is Run:
                parts.append(f"R:{'c' if node.claimed else 'a'}:{node.length}")
            else:
                parts.append(f"B:len={node.length}:{node.bits:x}")
        return " ".join(parts)

    def validate(self) -> None:
        """Assert structural invariants (test hook)."""
        covered = 0
        population = 0
        prev = None
        for node in self.nodes:
            if type(node) is Run:
                assert node.length >= 1, "empty run"
                if type(prev) is Run:
                    assert prev.claimed != node.claimed, "adjacent mergeable runs"
                if node.claimed:
                    population += node.length
            else:
                assert 1 <= node.length <= BITMAP_CAPACITY, "bitmap length"
                assert node.bits < (1 << node.length), "bitmap stray bits"
                full = (1 << node.length) - 1
                assert node.bits not in (0, full), "uniform bitmap not dissolved"
                population += node.bits.bit_count()
            covered += node.length
            prev = node
        assert covered == self.total, "coverage != total"
        assert population == self.population, "population counter drift"

    # -- mutations ---------------------------------------------------------

    def alloc_first_free(self) -> int:
        """Claim and return the smallest available ID."""
        if self.population >= self.total:
            raise Exhausted(f"all {self.total} IDs claimed")
        nodes = self.nodes
        self.node_scan_passes += 1
        offset = 0
        for i, node in enumerate(nodes):
            if type(node) is Run:
                if node.claimed:
                    offset += node.length
                    continue
                ident = offset + 1
                self._claim_run_head(i)
                self.population += 1
                return ident
            full = (1 << node.length) - 1
            if node.bits == full:
                offset += node.length
                continue
            inv = ~node.bits & full
            bit = (inv & -inv).bit_length() - 1
            node.bits |= 1 << bit
            self.population += 1
            if node.bits == full:
                self._rebuild()
            return offset + bit + 1
        raise AssertionError("population counter out of sync")

    def _claim_run_head(self, i: int) -> None:
        """Claim the first ID of the available run at index i."""
        nodes = self.nodes
        node = nodes[i]
        prev = nodes[i - 1] if i else None
        if type(prev) is Run and prev.claimed:
            prev.length += 1
            node.length -= 1
            if node.length == 0:
                nxt = nodes[i + 1] if i + 1 < len(nodes) else None
                if type(nxt) is Run and nxt.claimed:
                    prev.length += nxt.length
                    del nodes[i : i + 2]
                else:
                    del nodes[i]
        elif prev is None:
            node.length -= 1
            if node.length == 0:
                nxt = nodes[1] if len(nodes) > 1 else None
                if type(nxt) is Run and nxt.claimed:
                    nxt.length += 1
                    del nodes[0]
                else:
                    nodes[0] = Run(True, 1)
            else:
                nodes.insert(0, Run(True, 1))
        else:
            # Preceding node is a bitmap; splice and renormalize.
            node.length -= 1
            if node.length == 0:
                nodes[i : i + 1] = [Run(True, 1)]
            else:
                nodes.insert(i, Run(True, 1))
            self._rebuild()

    def free_one(self, ident: int) -> None:
        """Release one claimed ID."""
        if not 1 <= ident <= self.total:
            raise ValueError(f"id {ident} outside [1, {self.total}]")
        nodes = self.nodes
        self.node_scan_passes += 1
        offset = 0
        for i, node in enumerate(nodes):
            length = node.length
            if ident <= offset + length:
                pos = ident - offset - 1
                if type(node) is Run:
                    if not node.claimed:
                        raise NotClaimed(f"id {ident} is not claimed")
                    parts: list = []
                    if pos:
                        parts.append(Run(True, pos))
                    parts.append(Run(False, 1))
                    if length - pos - 1:
                        parts.append(Run(True, length - pos - 1))
                    nodes[i : i + 1] = parts
                else:
                    if not (node.bits >> pos) & 1:
                        raise NotClaimed(f"id {ident} is not claimed")
                    node.bits &= ~(1 << pos)
                self.population -= 1
                self._rebuild()
                return
            offset += length
        raise AssertionError("node coverage broken")

    def batch_release(self, ids: Sequence[int] | Iterable[int]) -> None:
        """Release a strictly ascending sequence of claimed IDs in one
        forward pass over the node sequence.

        Atomic: if any ID is not claimed, nothing changes.  The claimed-set
        result is identical to calling free_one for each ID in order.
        """
        it = iter(ids)
        nxt = next(it, None)
        if nxt is None:
            return
        if nxt < 1:
            raise ValueError(f"id {nxt} outside [1, {self.total}]")
        builder = _Builder()
        released = 0
        offset = 0
        last = 0
        self.node_scan_passes += 1
        for node in self.nodes:
            length = node.length
            end = offset + length
            if nxt is None or nxt > end:
                if type(node) is Run:
                    builder.run(node.claimed, length)
                else:
                    builder.bitmap(node.bits, length)
                offset = end
                continue
            if type(node) is Run:
                if not node.claimed:
                    raise NotClaimed(f"id {nxt} is not claimed")
                cursor = offset
                while nxt is not None and nxt <= end:
                    if nxt <= last:
                        raise ValueError("ids must be strictly ascending")
                    last = nxt
                    if nxt - 1 > cursor:
                        builder.run(True, nxt - 1 - cursor)
                    builder.run(False, 1)
                    cursor = nxt
                    released += 1
                    nxt = next(it, None)
                if end > cursor:
                    builder.run(True, end - cursor)
            else:
                bits = node.bits
                while nxt is not None and nxt <= end:
                    if nxt <= last:
                        raise ValueError("ids must be strictly ascending")
                    last = nxt
                    pos = nxt - offset - 1
                    if not (bits >> pos) & 1:
                        raise NotClaimed(f"id {nxt} is not claimed")
                    bits &= ~(1 << pos)
                    released += 1
                    nxt = next(it, None)
                builder.bitmap(bits, length)
            offset = end
        if nxt is not None:
            raise NotClaimed(f"id {nxt} outside the pool")
        self.nodes = builder.finish()
        self.population -= released

    def _rebuild(self) -> None:
        builder = _Builder()
        self.node_scan_passes += 1
        for node in self.nodes:
            if type(node) is Run:
                builder.run(node.claimed, node.length)
            else:
                builder.bitmap(node.bits, node.length)
        self.nodes = builder.finish()
