"""Simulated single-address-space machine with tagged memory and a
provenance-validity table.

Memory is word-granular: each 16-byte word holds raw bytes plus one validity
tag bit.  A tagged word holds only the exact capability stored into it, so
capability round-trips are lossless; its packed byte image, which data
reads observe, is made when a read or a tag clear needs it.  Any
non-capability write to a word clears its tag; a read or write inside one
word takes one dict probe and one slice or splice.  A sweep clears the
tags that one selector call picks out of the tagged words and registers.

Every checked op, `capability.derive` included, returns its fault rather
than raising it: a fault is its `FaultKind` member, and a successful access
returns None.  `check_access` takes the PERM_* bit that the access needs,
so its permission check is one `&`.

The provenance-validity table (PVT) holds one bit per color; bit = 1 means
the color has been retracted and every dereference through a capability of
that color faults.  `check_access` does that check inline, reading the
table through a small set-associative buffer of 128-bit table words,
invalidated (one counter bump) whenever a table bit actually changes, which
keeps the buffer transparent: enabling or disabling it can never change
fault behavior, only the hit/miss counters.  The buffer is keyed by
table-word index (color >> 7).  Keyed by a 16-byte-aligned address, the
set `((base >> 4) + word) % PVB_SETS` would be a fixed rotation of `word %
PVB_SETS`: the same words would share a set, so no count would move.
"""

from __future__ import annotations

from typing import Callable, Final, Iterable, Optional

from .capability import (
    CAPABILITY_WIDTH,
    NULL_CAP,
    PERM_LOAD_CAP,
    PERM_STORE_CAP,
    Capability,
    ColorOutOfRange,
    FaultKind,
    RunConfig,
    clear_tag,
    pack,
    unpack,
)

NUM_REGISTERS: Final = 32
_ZERO_WORD: Final = bytes(16)
PVB_SETS: Final = 16
PVB_WAYS: Final = 4


class PvtBuffer:
    """Set-associative buffer of 128-bit PVT words, keyed by their index in
    the table, with round-robin replacement per set: PVB_SETS * PVB_WAYS
    words, word `w` in set `w % PVB_SETS`.

    Lines hold only tags.  Coherence is by whole-buffer invalidation on
    every table write that changes a bit, so a buffered word always equals
    the table: lookups read the bit from the table, and the buffer only
    decides hit or miss.  Invalidation is O(1): the machine bumps
    `invalidations`, and a lookup empties its set first when the set's
    stamp lags behind.  The round-robin pointers persist across flushes;
    replacement stays deterministic either way.
    """

    __slots__ = ("lines", "stamps", "rr", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.lines: list[list[int]] = [[] for _ in range(PVB_SETS)]
        self.stamps = [0] * PVB_SETS  # `invalidations` when the set was last valid
        self.rr = [0] * PVB_SETS
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, word: int) -> None:
        """Count a hit if the word is buffered, else a miss and a fill."""
        idx = word % PVB_SETS
        ways = self.lines[idx]
        if self.stamps[idx] != self.invalidations:
            self.stamps[idx] = self.invalidations
            ways.clear()
        elif word in ways:
            self.hits += 1
            return
        self.misses += 1
        if len(ways) < PVB_WAYS:
            ways.append(word)
        else:
            ways[self.rr[idx]] = word
            self.rr[idx] = (self.rr[idx] + 1) % PVB_WAYS


class TaggedMachine:
    """Tagged memory, 32 capability registers, the PVT, and its buffer,
    built from a `RunConfig` that it validates.  Every register holds
    NULL_CAP at reset, as a CHERI register file does."""

    __slots__ = (
        "config",
        "words",
        "caps",
        "regs",
        "pvt",
        "pvt_buffer",
        "pvt_lookups",
        "_color_count",
        "cap_writes",
    )

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        self.config = config = config or RunConfig()
        config.validate()
        self.words: dict[int, bytes] = {}
        # Tagged words: the exact capability, in place of a packed image
        # in `words`.  tag(addr) == (addr in caps).
        self.caps: dict[int, Capability] = {}
        self.regs: list[Capability] = [NULL_CAP] * NUM_REGISTERS
        self.pvt = bytearray(config.pvt_bytes)
        self.pvt_buffer = PvtBuffer() if config.pvt_buffer else None
        self.pvt_lookups = 0
        self._color_count = config.color_count
        # The running revocation job's `rewrites` (None with no job): a
        # tagged store adds its address, so the job re-visits it.
        self.cap_writes: Optional[set[int]] = None

    # -- provenance-validity table ------------------------------------

    def pvb_retracted(self, color: int) -> bool:
        """Software read of a provenance-validity bit (allocator path).

        Bypasses the buffer and the implicit-lookup counters.
        """
        return (self.pvt[color >> 3] >> (color & 7)) & 1 == 1

    # One bit; pvt_set_many would turn the whole table into an int.
    def pvt_set(self, color: int, retracted: bool) -> None:
        """Write one provenance-validity bit.

        The whole buffer is invalidated when the bit actually changes;
        writes that leave the table identical keep cached words coherent
        and cost nothing.
        """
        if not 0 < color < self._color_count:
            raise ColorOutOfRange(f"color {color} outside [1, {self._color_count})")
        idx = color >> 3
        mask = 1 << (color & 7)
        cur = self.pvt[idx]
        new = (cur | mask) if retracted else (cur & ~mask)
        if new != cur:
            self.pvt[idx] = new
            if self.pvt_buffer is not None:
                self.pvt_buffer.invalidations += 1

    def pvt_set_many(self, mask: bytes, retracted: bool) -> None:
        """Set or clear every bit of `mask`, a bitmap laid out as the table,
        in a few big-int steps, with one buffer invalidation if a bit changed."""
        pvt = self.pvt
        if len(mask) != len(pvt) or mask[0] & 1:
            raise ColorOutOfRange(f"mask must cover colors [1, {self._color_count}) only")
        bits = int.from_bytes(mask, "little")
        cur = int.from_bytes(pvt, "little")
        new = cur | bits if retracted else cur & ~bits
        if new != cur:
            pvt[:] = new.to_bytes(len(pvt), "little")
            if self.pvt_buffer is not None:
                self.pvt_buffer.invalidations += 1

    # -- checked access -----------------------------------------------

    def check_access(
        self,
        cap: Capability,
        offset: int,
        width: int,
        need: int,
        provenance: bool = True,
    ):
        """Validate one access that needs the PERM_* bit `need`; returns
        None on success or the first applicable FaultKind in the order:
        untagged, sealed dereference, permission, spatial bounds,
        provenance retracted.

        The inline provenance-validity check runs only for colors, 0 < otype
        < color_count, so UNSEALED (-1) and the reserved 0 skip it: one
        implicit lookup, `PvtBuffer.lookup` for the hit or miss, then the
        table bit.
        It precedes any memory effect, so a retracted store mutates nothing.
        """
        if not cap.tag:
            return FaultKind.UNTAGGED_OPERAND
        otype = cap.otype
        if otype >= self._color_count:
            return FaultKind.SEALED_DEREFERENCE
        if not cap.perms & need:
            return FaultKind.PERMISSION_DENIED
        start = cap.address + offset
        base = cap.base
        if width < 0 or start < base or start + width > base + cap.length:
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        if otype > 0 and provenance:
            self.pvt_lookups += 1
            if self.pvt_buffer is not None:
                self.pvt_buffer.lookup(otype >> 7)
            if self.pvt[otype >> 3] >> (otype & 7) & 1:
                return FaultKind.PROVENANCE_RETRACTED
        return None

    def store_cap(self, auth, offset: int, value: Capability):
        """Store a capability through `auth` at a 16-byte-aligned target.

        The word's tag follows value.tag.  A tagged value is kept only in
        `caps`; its packed image is made when it is read as data or its
        tag is cleared, and its address is added to `cap_writes` while a
        revocation job runs.  Storing a capability whose color is retracted
        is permitted: retraction gates dereference, not propagation.  Only
        the authorizing capability's own validity is checked.
        """
        target = auth.address + offset
        if target & 15:  # alignment folded into spatial faults
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, PERM_STORE_CAP)
        if fault is not None:
            return fault
        if value.tag:
            self.caps[target] = value
            self.words.pop(target, None)
            if self.cap_writes is not None:
                self.cap_writes.add(target)
        else:
            self.words[target] = pack(value)
            self.caps.pop(target, None)
        return None

    def load_cap(self, auth, offset: int):
        """Load a capability; its tag comes from the word's tag bit."""
        target = auth.address + offset
        if target & 15:
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, PERM_LOAD_CAP)
        if fault is not None:
            return fault
        return self.caps.get(target) or unpack(self.words.get(target, _ZERO_WORD))

    # -- raw word memory (no checks) ----------------------------------

    def read_bytes(self, addr: int, width: int) -> bytes:
        if width <= 0:
            return b""
        words = self.words
        end = addr + width
        w = addr & ~15
        if w == (end - 1) & ~15:
            data = words.get(w)
            if data is None:  # absent or tagged: a tagged word is only in caps
                data = pack(self.caps[w]) if w in self.caps else _ZERO_WORD
            lo = addr - w
            return data[lo : lo + width]
        parts = []
        while addr < end:
            w = addr & ~15
            data = words.get(w)
            if data is None:
                data = pack(self.caps[w]) if w in self.caps else _ZERO_WORD
            lo = addr - w
            hi = min(end - w, 16)
            parts.append(data[lo:hi])
            addr = w + 16
        return b"".join(parts)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write `data` at `addr`; each word it overlaps loses its tag and
        keeps its packed image around the new bytes.  A write inside one
        word is one dict probe and one splice."""
        width = len(data)
        if not width:
            return
        words = self.words
        caps = self.caps
        end = addr + width
        w = addr & ~15
        if w == (end - 1) & ~15:
            old = words.get(w)
            if old is None:  # absent or tagged: a tagged word is only in caps
                old = pack(caps.pop(w)) if w in caps else _ZERO_WORD
            lo = addr - w
            words[w] = old[:lo] + data + old[lo + width :]
            return
        pos = 0
        while w < end:
            lo = max(addr, w) - w
            hi = min(end, w + 16) - w
            # Any data write clears the word's tag.
            old = pack(caps.pop(w)) if w in caps else words.get(w, _ZERO_WORD)
            words[w] = old[:lo] + data[pos : pos + hi - lo] + old[hi:]
            pos += hi - lo
            w += 16

    # -- sweeps ---------------------------------------------------------

    def sweep_scan(
        self,
        select: Callable[[Iterable[tuple[int, Capability]]], list[int]],
        addresses: Optional[Iterable[int]] = None,
        include_registers: bool = True,
    ) -> int:
        """Clear the tag of every capability that `select` dooms.  A selector
        takes (key, capability) pairs and returns the doomed keys in one
        call: one over the tagged memory words (or those among `addresses`),
        then one over the tagged registers.  Returns the number cleared."""
        caps = self.caps
        if addresses is not None:  # a dict drops duplicate addresses
            caps = {addr: caps[addr] for addr in addresses if addr in caps}
        doomed = select(caps.items())
        for addr in doomed:  # tag cleared; the word keeps its packed image
            self.words[addr] = pack(self.caps.pop(addr))
        cleared = len(doomed)
        if include_registers:
            regs = self.regs
            tagged = [(i, cap) for i, cap in enumerate(regs) if cap.tag]
            for i in select(tagged):
                regs[i] = clear_tag(regs[i])
                cleared += 1
        return cleared
