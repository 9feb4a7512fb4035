"""Simulated single-address-space machine with tagged memory and a
provenance-validity table.

Memory is word-granular: each 16-byte word holds raw bytes plus one validity
tag bit.  A tagged word holds only the exact capability stored into it, so
capability round-trips are lossless; its packed byte image, which data
reads observe, is made when a read or a tag clear needs it.  Any
non-capability write to a word clears its tag; a read or write inside one
word takes one dict probe and one slice or splice.  A sweep clears the
tags that one selector call picks out of the tagged words and registers.

Checked accesses return faults rather than raise them: a fault is its
`FaultKind` member, success is None.  `check_access` takes the PERM_* bit
that the access needs, so its permission check is one `&`.

The provenance-validity table (PVT) holds one bit per color; bit = 1 means
the color has been retracted and every dereference through a capability of
that color faults.  `check_access` does that check inline, reading the
table through a small set-associative buffer of 128-bit table words,
invalidated (one counter bump) whenever a table bit actually changes, which
keeps the buffer transparent: enabling or disabling it can never change
fault behavior, only the hit/miss counters.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Final, Iterable, Optional

from .capability import (
    CAPABILITY_WIDTH,
    PERM_LOAD_CAP,
    PERM_STORE_CAP,
    Capability,
    ColorOutOfRange,
    MachineConfig,
    clear_tag,
    pack,
    unpack,
)

NUM_REGISTERS: Final = 32


class FaultKind(str, Enum):
    """An architectural fault, returned (never raised) by checked accesses."""

    SPATIAL_OUT_OF_BOUNDS = "SpatialOutOfBounds"
    UNTAGGED_OPERAND = "UntaggedOperand"
    PERMISSION_DENIED = "PermissionDenied"
    PROVENANCE_RETRACTED = "ProvenanceRetracted"
    SEALED_DEREFERENCE = "SealedDereference"
    MALFORMED_FREE = "MalformedFree"
    DOUBLE_FREE = "DoubleFree"
    PVT_UNMAPPED = "PvtUnmapped"


_ZERO_WORD: Final = bytes(16)
PVB_SETS: Final = 16
PVB_WAYS: Final = 4


class PvtBuffer:
    """Set-associative buffer of 128-bit PVT words, keyed by their virtual
    address, with round-robin replacement per set: PVB_SETS * PVB_WAYS words.

    Lines hold only tags.  Coherence is by whole-buffer invalidation on
    every table write that changes a bit, so a buffered word always equals
    the table: lookups read the bit from the table, and the buffer only
    decides hit or miss.  Invalidation is O(1): it bumps `invalidations`,
    and a lookup empties its set first when the set's stamp lags behind.
    """

    __slots__ = ("lines", "stamps", "rr", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.lines: list[list[int]] = [[] for _ in range(PVB_SETS)]
        self.stamps = [0] * PVB_SETS  # `invalidations` when the set was last valid
        self.rr = [0] * PVB_SETS
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, word_addr: int) -> None:
        """Count a hit if the word is buffered, else a miss and a fill."""
        idx = (word_addr >> 4) % PVB_SETS
        ways = self.lines[idx]
        if self.stamps[idx] != self.invalidations:
            self.stamps[idx] = self.invalidations
            ways.clear()
        elif word_addr in ways:
            self.hits += 1
            return
        self.misses += 1
        if len(ways) < PVB_WAYS:
            ways.append(word_addr)
        else:
            ways[self.rr[idx]] = word_addr
            self.rr[idx] = (self.rr[idx] + 1) % PVB_WAYS

    def invalidate_all(self) -> None:
        # The round-robin pointers persist across flushes; replacement
        # stays deterministic either way.
        self.invalidations += 1


class TaggedMachine:
    """Tagged memory, 32 capability registers, the PVT, and its buffer."""

    __slots__ = (
        "config",
        "words",
        "caps",
        "regs",
        "pvt",
        "pvt_buffer",
        "pvt_lookups",
        "_otypeth",
        "_pvt_base",
        "_pvt_mapped",
        "_color_count",
        "_cap_write_log",
    )

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.words: dict[int, bytes] = {}
        # Tagged words: the exact capability, in place of a packed image
        # in `words`.  tag(addr) == (addr in caps).
        self.caps: dict[int, Capability] = {}
        self.regs: list[Optional[Capability]] = [None] * NUM_REGISTERS
        self.pvt = bytearray(self.config.pvt_bytes)
        self.pvt_buffer = PvtBuffer() if self.config.pvt_buffer_enabled else None
        self.pvt_lookups = 0
        self._otypeth = self.config.otypeth
        self._pvt_base = self.config.pvt_base
        self._pvt_mapped = self.config.pvt_mapped_bytes
        self._color_count = self.config.color_count
        self._cap_write_log: Optional[set[int]] = None

    # -- provenance-validity table ------------------------------------

    def pvb_retracted(self, color: int) -> bool:
        """Software read of a provenance-validity bit (allocator path).

        Bypasses the buffer and the implicit-lookup counters.
        """
        return (self.pvt[color >> 3] >> (color & 7)) & 1 == 1

    # Not folded into pvt_set_many: this per-malloc/free path is measurably slower through it.
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
                self.pvt_buffer.invalidate_all()

    def pvt_set_many(self, colors: Iterable[int], retracted: bool) -> None:
        """Bulk provenance-validity update with a single buffer invalidation."""
        pvt = self.pvt
        changed = False
        for color in colors:
            if not 0 < color < self._color_count:
                raise ColorOutOfRange(f"color {color} outside [1, {self._color_count})")
            idx = color >> 3
            mask = 1 << (color & 7)
            cur = pvt[idx]
            new = (cur | mask) if retracted else (cur & ~mask)
            if new != cur:
                pvt[idx] = new
                changed = True
        if changed and self.pvt_buffer is not None:
            self.pvt_buffer.invalidate_all()

    # -- checked access -----------------------------------------------

    def check_access(
        self,
        cap: Optional[Capability],
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
        < otypeth: one implicit lookup, an unmapped fault past the mapped
        table, `PvtBuffer.lookup` for the hit or miss, then the table bit.
        It precedes any memory effect, so a retracted store mutates nothing.
        """
        if cap is None or not cap.tag:
            return FaultKind.UNTAGGED_OPERAND
        otype = cap.otype
        if otype is None:
            otype = 0
        elif otype >= self._otypeth:
            return FaultKind.SEALED_DEREFERENCE
        if not cap.perms & need:
            return FaultKind.PERMISSION_DENIED
        start = cap.address + offset
        base = cap.base
        if width < 0 or start < base or start + width > base + cap.length:
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        if otype > 0 and provenance:
            self.pvt_lookups += 1
            byte_off = otype >> 3
            if byte_off >= self._pvt_mapped:
                return FaultKind.PVT_UNMAPPED
            if self.pvt_buffer is not None:
                self.pvt_buffer.lookup(self._pvt_base + ((otype >> 7) << 4))
            if self.pvt[byte_off] >> (otype & 7) & 1:
                return FaultKind.PROVENANCE_RETRACTED
        return None

    def store_cap(self, auth, offset: int, value: Capability):
        """Store a capability through `auth` at a 16-byte-aligned target.

        The word's tag follows value.tag.  A tagged value is kept only in
        `caps`; its packed image is made when it is read as data or its
        tag is cleared.  Storing a capability whose color is retracted is
        permitted: retraction gates dereference, not propagation.  Only the
        authorizing capability's own validity is checked.
        """
        target = auth.address + offset if auth is not None else offset
        if target & 15:  # alignment folded into spatial faults
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, PERM_STORE_CAP)
        if fault is not None:
            return fault
        if value.tag:
            self.caps[target] = value
            self.words.pop(target, None)
            if self._cap_write_log is not None:
                self._cap_write_log.add(target)
        else:
            self.words[target] = pack(value)
            self.caps.pop(target, None)
        return None

    def load_cap(self, auth, offset: int):
        """Load a capability; its tag comes from the word's tag bit."""
        target = auth.address + offset if auth is not None else offset
        if target & 15:
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, PERM_LOAD_CAP)
        if fault is not None:
            return fault
        cap = self.caps.get(target)
        if cap is not None:
            return cap
        return unpack(self.words.get(target, _ZERO_WORD), tag=False)

    # -- raw word memory (no checks) ----------------------------------

    def read_bytes(self, addr: int, width: int) -> bytes:
        if width <= 0:
            return b""
        words = self.words
        end = addr + width
        w = addr & ~15
        if w == (end - 1) & ~15:
            data = words.get(w)
            if data is None:
                cap = self.caps.get(w)
                if cap is None:
                    return b"\x00" * width
                data = pack(cap)
            lo = addr - w
            return data[lo : lo + width]
        parts = []
        while addr < end:
            w = addr & ~15
            data = words.get(w)
            if data is None:
                cap = self.caps.get(w)
                data = _ZERO_WORD if cap is None else pack(cap)
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
                cap = caps.pop(w, None)
                old = _ZERO_WORD if cap is None else pack(cap)
            lo = addr - w
            words[w] = old[:lo] + data + old[lo + width :]
            return
        pos = 0
        while w < end:
            cap = caps.pop(w, None)  # any data write clears the word's tag
            lo = max(addr, w) - w
            hi = min(end, w + 16) - w
            old = words.get(w, _ZERO_WORD) if cap is None else pack(cap)
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
            tagged = [(i, cap) for i, cap in enumerate(regs) if cap is not None and cap.tag]
            for i in select(tagged):
                regs[i] = clear_tag(regs[i])
                cleared += 1
        return cleared

    def start_cap_write_log(self) -> None:
        """Begin recording addresses that receive tagged capability stores
        (consumed by revocation jobs to re-visit words written mid-sweep)."""
        self._cap_write_log = set()

    def take_cap_write_log(self) -> set[int]:
        log = self._cap_write_log
        self._cap_write_log = None
        return log if log is not None else set()
