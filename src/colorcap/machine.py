"""Simulated single-address-space machine with tagged memory and a
provenance-validity table.

Memory is word-granular: each 16-byte word holds raw bytes plus one validity
tag bit.  A tagged word additionally retains the exact capability stored
into it, so capability round-trips are lossless; the packed byte image is
what data reads observe and what dumps show.  Any non-capability write to a
word clears its tag.

The provenance-validity table (PVT) holds one bit per color; bit = 1 means
the color has been retracted and every dereference through a capability of
that color faults.  Dereference checks read the table through a small
set-associative buffer of 128-bit table words, invalidated whenever a table
bit actually changes, which keeps the buffer transparent: enabling or
disabling it can never change fault behavior, only the hit/miss counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Final, Iterable, Optional

from .capability import (
    CAPABILITY_WIDTH,
    Capability,
    ColorOutOfRange,
    MachineConfig,
    clear_tag,
    pack,
    unpack,
)

NUM_REGISTERS: Final = 32


class FaultKind(str, Enum):
    SPATIAL_OUT_OF_BOUNDS = "SpatialOutOfBounds"
    UNTAGGED_OPERAND = "UntaggedOperand"
    PERMISSION_DENIED = "PermissionDenied"
    PROVENANCE_RETRACTED = "ProvenanceRetracted"
    SEALED_DEREFERENCE = "SealedDereference"
    MALFORMED_FREE = "MalformedFree"
    DOUBLE_FREE = "DoubleFree"
    PVT_UNMAPPED = "PvtUnmapped"


@dataclass(frozen=True, slots=True)
class Fault:
    """An architectural fault, returned (never raised) by checked accesses."""

    kind: FaultKind
    color: Optional[int] = None

    def __str__(self) -> str:
        if self.color is not None:
            return f"{self.kind.value}(color={self.color})"
        return self.kind.value


FAULT_SPATIAL: Final = Fault(FaultKind.SPATIAL_OUT_OF_BOUNDS)
FAULT_UNTAGGED: Final = Fault(FaultKind.UNTAGGED_OPERAND)
FAULT_PERMISSION: Final = Fault(FaultKind.PERMISSION_DENIED)
FAULT_SEALED: Final = Fault(FaultKind.SEALED_DEREFERENCE)
FAULT_MALFORMED_FREE: Final = Fault(FaultKind.MALFORMED_FREE)
FAULT_DOUBLE_FREE: Final = Fault(FaultKind.DOUBLE_FREE)
FAULT_PVT_UNMAPPED: Final = Fault(FaultKind.PVT_UNMAPPED)

_ZERO_WORD: Final = bytes(16)
_PVB_UNMAPPED: Final = object()

#: Permission required for each access kind.
_KIND_PERM = ("read", "write", "read_cap", "write_cap")


class PvtBuffer:
    """Set-associative cache of 128-bit PVT words, keyed by their virtual
    address, with round-robin replacement per set.

    Capacity: sets * ways words (one word covers 128 provenance-validity
    bits).  Coherence is by whole-buffer invalidation on table writes.
    """

    __slots__ = ("sets", "ways", "lines", "rr", "hits", "misses", "invalidations")

    def __init__(self, sets: int = 16, ways: int = 4) -> None:
        self.sets = sets
        self.ways = ways
        self.lines: list[list[list]] = [[] for _ in range(sets)]
        self.rr = [0] * sets
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def set_index(self, word_addr: int) -> int:
        return (word_addr >> 4) % self.sets

    def get(self, word_addr: int) -> Optional[bytes]:
        for entry in self.lines[self.set_index(word_addr)]:
            if entry[0] == word_addr:
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def fill(self, word_addr: int, word: bytes) -> None:
        idx = self.set_index(word_addr)
        ways = self.lines[idx]
        if len(ways) < self.ways:
            ways.append([word_addr, word])
        else:
            ways[self.rr[idx]] = [word_addr, word]
            self.rr[idx] = (self.rr[idx] + 1) % self.ways
        return None

    def invalidate_all(self) -> None:
        # The round-robin pointers persist across flushes; replacement
        # stays deterministic either way.
        for ways in self.lines:
            ways.clear()
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
        # Tagged words: exact capability stored out of band next to its
        # packed image.  tag(addr) == (addr in caps).
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

    def _pvb_state(self, color: int):
        """Implicit hardware lookup of one provenance-validity bit.

        Returns True (retracted), False (valid), or the unmapped sentinel.
        Goes through the buffer when enabled, filling on miss.
        """
        self.pvt_lookups += 1
        byte_off = color >> 3
        if byte_off >= self._pvt_mapped:
            return _PVB_UNMAPPED
        buf = self.pvt_buffer
        if buf is None:
            return (self.pvt[byte_off] >> (color & 7)) & 1 == 1
        word_index = color >> 7
        word = buf.get(self._pvt_base + (word_index << 4))
        if word is None:
            base = word_index << 4
            word = bytes(self.pvt[base : base + 16])
            buf.fill(self._pvt_base + (word_index << 4), word)
        return (word[(color >> 3) & 15] >> (color & 7)) & 1 == 1

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
        kind: str,
        provenance: bool = True,
    ):
        """Validate one access; returns None on success or the first
        applicable Fault in the order: untagged, sealed dereference,
        permission, spatial bounds, provenance retracted.

        The provenance-validity check runs only for colored capabilities
        (uncolored accesses perform zero table lookups) and is evaluated
        before any memory effect, so a retracted store mutates nothing.
        """
        if cap is None or not cap.tag:
            return FAULT_UNTAGGED
        otype = cap.otype
        color = 0
        if otype is not None:
            if otype >= self._otypeth:
                return FAULT_SEALED
            if otype > 0:
                color = otype
        perms = cap.perms
        if kind == "read":
            allowed = perms.load
        elif kind == "write":
            allowed = perms.store
        elif kind == "read_cap":
            allowed = perms.load_cap
        elif kind == "write_cap":
            allowed = perms.store_cap
        else:
            raise ValueError(f"unknown access kind {kind!r}")
        if not allowed:
            return FAULT_PERMISSION
        start = cap.address + offset
        if width < 0 or start < cap.base or start + width > cap.base + cap.length:
            return FAULT_SPATIAL
        if color and provenance:
            state = self._pvb_state(color)
            if state is _PVB_UNMAPPED:
                return FAULT_PVT_UNMAPPED
            if state:
                return Fault(FaultKind.PROVENANCE_RETRACTED, color)
        return None

    def load_data(self, cap, offset: int, width: int, provenance: bool = True):
        """Checked data read; returns bytes or a Fault."""
        fault = self.check_access(cap, offset, width, "read", provenance)
        if fault is not None:
            return fault
        return self.read_bytes(cap.address + offset, width)

    def store_data(self, cap, offset: int, data: bytes, provenance: bool = True):
        """Checked data write; returns None or a Fault.

        Clears the tag of every word it overlaps.  The check completes
        before any mutation, so a faulting store leaves memory bit-identical.
        """
        fault = self.check_access(cap, offset, len(data), "write", provenance)
        if fault is not None:
            return fault
        self.write_bytes(cap.address + offset, data)
        return None

    def store_cap(self, auth, offset: int, value: Capability):
        """Store a capability through `auth` at a 16-byte-aligned target.

        The word's tag follows value.tag.  Storing a capability whose color
        is retracted is permitted: retraction gates dereference, not
        propagation.  Only the authorizing capability's own validity is
        checked.
        """
        target = auth.address + offset if auth is not None else offset
        if target & 15:
            return FAULT_SPATIAL  # alignment folded into spatial faults
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, "write_cap")
        if fault is not None:
            return fault
        self.words[target] = pack(value)
        if value.tag:
            self.caps[target] = value
            if self._cap_write_log is not None:
                self._cap_write_log.add(target)
        else:
            self.caps.pop(target, None)
        return None

    def load_cap(self, auth, offset: int):
        """Load a capability; its tag comes from the word's tag bit."""
        target = auth.address + offset if auth is not None else offset
        if target & 15:
            return FAULT_SPATIAL
        fault = self.check_access(auth, offset, CAPABILITY_WIDTH, "read_cap")
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
                return b"\x00" * width
            lo = addr - w
            return data[lo : lo + width]
        parts = []
        while addr < end:
            w = addr & ~15
            data = words.get(w, _ZERO_WORD)
            lo = addr - w
            hi = min(end - w, 16)
            parts.append(data[lo:hi])
            addr = w + 16
        return b"".join(parts)

    def write_bytes(self, addr: int, data: bytes) -> None:
        if not data:
            return
        words = self.words
        caps = self.caps
        end = addr + len(data)
        pos = 0
        w = addr & ~15
        while w < end:
            caps.pop(w, None)  # any data write clears the word's tag
            lo = max(addr, w) - w
            hi = min(end, w + 16) - w
            old = words.get(w, _ZERO_WORD)
            words[w] = old[:lo] + data[pos : pos + hi - lo] + old[hi:]
            pos += hi - lo
            w += 16
        return None

    # -- sweeps ---------------------------------------------------------

    def sweep_scan(
        self,
        colors,
        addresses: Optional[Iterable[int]] = None,
        include_registers: bool = True,
    ) -> int:
        """Clear the tag of every capability whose color is in `colors`.

        Visits tagged memory words in ascending address order (or only the
        given addresses), then the register file; returns the number of
        tags cleared.
        """
        cleared = 0
        caps = self.caps
        otypeth = self._otypeth
        if addresses is None:
            addresses = sorted(caps)
        for addr in addresses:
            cap = caps.get(addr)
            if cap is None:
                continue
            ot = cap.otype
            if ot is not None and 0 < ot < otypeth and ot in colors:
                del caps[addr]  # tag cleared; the packed image remains
                cleared += 1
        if include_registers:
            regs = self.regs
            for i in range(NUM_REGISTERS):
                cap = regs[i]
                if cap is not None and cap.tag:
                    ot = cap.otype
                    if ot is not None and 0 < ot < otypeth and ot in colors:
                        regs[i] = clear_tag(cap)
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

    # -- debugging dumps -------------------------------------------------

    def dump_memory(self) -> list[str]:
        """One line per populated word: addr=<hex> tag=<0|1> bytes=<32 hex>."""
        lines = []
        caps = self.caps
        for addr in sorted(self.words):
            tag = 1 if addr in caps else 0
            lines.append(f"addr={addr:#x} tag={tag} bytes={self.words[addr].hex()}")
        return lines

    def dump_pvt(self) -> list[str]:
        """Run-length encoded table state: `<lo>-<hi>:<valid|retracted>`."""
        lines = []
        run_start = 1
        run_state = self.pvb_retracted(1) if self._color_count > 1 else False
        for color in range(2, self._color_count):
            state = self.pvb_retracted(color)
            if state != run_state:
                word = "retracted" if run_state else "valid"
                lines.append(f"{run_start}-{color - 1}:{word}")
                run_start, run_state = color, state
        if self._color_count > 1:
            word = "retracted" if run_state else "valid"
            lines.append(f"{run_start}-{self._color_count - 1}:{word}")
        return lines
