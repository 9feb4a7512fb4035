"""Comparison allocators over the shared tagged machine.

All five schemes build on `heap.HeapScheme`, which sets up the heap, the
root capability, the live map and the counters the harness harvests, so
they differ only in what free does and how a stale capability is caught.
Picasso is the malloc revocation shim itself; cornucopia (both variants)
and versioning's fallback share one quarantine component,
`_QuarantineScheme`, whose sweep selector is `quarantine_selector`:

* picasso         - colored capabilities, provenance retraction, threshold
                    sweeps, immediate heap reuse.
* cornucopia      - freed blocks wait in a quarantine list until a sweep
                    revokes every capability into them; reuse waits.
* cornucopia-rof  - same, but every free triggers the sweep immediately.
* versioning      - 4-bit granule versions carried in the capability otype;
                    frees recolor the granules; version wrap optionally
                    falls back to quarantine plus sweeping.  The versions
                    are a byte table, one byte per heap granule (4 MiB for
                    a 64 MiB heap), read and written with C-level bytes
                    operations rather than a Python loop per granule; an
                    address off the heap reads as version 0.
* none            - spatial/tag checks only; no temporal protection.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .capability import PERM_LOAD, PERM_STORE, PERMS_APP, Capability
from .heap import HeapScheme
from .machine import FaultKind, TaggedMachine
from .mrs import MallocRevocationShim

SCHEME_NAMES = ("picasso", "cornucopia", "cornucopia-rof", "versioning", "none")

VERSION_BITS = 4
VERSION_MASK = (1 << VERSION_BITS) - 1
#: Sweeps batch work: the quarantine-fraction trigger only engages once at
#: least this many bytes are quarantined (one page), so micro working sets
#: do not sweep on every free.
MIN_QUARANTINE_BYTES = 4096
#: `bytes.translate` table that bumps a granule version: v -> (v + 1) & mask.
_BUMP = bytes((v + 1) & VERSION_MASK for v in range(256))
#: One granule of each version, repeated to fill a block at malloc.
_FILL = tuple(bytes((v,)) for v in range(1 << VERSION_BITS))


def quarantine_selector(blocks: list[tuple[int, int]]):
    """The sweep selector that dooms every non-empty capability overlapping
    one of `blocks`, disjoint (base, top) pairs sorted by base.  Only the
    last block starting below a capability's top can overlap it; ranges
    outside [first, last) are dropped before the bisect, so its index is
    never -1."""
    bases = [base for base, _ in blocks]
    tops = [top for _, top in blocks]
    first, last = bases[0], tops[-1]
    return lambda pairs: [
        key
        for key, cap in pairs
        if (base := cap.base) < last
        and (top := base + cap.length) > first
        and top > base
        and tops[bisect_left(bases, top) - 1] > base
    ]


class PicassoScheme(MallocRevocationShim):
    """The malloc revocation shim driven as a scheme.  Retraction replaces
    quarantine, so nothing is ever quarantined."""

    name = "picasso"

    def malloc(self, size: int) -> Capability:
        return self.m_malloc(size)

    def free(self, cap):
        return self.m_free(cap)


class _QuarantineScheme(HeapScheme):
    """Cornucopia-style quarantine (Filardo et al., IEEE S&P 2020): freed
    blocks wait, as (base, top) pairs in one list, until a sweep has
    revoked every capability into them; running out of heap forces that
    sweep early (see `HeapScheme._carve`).  Its selector is built once per
    sweep by `quarantine_selector`."""

    def __init__(self, machine: TaggedMachine, quarantine_fraction: float) -> None:
        super().__init__(machine)
        self.quarantine_fraction = quarantine_fraction
        self.quarantine: list[tuple[int, int]] = []  # disjoint, in free order

    def _quarantine(self, base: int, size: int, force: bool = False) -> None:
        """Hold a freed block back; sweep when forced or once the
        quarantine reaches its share of the resident bytes."""
        self.quarantine.append((base, base + size))
        self.quarantine_bytes += size
        self._sample()  # the only point after a free where a peak can rise
        if force or self.quarantine_bytes >= max(
            MIN_QUARANTINE_BYTES,
            self.quarantine_fraction * (self.live_bytes + self.quarantine_bytes),
        ):
            self.revoke()

    def revoke(self) -> int:
        """Sweep memory and registers for capabilities into the quarantine,
        then return its blocks to the free list.  Returns bytes reclaimed."""
        self.revocations += 1
        blocks = self.quarantine
        if blocks:
            blocks.sort()
            self.swept_tags += self.machine.sweep_scan(quarantine_selector(blocks))
        for base, top in blocks:  # coalescing makes the order immaterial
            self.heap.free(base, top - base)
        self.quarantine = []
        reclaimed = self.quarantine_bytes
        self.quarantine_bytes = 0
        return reclaimed

    def _held(self, addr: int) -> bool:
        """Is `addr` inside a quarantined block?  Fault path only."""
        return any(base <= addr < top for base, top in self.quarantine)


class CornucopiaScheme(_QuarantineScheme):
    """Quarantine as a block list; freed memory is not reused until a
    completed sweep revokes every capability into it."""

    name = "cornucopia"

    def __init__(
        self,
        machine: TaggedMachine,
        quarantine_fraction: float = 0.25,
        revoke_on_free: bool = False,
    ) -> None:
        super().__init__(machine, quarantine_fraction)
        self.revoke_on_free = revoke_on_free
        if revoke_on_free:
            self.name = "cornucopia-rof"

    def free(self, cap):
        if cap is None or not cap.tag:
            return FaultKind.MALFORMED_FREE
        base = cap.base
        size = self.live.pop(base, None)
        if size is None:  # a live block's base is never quarantined
            return FaultKind.DOUBLE_FREE if self._held(base) else FaultKind.MALFORMED_FREE
        self.live_bytes -= size
        self.frees += 1
        self._quarantine(base, size, force=self.revoke_on_free)
        return None


class NoneScheme(HeapScheme):
    """Spatial safety only.  Frees that do not name a live allocation are
    silently ignored - there is no temporal bookkeeping to catch them - and
    dangling capabilities stay usable."""

    name = "none"

    def free(self, cap):
        if cap is None or not cap.tag:
            return None
        size = self.live.pop(cap.base, None)
        if size is None:
            return None
        self.live_bytes -= size
        self.heap.free(cap.base, size)
        self.frees += 1
        return None


class VersioningScheme(_QuarantineScheme):
    """4-bit memory versioning composed with quarantine fallback.

    Each 16-byte heap granule carries a version; the capability carries the
    matching version in its otype low bits.  Free recolors the granules, so
    stale capabilities mismatch and fault.  After 16 recolorings a granule's
    version wraps and stale capabilities may collide with fresh ones; with
    the fallback enabled, wrapping blocks are quarantined and swept the
    Cornucopia way instead of being reused.

    The versions live in `versions`, one byte per heap granule at index
    `(addr - heap_base) >> 4` (4 MiB for a 64 MiB heap).  Malloc, free and
    the access check each touch a block's granules with one bytes operation
    (a slice fill from `_FILL`, a `translate` through `_BUMP`, a `count`),
    so no Python loop runs per granule.  An address off the heap reads as
    version 0.
    """

    name = "versioning"

    def __init__(
        self,
        machine: TaggedMachine,
        exhaustion_fallback: bool = True,
        quarantine_fraction: float = 0.25,
    ) -> None:
        super().__init__(machine, quarantine_fraction)
        self.exhaustion_fallback = exhaustion_fallback
        self.heap_base = machine.config.heap_base
        self.versions = bytearray(machine.config.heap_size >> 4)
        self.wraps = 0

    def malloc(self, size: int) -> Capability:
        base, block = self._carve(size)
        versions = self.versions
        lo = (base - self.heap_base) >> 4
        n = block >> 4
        version = versions[lo]
        # A coalesced block can span granules with divergent histories;
        # the allocation must present one version, so propagate the first.
        versions[lo : lo + n] = _FILL[version] * n
        self.live[base] = (block, version)
        # The version rides in the otype directly; version 0 is legitimate
        # here, so the color-assignment path (which reserves 0) is bypassed.
        return Capability(base, base, block, PERMS_APP, version, True)

    def free(self, cap):
        if cap is None or not cap.tag:
            return FaultKind.MALFORMED_FREE
        if cap.otype is None:
            return FaultKind.MALFORMED_FREE  # no version carried
        version = cap.otype & VERSION_MASK
        versions = self.versions
        lo = (cap.base - self.heap_base) >> 4
        record = self.live.get(cap.base)
        if record is None:
            # Not an allocation start: a matching granule version means a
            # live block's interior; a mismatch means the block moved on.
            # A zero-length capability at the heap top indexes one past
            # the table and reads as version 0.
            if (versions[lo] if 0 <= lo < len(versions) else 0) == version:
                return FaultKind.MALFORMED_FREE
            return FaultKind.DOUBLE_FREE
        size, current = record
        if current != version:
            return FaultKind.DOUBLE_FREE
        hi = lo + (size >> 4)
        bumped = versions[lo:hi].translate(_BUMP)
        versions[lo:hi] = bumped
        wrapped = 0 in bumped
        del self.live[cap.base]
        self.live_bytes -= size
        self.frees += 1
        if wrapped:
            self.wraps += 1
        if wrapped and self.exhaustion_fallback:
            self._quarantine(cap.base, size)
        else:
            self.heap.free(cap.base, size)
        return None

    def _check(self, cap, offset: int, width: int, need: int):
        fault = self.machine.check_access(cap, offset, width, need, provenance=False)
        if fault is not None:
            return fault
        if cap.otype is None:
            return None
        version = cap.otype & VERSION_MASK
        # A capability with an otype lies inside the block malloc gave out,
        # so every granule from the one holding `start` up to `end` is on
        # the heap; a zero-width access at an unaligned address checks one.
        start = cap.address + offset - self.heap_base
        lo = start >> 4
        hi = (start + width + 15) >> 4
        if self.versions.count(version, lo, hi) != hi - lo:
            return FaultKind.PROVENANCE_RETRACTED
        return None

    def load(self, cap, offset: int, width: int):
        fault = self._check(cap, offset, width, PERM_LOAD)
        if fault is not None:
            return fault
        return self.machine.read_bytes(cap.address + offset, width)

    def store(self, cap, offset: int, data: bytes):
        fault = self._check(cap, offset, len(data), PERM_STORE)
        if fault is not None:
            return fault
        self.machine.write_bytes(cap.address + offset, data)
        return None


def make_scheme(
    name: str,
    machine: TaggedMachine,
    threshold_fraction: float = 0.01,
    quarantine_fraction: float = 0.25,
    sweep_window: Optional[int] = None,
    versioning_fallback: bool = True,
) -> HeapScheme:
    if name == "picasso":
        return PicassoScheme(machine, threshold_fraction, sweep_window)
    if name == "cornucopia":
        return CornucopiaScheme(machine, quarantine_fraction, revoke_on_free=False)
    if name == "cornucopia-rof":
        return CornucopiaScheme(machine, quarantine_fraction, revoke_on_free=True)
    if name == "versioning":
        return VersioningScheme(machine, versioning_fallback, quarantine_fraction)
    if name == "none":
        return NoneScheme(machine)
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
