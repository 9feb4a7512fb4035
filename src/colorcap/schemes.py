"""Comparison allocators over the shared tagged machine.

Five schemes implement the `Scheme` protocol that the harness drives.
Picasso is the malloc revocation shim itself; cornucopia (both variants)
and versioning's fallback share one quarantine component,
`_QuarantineScheme`:

* picasso         - colored capabilities, provenance retraction, threshold
                    sweeps, immediate heap reuse.
* cornucopia      - freed blocks quarantine behind a shadow bitmap until a
                    sweep revokes every capability into them; reuse waits.
* cornucopia-rof  - same, but every free triggers the sweep immediately.
* versioning      - 4-bit granule versions carried in the capability otype;
                    frees recolor the granules; version wrap optionally
                    falls back to quarantine plus sweeping.
* none            - spatial/tag checks only; no temporal protection.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Protocol, Union

from .capability import (
    PERMS_APP,
    PERMS_ROOT,
    UNSEALED,
    Capability,
    clear_tag,
    derive,
)
from .heap import FreeListHeap, round_up
from .machine import (
    FAULT_DOUBLE_FREE,
    FAULT_MALFORMED_FREE,
    Fault,
    FaultKind,
    TaggedMachine,
)
from .mrs import MallocRevocationShim

SCHEME_NAMES = ("picasso", "cornucopia", "cornucopia-rof", "versioning", "none")

VERSION_BITS = 4
VERSION_MASK = (1 << VERSION_BITS) - 1
#: Sweeps batch work: the quarantine-fraction trigger only engages once at
#: least this many bytes are quarantined (one page), so micro working sets
#: do not sweep on every free.
MIN_QUARANTINE_BYTES = 4096


def _intersects_shadow(shadow: set[int], base: int, top: int) -> bool:
    """Full-range test: does [base, top) touch any shadowed 16-byte word?"""
    if top <= base:
        return False
    first = base & ~15
    last = (top - 1) & ~15
    if (last - first) // 16 + 1 <= len(shadow):
        return any(w in shadow for w in range(first, last + 16, 16))
    return any(w + 16 > base and w < top for w in shadow)


def _sweep_shadowed(machine: TaggedMachine, shadow: set[int]) -> int:
    """Clear the tag of every capability whose range intersects the shadow
    bitmap; memory in ascending address order, then registers."""
    cleared = 0
    caps = machine.caps
    for addr in sorted(caps):
        cap = caps[addr]
        if _intersects_shadow(shadow, cap.base, cap.base + cap.length):
            del caps[addr]
            cleared += 1
    for i, cap in enumerate(machine.regs):
        if cap is not None and cap.tag:
            if _intersects_shadow(shadow, cap.base, cap.base + cap.length):
                machine.regs[i] = clear_tag(cap)
                cleared += 1
    return cleared


class Scheme(Protocol):
    """What `run_trace` drives: the allocator calls, checked data access,
    and the counters it harvests into `Metrics`."""

    name: str
    allocations: int
    frees: int
    revocations: int
    swept_tags: int
    peak_live_bytes: int
    peak_quarantine_bytes: int
    peak_resident_bytes: int
    peak_unr_bytes: int

    def malloc(self, size: int) -> Capability: ...
    def free(self, cap: Optional[Capability]) -> Optional[Fault]: ...
    def load(self, cap: Optional[Capability], offset: int, width: int) -> Union[bytes, Fault]: ...
    def store(self, cap: Optional[Capability], offset: int, data: bytes) -> Optional[Fault]: ...


class _BaseScheme:
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
        """Carve a block for `size` bytes from the heap and count it live."""
        block = round_up(size)
        base = self.heap.alloc(block)  # quarantined blocks are off the list
        self.live_bytes += block
        self.allocations += 1
        self._sample()
        return base, block

    def malloc(self, size: int) -> Capability:
        base, block = self._carve(size)
        self.live[base] = block
        return derive(self.root, base, block, PERMS_APP)

    # Data access: spatial/tag/permission checks via the machine, plus the
    # provenance check for colored capabilities (picasso's only).
    def load(self, cap, offset: int, width: int):
        return self.machine.load_data(cap, offset, width)

    def store(self, cap, offset: int, data: bytes):
        return self.machine.store_data(cap, offset, data)


class PicassoScheme(MallocRevocationShim):
    """The malloc revocation shim driven as a scheme.  Retraction replaces
    quarantine, so nothing is ever quarantined."""

    name = "picasso"
    peak_quarantine_bytes = 0
    load = _BaseScheme.load
    store = _BaseScheme.store

    def malloc(self, size: int) -> Capability:
        return self.m_malloc(size)

    def free(self, cap):
        return self.m_free(cap)


class _QuarantineScheme(_BaseScheme):
    """Cornucopia-style quarantine (Filardo et al., IEEE S&P 2020): freed
    blocks wait in a FIFO, their words marked in a shadow set, until a
    sweep has revoked every capability into them."""

    def __init__(self, machine: TaggedMachine, quarantine_fraction: float) -> None:
        super().__init__(machine)
        self.quarantine_fraction = quarantine_fraction
        self.quarantine: deque[tuple[int, int]] = deque()
        self.shadow: set[int] = set()  # word addresses of quarantined bytes

    def _quarantine(self, base: int, size: int, force: bool = False) -> None:
        """Hold a freed block back; sweep when forced or once the
        quarantine reaches its share of the resident bytes."""
        self.quarantine.append((base, size))
        self.quarantine_bytes += size
        self.shadow.update(range(base, base + size, 16))
        if force or self.quarantine_bytes >= max(
            MIN_QUARANTINE_BYTES,
            self.quarantine_fraction * (self.live_bytes + self.quarantine_bytes),
        ):
            self.revoke()

    def revoke(self) -> int:
        """Sweep memory and registers, clear the shadow, and return the
        quarantined blocks (FIFO) to the free list.  Returns bytes reclaimed."""
        self.revocations += 1
        self._sample()  # quarantine peaks right before it drains
        if self.shadow:
            self.swept_tags += _sweep_shadowed(self.machine, self.shadow)
        reclaimed = self.quarantine_bytes
        while self.quarantine:
            base, size = self.quarantine.popleft()
            self.heap.free(base, size)
        self.shadow.clear()
        self.quarantine_bytes = 0
        return reclaimed


class CornucopiaScheme(_QuarantineScheme):
    """Quarantine plus shadow bitmap; freed memory is not reused until a
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
            return FAULT_MALFORMED_FREE
        base = cap.base
        if (base & ~15) in self.shadow:
            return FAULT_DOUBLE_FREE  # base already quarantined
        size = self.live.pop(base, None)
        if size is None:
            return FAULT_MALFORMED_FREE
        self.live_bytes -= size
        self.frees += 1
        self._quarantine(base, size, force=self.revoke_on_free)
        self._sample()
        return None


class NoneScheme(_BaseScheme):
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
        self._sample()
        return None


class VersioningScheme(_QuarantineScheme):
    """4-bit memory versioning composed with quarantine fallback.

    Each 16-byte heap granule carries a version; the capability carries the
    matching version in its otype low bits.  Free recolors the granules, so
    stale capabilities mismatch and fault.  After 16 recolorings a granule's
    version wraps and stale capabilities may collide with fresh ones; with
    the fallback enabled, wrapping blocks are quarantined and swept the
    Cornucopia way instead of being reused.
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
        self.granule_version: dict[int, int] = {}
        self.wraps = 0

    def malloc(self, size: int) -> Capability:
        base, block = self._carve(size)
        versions = self.granule_version
        version = versions.get(base, 0)
        # A coalesced block can span granules with divergent histories;
        # the allocation must present one version, so propagate the first.
        for granule in range(base, base + block, 16):
            versions[granule] = version
        self.live[base] = (block, version)
        # The version rides in the otype directly; version 0 is legitimate
        # here, so the color-assignment path (which reserves 0) is bypassed.
        return Capability(base, base, block, PERMS_APP, version, True)

    def free(self, cap):
        if cap is None or not cap.tag:
            return FAULT_MALFORMED_FREE
        if cap.otype is None:
            return FAULT_MALFORMED_FREE  # no version carried
        version = cap.otype & VERSION_MASK
        record = self.live.get(cap.base)
        if record is None:
            # Not an allocation start: a matching granule version means a
            # live block's interior; a mismatch means the block moved on.
            if self.granule_version.get(cap.base & ~15, 0) == version:
                return FAULT_MALFORMED_FREE
            return FAULT_DOUBLE_FREE
        size, current = record
        if current != version:
            return FAULT_DOUBLE_FREE
        wrapped = False
        versions = self.granule_version
        for granule in range(cap.base, cap.base + size, 16):
            bumped = (versions.get(granule, 0) + 1) & VERSION_MASK
            versions[granule] = bumped
            if bumped == 0:
                wrapped = True
        del self.live[cap.base]
        self.live_bytes -= size
        self.frees += 1
        if wrapped:
            self.wraps += 1
        if wrapped and self.exhaustion_fallback:
            self._quarantine(cap.base, size)
        else:
            self.heap.free(cap.base, size)
        self._sample()
        return None

    def _check(self, cap, offset: int, width: int, kind: str):
        fault = self.machine.check_access(cap, offset, width, kind, provenance=False)
        if fault is not None:
            return fault
        if cap.otype is None:
            return None
        version = cap.otype & VERSION_MASK
        versions = self.granule_version
        start = cap.address + offset
        end = start + width
        for granule in range(start & ~15, end, 16):
            if versions.get(granule, 0) != version:
                return Fault(FaultKind.PROVENANCE_RETRACTED, version)
        return None

    def load(self, cap, offset: int, width: int):
        fault = self._check(cap, offset, width, "read")
        if fault is not None:
            return fault
        return self.machine.read_bytes(cap.address + offset, width)

    def store(self, cap, offset: int, data: bytes):
        fault = self._check(cap, offset, len(data), "write")
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
) -> Scheme:
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
