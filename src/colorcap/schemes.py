"""Comparison allocators over the shared tagged machine.

All five schemes build on `heap.HeapScheme`, which sets up the heap, the
live map and the counters the harness harvests, so they differ only in the
otype malloc stamps, what free does and how a stale capability is caught.
Picasso is the malloc revocation shim itself, `PicassoScheme` a second name
for it; none and cornucopia (both variants) share `HeapScheme.malloc`, and
cornucopia and versioning's fallback share one quarantine component,
`_QuarantineScheme`.  Every sweep is the one revocation job of
`heap.HeapScheme`, with its window (`RunConfig.sweep_window`): picasso's
selector dooms its target colors, the quarantine's, `quarantine_selector`,
every capability into the blocks the sweep froze.  Every scheme is a class
in `SCHEMES`, keyed by its name, built from the machine alone; it reads its
tunables (revocation threshold, sweep window, quarantine fraction,
versioning fallback) from `machine.config`:

* picasso         - colored capabilities, provenance retraction, threshold
                    sweeps, immediate heap reuse.
* cornucopia      - freed blocks wait in a quarantine list until a sweep
                    revokes every capability into them; reuse waits.
* cornucopia-rof  - same, but every free sweeps to completion at once,
                    whatever the window, so the block is reusable on return.
* versioning      - 4-bit granule versions carried in the capability otype;
                    frees recolor the granules; version wrap optionally
                    falls back to quarantine plus sweeping.
* none            - spatial/tag checks only; no temporal protection.
"""

from __future__ import annotations

from bisect import bisect_left

from .capability import PERM_LOAD, PERM_STORE, PERMS_APP, UNSEALED, Capability, ConfigError
from .heap import HeapScheme
from .machine import FaultKind, TaggedMachine
from .mrs import MallocRevocationShim

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


PicassoScheme = MallocRevocationShim


class _QuarantineScheme(HeapScheme):
    """Cornucopia-style quarantine (Filardo et al., IEEE S&P 2020): freed
    blocks wait, as (base, top) pairs in one list, until a sweep has
    revoked every capability into them.  A sweep freezes the list as its
    targets, and blocks freed while it runs wait for the next one; running
    out of heap forces both sweeps early (see `HeapScheme._carve`)."""

    revoke_on_free = False

    def __init__(self, machine: TaggedMachine) -> None:
        super().__init__(machine)
        self.quarantine_fraction = machine.config.quarantine_fraction
        self.quarantine: list[tuple[int, int]] = []  # disjoint, in free order

    def _quarantine(self, base: int, size: int) -> None:
        """Hold a freed block back; sweep at once under `revoke_on_free`, else
        start a sweep, if none runs, once the quarantine reaches its share."""
        self.quarantine.append((base, base + size))
        self.quarantine_bytes += size
        self._sample()  # the only point after a free where a peak can rise
        if self.revoke_on_free:
            self._start_job(None)
        elif self.quarantine_bytes >= max(
            MIN_QUARANTINE_BYTES,
            self.quarantine_fraction * (self.live_bytes + self.quarantine_bytes),
        ) and self.job is None:
            self._start_job(self.sweep_window)

    def revoke(self) -> None:
        """Finish the sweep in flight, if any, then sweep what is left of the
        quarantine at once."""
        if self.job is not None:
            self._advance(None)
        if self.quarantine:
            self._start_job(None)

    def _freeze(self):
        blocks, self.quarantine = sorted(self.quarantine), []
        return quarantine_selector(blocks), blocks

    def _release(self, blocks) -> None:
        """Give the blocks back to the heap, each adjacent run as one block."""
        start = end = blocks[0][0]
        for base, top in blocks:
            if base != end:  # a gap closes the run
                self.heap.free(start, end - start)
                self.quarantine_bytes -= end - start
                start = base
            end = top
        self.heap.free(start, end - start)
        self.quarantine_bytes -= end - start


class CornucopiaScheme(_QuarantineScheme):
    """Quarantine as a block list; freed memory is not reused until a
    completed sweep revokes every capability into it."""

    name = "cornucopia"

    def free(self, cap):
        if not cap.tag:
            return FaultKind.MALFORMED_FREE
        base = cap.base
        size = self.live.pop(base, None)
        if size is None:  # a live block's base is never quarantined or frozen
            frozen = self.job.targets if self.job is not None else []
            held = any(start <= base < top for start, top in self.quarantine + frozen)
            return FaultKind.DOUBLE_FREE if held else FaultKind.MALFORMED_FREE
        self.live_bytes -= size
        self.frees += 1
        self._quarantine(base, size)
        return None


class CornucopiaRofScheme(CornucopiaScheme):
    """Cornucopia sweeping on every free: a freed block is reusable at once."""

    name = "cornucopia-rof"
    revoke_on_free = True


class NoneScheme(HeapScheme):
    """Spatial safety only.  Frees that do not name a live allocation are
    silently ignored - there is no temporal bookkeeping to catch them - and
    dangling capabilities stay usable."""

    name = "none"

    def free(self, cap):
        if not cap.tag:
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

    The versions live in `versions`, one byte per granule at index
    `(addr - heap_base) >> 4`, from empty up to the end of the highest block
    malloc carved: first fit carves upward, so the table follows the heap's
    high-water mark, not its size.  Malloc, free and the access check each
    touch a block's granules with one bytes operation (a slice fill from
    `_FILL`, a `translate` through `_BUMP`, a `count`, and a zero `extend`
    past the table's end), so no Python loop runs per granule.
    """

    name = "versioning"

    def __init__(self, machine: TaggedMachine) -> None:
        super().__init__(machine)
        self.heap_base = machine.config.heap_base
        self.versions = bytearray()

    def malloc(self, size: int) -> Capability:
        if self.job is not None:
            self._advance(self.sweep_window)
        base, block = self._carve(size)
        versions = self.versions
        lo = (base - self.heap_base) >> 4
        hi = lo + (n := block >> 4)
        if hi > len(versions):  # never-carved granules are at version 0
            versions.extend(bytes(hi - len(versions)))
        version = versions[lo]
        # A coalesced block can span granules with divergent histories;
        # the allocation must present one version, so propagate the first.
        versions[lo:hi] = _FILL[version] * n
        self.live[base] = block
        # The version rides in the otype; unlike a color, it may be 0.
        return Capability(base, base, block, PERMS_APP, version, True)

    def free(self, cap):
        if not cap.tag:
            return FaultKind.MALFORMED_FREE
        if cap.otype == UNSEALED:
            return FaultKind.MALFORMED_FREE  # no version carried
        version = cap.otype & VERSION_MASK
        versions = self.versions
        lo = (cap.base - self.heap_base) >> 4
        size = self.live.get(cap.base)
        if size is None:
            # Not an allocation start: a matching granule version means a
            # live block's interior; a mismatch means the block moved on.
            # A zero-length capability at the top of the highest carved
            # block indexes the table's end and reads as version 0.
            if (versions[lo] if 0 <= lo < len(versions) else 0) == version:
                return FaultKind.MALFORMED_FREE
            return FaultKind.DOUBLE_FREE
        if versions[lo] != version:  # only this free changes malloc's fill
            return FaultKind.DOUBLE_FREE
        hi = lo + (size >> 4)
        bumped = versions[lo:hi].translate(_BUMP)
        versions[lo:hi] = bumped
        wrapped = 0 in bumped
        del self.live[cap.base]
        self.live_bytes -= size
        self.frees += 1
        if wrapped and self.machine.config.versioning_fallback:
            self._quarantine(cap.base, size)
        else:
            self.heap.free(cap.base, size)
        return None

    def _check(self, cap, offset: int, width: int, need: int):
        fault = self.machine.check_access(cap, offset, width, need, provenance=False)
        if fault is not None:
            return fault
        if cap.otype == UNSEALED:
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


SCHEMES = {cls.name: cls for cls in (PicassoScheme, CornucopiaScheme, CornucopiaRofScheme,
                                     VersioningScheme, NoneScheme)}
SCHEME_NAMES = tuple(SCHEMES)


def make_scheme(name: str, machine: TaggedMachine) -> HeapScheme:
    """Build scheme `name` on `machine`; its tunables come from
    `machine.config`."""
    cls = SCHEMES.get(name)
    if cls is None:
        raise ConfigError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
    return cls(machine)
