"""A naive whole-run model of the simulator: every policy it has, written
once more with the plainest data structures.  `FlatHeap` is first fit over
one flat list; `DictVersioning` keeps granule versions in a dict, and its
malloc gives a block its first granule's version; `SetColors` keeps
picasso's colors as a set, claimed lowest first, and the PVT as the set of
retracted colors; `ListQuarantine` holds cornucopia's freed blocks in a
list, and a sweep freezes that list; `FlatScheme.start_sweep` runs every
sweep, and `per_capability_sweep` tests one capability at a time, in
address order; `ListClearingPvtBuffer` empties every set on a flush; and
`EagerPackMemory` packs a capability when it is stored and moves data one
byte at a time.

`installed()` patches `harness.TaggedMachine` and `harness.make_scheme`, so
the real `run_trace` replays on the model.  From the modules it models, the
model imports only exceptions, `FaultKind` and constants.  It shares three
things with the simulator, none of them a policy under test:

* `run_trace`: its oracle, `_fill_bytes`, read digest and `Metrics` are the
  instrument both runs are read with;
* `Capability`, `derive`, `pack` and `unpack`: formats, not policies;
* `UnrState`'s node bytes, which `peak_unr_bytes` is defined by.  Each
  color `SetColors` claims is claimed in a `UnrState` too, and a finished
  sweep gives its colors back as one-ID runs in one `batch_release` call:
  the nodes of one builder step per ID, which tests/test_unr.py shows
  equal to a release by runs.
"""

import math
from bisect import bisect_left
from contextlib import contextmanager
from unittest import mock

from colorcap import harness
from colorcap.capability import (CAPABILITY_WIDTH, NULL_CAP, PERM_LOAD, PERM_LOAD_CAP,
                                 PERM_STORE, PERM_STORE_CAP, PERMS_APP, UNSEALED, Capability,
                                 clear_tag, pack, unpack)
from colorcap.heap import GRANULE, OutOfMemory
from colorcap.machine import NUM_REGISTERS, PVB_SETS, PVB_WAYS, FaultKind
from colorcap.mrs import PoolExhausted
from colorcap.schemes import MIN_QUARANTINE_BYTES, VERSION_MASK
from colorcap.unr import UnrState


class FlatHeap:
    """First fit over one flat [base, size] list sorted by base."""

    def __init__(self, base: int, size: int) -> None:
        self.free_blocks = [[base, size]]

    def alloc(self, size: int) -> int:
        for block in self.free_blocks:
            if block[1] >= size:
                base = block[0]
                if block[1] == size:
                    self.free_blocks.remove(block)
                else:
                    block[:] = base + size, block[1] - size
                return base
        raise OutOfMemory(f"no free block of {size} bytes")

    def free(self, base: int, size: int) -> None:
        """Insert the block in base order, merged with the free blocks it touches."""
        blocks = self.free_blocks
        i = bisect_left(blocks, [base, 0])
        if i < len(blocks) and blocks[i][0] == base + size:
            size += blocks.pop(i)[1]
        if i and blocks[i - 1][0] + blocks[i - 1][1] == base:
            blocks[i - 1][1] += size
        else:
            blocks.insert(i, [base, size])


class ListClearingPvtBuffer:
    """PVB_SETS sets of up to PVB_WAYS PVT word indices, word `w` in set
    `w % PVB_SETS`, replaced round-robin; a flush empties every set."""

    def __init__(self) -> None:
        self.lines = [[] for _ in range(PVB_SETS)]
        self.rr = [0] * PVB_SETS
        self.hits = self.misses = self.invalidations = 0

    def lookup(self, word: int) -> None:
        idx = word % PVB_SETS
        ways = self.lines[idx]
        if word in ways:
            self.hits += 1
            return
        self.misses += 1
        if len(ways) < PVB_WAYS:
            ways.append(word)
        else:
            ways[self.rr[idx]] = word
            self.rr[idx] = (self.rr[idx] + 1) % PVB_WAYS

    def invalidate_all(self) -> None:
        for ways in self.lines:
            ways.clear()
        self.invalidations += 1


class EagerPackMemory:
    """`images` holds each written word's 16 bytes, packed when a
    capability is stored; `caps` holds each tagged word's capability.
    Data moves one byte at a time and untags every word it writes."""

    def __init__(self) -> None:
        self.images: dict[int, bytes] = {}
        self.caps: dict[int, Capability] = {}

    def store_cap(self, addr: int, value: Capability) -> None:
        self.images[addr] = pack(value)
        if value.tag:
            self.caps[addr] = value
        else:
            self.caps.pop(addr, None)

    def load_cap(self, addr: int) -> Capability:
        cap = self.caps.get(addr)
        return cap if cap is not None else unpack(self.images.get(addr, bytes(16)))

    def write(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            word = (addr + i) & ~15
            self.caps.pop(word, None)
            image = bytearray(self.images.get(word, bytes(16)))
            image[(addr + i) & 15] = byte
            self.images[word] = bytes(image)

    def read(self, addr: int, width: int) -> bytes:
        return bytes(self.images.get(a & ~15, bytes(16))[a & 15] for a in range(addr, addr + width))


class ReferenceMachine:
    """What `run_trace` uses of `TaggedMachine`: 32 registers, checked
    capability stores and loads over `EagerPackMemory`, and the PVT as the
    set of retracted colors, read through `ListClearingPvtBuffer`."""

    def __init__(self, config) -> None:
        config.validate()
        self.config = config
        self.memory = EagerPackMemory()
        self.regs = [NULL_CAP] * NUM_REGISTERS
        self.retracted: set[int] = set()
        self.pvt_buffer = ListClearingPvtBuffer() if config.pvt_buffer else None
        self.pvt_lookups = 0
        self.logged = None  # a running sweep's addresses of tagged stores

    def set_pvt(self, colors, retracted: bool) -> None:
        """Set or clear the colors' bits; a change flushes the buffer."""
        new = self.retracted | colors if retracted else self.retracted - colors
        if new != self.retracted and self.pvt_buffer is not None:
            self.pvt_buffer.invalidate_all()
        self.retracted = new

    def check_access(self, cap, offset, width, need, provenance=True):
        """The first fault of: untagged, sealed, permission, bounds, and a
        retracted color (the PVT is read for a color, with `provenance`)."""
        if cap is None or not cap.tag:
            return FaultKind.UNTAGGED_OPERAND
        otype = cap.otype or 0
        if otype >= self.config.color_count:
            return FaultKind.SEALED_DEREFERENCE
        if not cap.perms & need:
            return FaultKind.PERMISSION_DENIED
        start = cap.address + offset
        if width < 0 or start < cap.base or start + width > cap.base + cap.length:
            return FaultKind.SPATIAL_OUT_OF_BOUNDS
        if provenance and otype > 0:
            self.pvt_lookups += 1
            if self.pvt_buffer is not None:
                self.pvt_buffer.lookup(otype >> 7)
            if otype in self.retracted:
                return FaultKind.PROVENANCE_RETRACTED
        return None

    def check_word(self, auth, offset, need):
        """The word `auth` + `offset`, and the fault of a capability access to it."""
        target = auth.address + offset if auth is not None else offset
        if target % CAPABILITY_WIDTH:
            return target, FaultKind.SPATIAL_OUT_OF_BOUNDS
        return target, self.check_access(auth, offset, CAPABILITY_WIDTH, need)

    def store_cap(self, auth, offset, value):
        target, fault = self.check_word(auth, offset, PERM_STORE_CAP)
        if fault is None:
            self.memory.store_cap(target, value)
            if value.tag and self.logged is not None:
                self.logged.add(target)
        return fault

    def load_cap(self, auth, offset):
        target, fault = self.check_word(auth, offset, PERM_LOAD_CAP)
        return fault if fault is not None else self.memory.load_cap(target)


def per_capability_sweep(machine, doomed, addresses=None, registers=True) -> int:
    """Untag each tagged word in address order (or each of `addresses`),
    then each register, whose capability `doomed(cap)` names; returns the
    number untagged."""
    caps = machine.memory.caps
    cleared = 0
    for addr in sorted(caps) if addresses is None else addresses:
        if addr in caps and doomed(caps[addr]):
            del caps[addr]  # its packed image stays
            cleared += 1
    for i, cap in enumerate(machine.regs if registers else ()):
        if cap is not None and cap.tag and doomed(cap):
            machine.regs[i] = clear_tag(cap)
            cleared += 1
    return cleared


def overlaps_a_block(blocks):
    """The quarantine sweep's test: a non-empty range that overlaps one of
    `blocks`, (base, top) pairs, tried one by one."""

    def doomed(cap):
        top = cap.base + cap.length
        return top > cap.base and any(base < top and cap.base < end for base, end in blocks)

    return doomed


class FlatScheme:
    """The `none` scheme, and what every scheme has: a `FlatHeap`, the live
    map, the counters `run_trace` reads, and checked data access."""

    name = "none"

    def __init__(self, machine: ReferenceMachine) -> None:
        self.machine = machine
        self.heap = FlatHeap(machine.config.heap_base, machine.config.heap_size)
        self.live: dict = {}
        self.quarantine: list[tuple[int, int]] = []
        self.frozen: list[tuple[int, int]] = []  # the running sweep's blocks
        self.sweep = None  # a running sweep's doomed test
        self.unscanned: list[int] = []  # the words it has still to scan
        self.swept = 0  # the tags it has cleared
        self.allocations = self.frees = self.revocations = self.swept_tags = 0
        self.live_bytes = self.quarantine_bytes = self.pvt_bytes = 0
        self.peak_live_bytes = self.peak_quarantine_bytes = self.peak_resident_bytes = 0
        self.peak_unr_bytes = 0

    def sample(self) -> None:
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.peak_quarantine_bytes = max(self.peak_quarantine_bytes, self.quarantine_bytes)
        resident = self.live_bytes + self.quarantine_bytes
        self.peak_resident_bytes = max(self.peak_resident_bytes, resident)

    def carve(self, size: int) -> tuple[int, int]:
        """A block of `size` rounded up to granules; out of heap with blocks
        quarantined or frozen, sweep them all and try once more."""
        block = -(-size // GRANULE) * GRANULE
        try:
            base = self.heap.alloc(block)
        except OutOfMemory:
            if not self.quarantine and not self.frozen:
                raise
            self.revoke()
            base = self.heap.alloc(block)
        self.live_bytes += block
        self.allocations += 1
        self.sample()
        return base, block

    def malloc(self, size: int) -> Capability:
        if self.sweep is not None:
            self.advance(self.machine.config.sweep_window)
        base, block = self.carve(size)
        self.live[base] = block
        return Capability(base, base, block, PERMS_APP, UNSEALED, True)

    def start_sweep(self, doomed, window) -> None:
        """Count a sweep that untags each capability `doomed` names: the
        tagged words as they stand, in address order, `window` per malloc
        (all at once without a window), then the words stored to since it
        started and the registers; then `finish`."""
        self.sweep, self.unscanned, self.swept = doomed, sorted(self.machine.memory.caps), 0
        self.machine.logged = set()
        self.revocations += 1
        self.sample()
        if window is None:
            self.advance(None)

    def advance(self, window) -> None:
        """Scan up to `window` more words (None: all); once every word is
        scanned, finish the sweep."""
        chunk = self.unscanned[:window]
        del self.unscanned[:window]
        self.swept += per_capability_sweep(self.machine, self.sweep, chunk, registers=False)
        if not self.unscanned:
            logged, self.machine.logged = self.machine.logged, None
            self.swept += per_capability_sweep(self.machine, self.sweep, sorted(logged))
            self.finish()
            self.swept_tags += self.swept
            self.sweep = None
            self.sample()

    def free(self, cap):
        if cap is not None and cap.tag and cap.base in self.live:
            size = self.live.pop(cap.base)
            self.live_bytes -= size
            self.heap.free(cap.base, size)
            self.frees += 1
        return None

    def check(self, cap, offset, width, need):
        return self.machine.check_access(cap, offset, width, need)

    def load(self, cap, offset, width):
        fault = self.check(cap, offset, width, PERM_LOAD)
        return fault if fault is not None else self.machine.memory.read(cap.address + offset, width)

    def store(self, cap, offset, data):
        fault = self.check(cap, offset, len(data), PERM_STORE)
        if fault is None:
            self.machine.memory.write(cap.address + offset, data)
        return fault


class ListQuarantine(FlatScheme):
    """Cornucopia: a freed block waits in the quarantine list until a sweep
    of memory and registers revokes every capability into it.  A sweep
    freezes the list; blocks freed while it runs wait for the next."""

    name = "cornucopia"
    revoke_on_free = False

    def free(self, cap):
        if cap is None or not cap.tag:
            return FaultKind.MALFORMED_FREE
        if cap.base not in self.live:
            if any(base <= cap.base < top for base, top in self.quarantine + self.frozen):
                return FaultKind.DOUBLE_FREE
            return FaultKind.MALFORMED_FREE
        size = self.live.pop(cap.base)
        self.live_bytes -= size
        self.frees += 1
        self.hold(cap.base, size)
        return None

    def hold(self, base: int, size: int) -> None:
        """Quarantine a block; sweep at once under revoke-on-free, or, with
        no sweep running, when the quarantine reaches its share of the
        resident bytes."""
        self.quarantine.append((base, base + size))
        self.quarantine_bytes += size
        self.sample()
        share = self.machine.config.quarantine_fraction * (self.live_bytes + self.quarantine_bytes)
        if self.revoke_on_free:
            self.freeze(None)
        elif self.sweep is None and self.quarantine_bytes >= max(MIN_QUARANTINE_BYTES, share):
            self.freeze(self.machine.config.sweep_window)

    def freeze(self, window) -> None:
        """Sweep the quarantine's blocks, frozen as they stand."""
        self.frozen, self.quarantine = self.quarantine, []
        self.start_sweep(overlaps_a_block(self.frozen), window)

    def finish(self) -> None:
        for base, top in self.frozen:
            self.heap.free(base, top - base)
            self.quarantine_bytes -= top - base
        self.frozen = []

    def revoke(self) -> None:
        """Out of heap: finish the running sweep, then sweep the rest at once."""
        if self.sweep is not None:
            self.advance(None)
        if self.quarantine:
            self.freeze(None)


class RevokeOnFree(ListQuarantine):
    name = "cornucopia-rof"
    revoke_on_free = True


class DictVersioning(ListQuarantine):
    """Memory versioning: each granule's version in a dict (0 when unset),
    the capability's in its otype.  A block that a free wraps goes to the
    quarantine under `versioning_fallback`, else back to the heap."""

    name = "versioning"

    def __init__(self, machine: ReferenceMachine) -> None:
        super().__init__(machine)
        self.versions: dict[int, int] = {}

    def malloc(self, size: int) -> Capability:
        if self.sweep is not None:
            self.advance(self.machine.config.sweep_window)
        base, block = self.carve(size)
        version = self.versions.get(base, 0)
        for granule in range(base, base + block, GRANULE):
            self.versions[granule] = version
        self.live[base] = (block, version)
        return Capability(base, base, block, PERMS_APP, version, True)

    def free(self, cap):
        if cap is None or not cap.tag or cap.otype == UNSEALED:
            return FaultKind.MALFORMED_FREE
        version = cap.otype & VERSION_MASK
        size, current = self.live.get(cap.base, (0, None))
        if current is None:  # a live block's interior, or a freed block
            if self.versions.get(cap.base & ~15, 0) == version:
                return FaultKind.MALFORMED_FREE
            return FaultKind.DOUBLE_FREE
        if current != version:
            return FaultKind.DOUBLE_FREE
        wrapped = False
        for granule in range(cap.base, cap.base + size, GRANULE):
            self.versions[granule] = (self.versions.get(granule, 0) + 1) & VERSION_MASK
            wrapped = wrapped or self.versions[granule] == 0
        del self.live[cap.base]
        self.live_bytes -= size
        self.frees += 1
        if wrapped and self.machine.config.versioning_fallback:
            self.hold(cap.base, size)
        else:
            self.heap.free(cap.base, size)
        return None

    def check(self, cap, offset, width, need):
        fault = self.machine.check_access(cap, offset, width, need, provenance=False)
        if fault is not None or cap.otype == UNSEALED:
            return fault
        start = cap.address + offset
        for granule in range(start & ~15, start + width, GRANULE):
            if self.versions.get(granule, 0) != cap.otype & VERSION_MASK:
                return FaultKind.PROVENANCE_RETRACTED
        return None


class SetColors(FlatScheme):
    """Picasso: malloc claims the lowest unclaimed color, free retracts it.
    A malloc that finds fewer colors unclaimed than the threshold, no sweep
    and a retracted color starts a sweep of the retracted colors, which
    releases them when it finishes."""

    name = "picasso"

    def __init__(self, machine: ReferenceMachine) -> None:
        super().__init__(machine)
        config = machine.config
        self.pool = config.color_count - 1
        self.claimed: set[int] = set()
        self.unr = UnrState(self.pool)
        self.threshold = math.ceil(config.threshold_fraction * self.pool)
        self.targets = None  # a sweep's target colors while it runs
        self.pvt_bytes = config.pvt_bytes
        self.sample()

    def sample(self) -> None:
        unr_bytes = self.unr.node_memory()
        pvt = self.pvt_bytes * (1 if self.sweep is None else 2)  # a sweep holds a snapshot
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.peak_unr_bytes = max(self.peak_unr_bytes, unr_bytes)
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.live_bytes + pvt + unr_bytes)

    def malloc(self, size: int) -> Capability:
        window = self.machine.config.sweep_window
        if self.sweep is not None:
            self.advance(window)
        unclaimed = self.pool - len(self.claimed)
        if unclaimed < self.threshold and self.sweep is None and self.machine.retracted:
            self.targets = frozenset(self.machine.retracted)
            self.start_sweep(self.doomed, window)
        if len(self.claimed) == self.pool:
            if self.sweep is None:
                raise PoolExhausted("provenance identifiers exhausted")
            self.advance(None)
        color = min(set(range(1, self.pool + 1)) - self.claimed)
        self.claimed.add(color)
        self.unr.alloc_first_free()  # the same claim: the lowest free ID
        try:
            base, block = self.carve(size)
        except OutOfMemory:
            self.release({color})
            raise
        self.live[base] = (block, color)
        return Capability(base, base, block, PERMS_APP, color, True)

    def free(self, cap):
        if cap is None or not cap.tag or cap.otype == UNSEALED or not 0 < cap.otype <= self.pool:
            return FaultKind.MALFORMED_FREE
        size, color = self.live.get(cap.base, (0, None))
        if color != cap.otype:
            if cap.otype in self.machine.retracted:
                return FaultKind.DOUBLE_FREE
            return FaultKind.MALFORMED_FREE
        self.machine.set_pvt({color}, retracted=True)
        del self.live[cap.base]
        self.live_bytes -= size
        self.heap.free(cap.base, size)
        self.frees += 1
        return None

    def finish(self) -> None:
        self.machine.set_pvt(self.targets, retracted=False)
        self.release(self.targets)
        self.targets = None

    def doomed(self, cap) -> bool:
        return cap.otype in self.targets

    def release(self, colors) -> None:
        self.claimed -= colors
        self.unr.batch_release((color, color + 1) for color in sorted(colors))


SCHEMES = {cls.name: cls for cls in (SetColors, ListQuarantine, RevokeOnFree, DictVersioning,
                                     FlatScheme)}


@contextmanager
def installed():
    """Make `harness.run_trace` replay on the model."""
    with mock.patch.object(harness, "TaggedMachine", ReferenceMachine), mock.patch.object(
        harness, "make_scheme", lambda name, machine: SCHEMES[name](machine)
    ):
        yield
