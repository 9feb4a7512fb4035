"""Differential test of the `VersioningScheme` version table against the
per-granule dict it replaced.

`DictVersioning` below keeps the old `malloc`, `free` and `_check` bodies,
which visit every 16-byte granule in a Python loop over a dict that reads
0 for any address it has not seen.  Both schemes take the same random ops
on identical machines and must agree after every op on the value returned
(capability, fault or `OutOfMemory`), on `wraps`, the quarantine, the
revocation count and the registers, and, for every heap granule, on the
version: table byte == `dict.get(addr, 0)`.
"""

import random
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorcap.capability import PERMS_APP, Capability, derive
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.schemes import VERSION_MASK, VersioningScheme
from colorcap.trace import parse_trace

BASE = 0x10000
REGS = 8


class DictVersioning(VersioningScheme):
    """Versions in a dict keyed by granule address, one loop per granule."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.granule_version: dict[int, int] = {}

    def malloc(self, size: int) -> Capability:
        base, block = self._carve(size)
        versions = self.granule_version
        version = versions.get(base, 0)
        for granule in range(base, base + block, 16):
            versions[granule] = version
        self.live[base] = (block, version)
        return Capability(base, base, block, PERMS_APP, version, True)

    def free(self, cap):
        if cap is None or not cap.tag:
            return FaultKind.MALFORMED_FREE
        if cap.otype is None:
            return FaultKind.MALFORMED_FREE
        version = cap.otype & VERSION_MASK
        record = self.live.get(cap.base)
        if record is None:
            if self.granule_version.get(cap.base & ~15, 0) == version:
                return FaultKind.MALFORMED_FREE
            return FaultKind.DOUBLE_FREE
        size, current = record
        if current != version:
            return FaultKind.DOUBLE_FREE
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
        return None

    def _check(self, cap, offset: int, width: int, need: int):
        fault = self.machine.check_access(cap, offset, width, need, provenance=False)
        if fault is not None:
            return fault
        if cap.otype is None:
            return None
        version = cap.otype & VERSION_MASK
        start = cap.address + offset
        for granule in range(start & ~15, start + width, 16):
            if self.granule_version.get(granule, 0) != version:
                return FaultKind.PROVENANCE_RETRACTED
        return None


def apply(scheme: VersioningScheme, op: tuple):
    """Run one op on `scheme`; registers 0..REGS-1 of its machine hold the
    capabilities, so sweeps revoke them.  Returns what the scheme returned,
    or the `OutOfMemory` message."""
    regs = scheme.machine.regs
    kind, reg = op[0], op[1]
    if kind == "malloc":
        try:
            regs[reg] = scheme.malloc(op[2])
        except OutOfMemory as exc:
            return str(exc)
        return regs[reg]
    if kind == "free":
        return scheme.free(regs[reg])
    otypeth = scheme.machine.config.color_count
    src = regs[op[2]] if kind in ("derive", "top", "uncolor") else regs[reg]
    if src is None or not src.tag:
        return None
    if kind == "derive":  # any sub-range of the source, possibly empty
        offset = op[3] % (src.length + 1)
        length = op[4] % (src.length - offset + 1)
        regs[reg] = derive(src, src.base + offset, length, src.perms, otypeth)
        return regs[reg]
    if kind == "top":  # empty, at the source's top: the heap top for the last block
        regs[reg] = derive(src, src.base + src.length, 0, src.perms, otypeth)
        return regs[reg]
    if kind == "uncolor":
        regs[reg] = Capability(src.address, src.base, src.length, src.perms, None, True)
        return regs[reg]
    offset = op[2] % (src.length + 3) - 1  # one byte either side of the bounds
    if kind == "load":
        return scheme.load(src, offset, op[3])
    return scheme.store(src, offset, bytes([op[3] & 0xFF]) * op[3])


def table_of(reference: DictVersioning, granules: int) -> bytes:
    """The dict as a table: one version per heap granule, 0 where unset."""
    versions = reference.granule_version
    assert all(BASE <= addr < BASE + granules * 16 and addr % 16 == 0 for addr in versions)
    return bytes(map(versions.get, range(BASE, BASE + granules * 16, 16), repeat(0)))


def replay(heap_granules: int, fallback: bool, ops: list[tuple]) -> VersioningScheme:
    """Drive the table and the dict reference through `ops`, checking after
    each one."""

    def scheme(cls):
        config = RunConfig(heap_size=heap_granules * 16, versioning_fallback=fallback)
        return cls(TaggedMachine(config))

    table, reference = scheme(VersioningScheme), scheme(DictVersioning)
    for op in ops:
        assert apply(table, op) == apply(reference, op), op
        assert table.wraps == reference.wraps
        assert table.quarantine == reference.quarantine
        assert table.revocations == reference.revocations
        assert table.machine.regs == reference.machine.regs
        assert table.versions == table_of(reference, heap_granules)
    return table


def random_ops(seed: int, n: int) -> list[tuple]:
    """About `n` ops drawn from `seed`.  Registers 0-3 take mallocs of 1 to
    300 granules, half of them at most 4, mostly right after a free of the
    same register, so blocks churn through a small live set and small heaps
    wrap.  Registers 4-7 take derived, empty-at-top and uncolored copies.
    Frees name any register (legal, double, uncolored or interior), and
    loads and stores of widths 0 to 48 cross the bounds by a byte."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < n:
        reg, roll = rng.randrange(REGS), rng.random()
        if roll < 0.45:
            granules = rng.randint(1, 4) if rng.random() < 0.5 else rng.randint(1, 300)
            reg %= 4
            if roll < 0.4:
                ops.append(("free", reg))
            ops.append(("malloc", reg, granules * 16 - rng.randrange(16)))
        elif roll < 0.55:
            ops.append(("free", reg))
        elif roll < 0.7:
            reg |= 4
            src = rng.randrange(REGS)
            if roll < 0.6:
                ops.append(("top", reg, src))
            elif roll < 0.63:
                ops.append(("uncolor", reg, src))
            else:
                ops.append(("derive", reg, src, rng.randrange(1 << 16), rng.randrange(1 << 16)))
        else:
            kind = "load" if roll < 0.85 else "store"
            ops.append((kind, reg, rng.randrange(1 << 16), rng.randint(0, 48)))
    return ops


# Free a 2-granule block, then malloc and free its first granule 15 times:
# the 16th free of granule 0 wraps it to 0, granule 1 stays at 1, and the
# stale 2-granule capability matches the first granule only.
_WRAP = (
    [("malloc", 0, 32), ("free", 0)]
    + [("malloc", 1, 16), ("free", 1)] * 15
    + [("load", 0, 1, 32), ("store", 0, 1, 17), ("malloc", 2, 32), ("load", 0, 1, 1)]
)
# The 16th free of a 256-granule block wraps it; with the fallback its 4 KiB
# in quarantine reach the sweep floor, and the sweep revokes r0.
_SWEEP = [("malloc", 0, 4096), ("free", 0)] * 16 + [("load", 0, 1, 16), ("malloc", 1, 16)]
# Granules 0..2 reach versions 3, 2 and 1, then coalesce into one block.
_COALESCE = [
    ("malloc", 0, 16),
    ("malloc", 1, 16),
    ("malloc", 2, 16),
    ("free", 1),
    ("malloc", 3, 16),
    ("free", 0),
    ("malloc", 4, 16),
    ("free", 4),
    ("malloc", 5, 16),
    ("free", 5),
    ("free", 3),
    ("free", 2),
    ("malloc", 6, 48),
    ("load", 6, 1, 48),
    ("load", 3, 1, 16),
    ("load", 2, 1, 16),
]
# ROADMAP item 3a: the stale r2 reads the coalesced block without a fault.
_ITEM_3A = [
    ("malloc", 0, 16),
    ("malloc", 1, 16),
    ("free", 1),
    ("malloc", 2, 16),
    ("free", 2),
    ("free", 0),
    ("malloc", 4, 32),
    ("load", 2, 1, 8),
]
# Version 0 at the heap top, version 1 at granule 0: an empty capability at
# the top reads 0 off the table, so freeing it is a malformed free.
_HEAP_TOP = [
    ("malloc", 0, 16),
    ("malloc", 1, 16),
    ("free", 0),
    ("top", 2, 1),
    ("free", 2),
    ("load", 2, 1, 0),
]


@settings(max_examples=100, deadline=None)
@given(
    # Heaps of a few granules wrap within a few hundred ops; larger ones
    # take 300-granule blocks and quarantine enough to trigger a sweep.
    heap_granules=st.one_of(st.integers(1, 16), st.integers(17, 1024)),
    fallback=st.booleans(),
    ops=st.builds(random_ops, st.integers(0, 2**32 - 1), st.integers(0, 2000)),
)
@example(heap_granules=2, fallback=False, ops=_WRAP)
@example(heap_granules=2, fallback=True, ops=_WRAP)
@example(heap_granules=512, fallback=True, ops=_SWEEP)
@example(heap_granules=3, fallback=True, ops=_COALESCE)
@example(heap_granules=64, fallback=True, ops=_ITEM_3A)
@example(heap_granules=2, fallback=True, ops=_HEAP_TOP)
def test_matches_dict_table(heap_granules, fallback, ops):
    replay(heap_granules, fallback, ops)


def test_examples_cover_their_case():
    wrapped = replay(2, False, _WRAP[:32])
    assert wrapped.wraps == 1 and list(wrapped.versions) == [0, 1]
    assert wrapped.load(wrapped.machine.regs[0], 0, 32) is FaultKind.PROVENANCE_RETRACTED
    assert isinstance(wrapped.load(wrapped.machine.regs[0], 0, 16), bytes)
    swept = replay(512, True, _SWEEP[:32])
    assert swept.revocations == 1 and not swept.machine.regs[0].tag
    coalesced = replay(3, True, _COALESCE[:12])
    assert list(coalesced.versions) == [3, 2, 1]
    assert coalesced.malloc(48).otype == 3
    top = replay(2, True, _HEAP_TOP[:4])
    assert top.machine.regs[2].base == BASE + 32 and list(top.versions) == [1, 0]
    assert top.free(top.machine.regs[2]) is FaultKind.MALFORMED_FREE


_ITEM_3A_TRACE = """
malloc r0 16
malloc r1 16
free r1
malloc r2 16
copy r3 r2
free r2
free r0
malloc r4 32
read r3 0 8
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3a")
def test_stale_read_of_coalesced_block_faults():
    # Malloc gives the coalesced block granule 0's version (1), which is
    # also the version the stale r3 carries, so its read goes through.
    trace = parse_trace(_ITEM_3A_TRACE)
    result = run_trace(trace, "versioning", RunConfig(), collect_outcomes=True)
    assert result.outcomes[-1] is FaultKind.PROVENANCE_RETRACTED
