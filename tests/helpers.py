"""Decoders of simulator state that tests use as oracles, the naive
lowest-free-ID oracle, a node list that counts the passes over it, checked
data access straight on a machine, the reissue invariant, and a machine
with no PVT buffer."""

from contextlib import contextmanager
from unittest import mock

from colorcap.capability import PERM_LOAD, PERM_STORE
from colorcap.heap import HeapScheme
from colorcap.machine import PvtBuffer
from colorcap.mrs import MallocRevocationShim
from colorcap.schemes import CornucopiaScheme
from colorcap.unr import BITMAP_CAPACITY, Run


def claimed_ids(state) -> set[int]:
    """The claimed IDs of a `UnrState`, decoded from its runs and bitmaps."""
    claimed = set()
    offset = 0
    for node in state.nodes:
        if type(node) is Run:
            if node.claimed:
                claimed.update(range(offset + 1, offset + node.length + 1))
        else:
            claimed.update(offset + 1 + i for i in range(node.length) if node.bits >> i & 1)
        offset += node.length
    return claimed


def oracle_min_free(claimed, total):
    """The naive oracle for `UnrState.alloc_first_free`: the lowest ID in
    1..total that `claimed` lacks, or None."""
    ident = 1
    while ident in claimed:
        ident += 1
    return ident if ident <= total else None


class CountingNodes(list):
    """A `UnrState.nodes` list that counts the passes made over it: every
    `for` loop over it calls `__iter__` once."""

    def __init__(self, nodes) -> None:
        super().__init__(nodes)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def runs_of(ids) -> list[tuple[int, int]]:
    """Ascending IDs as the maximal (start, stop) runs `batch_release` takes."""
    runs = []
    for ident in ids:
        if runs and runs[-1][1] == ident:
            runs[-1][1] += 1
        else:
            runs.append([ident, ident + 1])
    return [tuple(run) for run in runs]


def release_passes(state, runs) -> int:
    """Batch release `runs` from a `UnrState`; returns the number of passes
    it made over the node list."""
    nodes = state.nodes = CountingNodes(state.nodes)
    state.batch_release(runs)
    return nodes.passes


def dump(state) -> str:
    """A `UnrState` in debug form: `R:c:50 R:a:12 B:len=512:<hex>` (bitmap
    LSB = first ID)."""
    parts = []
    for node in state.nodes:
        if type(node) is Run:
            parts.append(f"R:{'c' if node.claimed else 'a'}:{node.length}")
        else:
            parts.append(f"B:len={node.length}:{node.bits:x}")
    return " ".join(parts)


def validate(state) -> None:
    """Assert the structural invariants of a `UnrState`."""
    covered = 0
    population = 0
    prev = None
    for node in state.nodes:
        if type(node) is Run:
            assert node.length >= 1, "empty run"
            if type(prev) is Run:
                assert prev.claimed != node.claimed, "adjacent mergeable runs"
            if node.claimed:
                population += node.length
        else:
            assert 1 <= node.length <= BITMAP_CAPACITY, "bitmap length"
            assert node.bits < (1 << node.length), "bitmap stray bits"
            assert node.bits, "empty bitmap not dissolved"
            # alloc_first_free relies on this and on merged runs: the first
            # free ID is in the first node or in the one after a claimed run.
            assert node.bits != (1 << node.length) - 1, "full bitmap not dissolved"
            population += node.bits.bit_count()
        covered += node.length
        prev = node
    assert covered == state.total, "coverage != total"
    assert population == state.population, "population counter drift"


def load_data(machine, cap, offset: int, width: int):
    """Checked data read on `machine`; returns bytes or a FaultKind."""
    fault = machine.check_access(cap, offset, width, PERM_LOAD)
    if fault is not None:
        return fault
    return machine.read_bytes(cap.address + offset, width)


def store_data(machine, cap, offset: int, data: bytes):
    """Checked data write on `machine`; returns None or a FaultKind.  The
    check completes before any mutation, so a faulting store changes
    nothing."""
    fault = machine.check_access(cap, offset, len(data), PERM_STORE)
    if fault is not None:
        return fault
    machine.write_bytes(cap.address + offset, data)
    return None


def _tagged(machine):
    """Every tagged capability of `machine`: its tagged words, then its
    tagged registers."""
    return [*machine.caps.values(), *(cap for cap in machine.regs if cap.tag)]


@contextmanager
def reissue_checked():
    """Check the reissue invariant, the guarantee a sweep exists for, at
    every reissue.  Picasso hands out a color only once no tagged word and
    no tagged register holds it; cornucopia and cornucopia-rof carve a
    block only once no tagged non-empty capability overlaps it.  Versioning
    reuses blocks without a sweep by design, and `none` has no temporal
    check, so neither is checked."""
    malloc, carve = MallocRevocationShim.malloc, HeapScheme._carve

    def checked_malloc(shim, size):
        cap = malloc(shim, size)
        stale = [held for held in _tagged(shim.machine) if held.otype == cap.otype]
        assert not stale, f"color {cap.otype} reissued while {stale} survive"
        return cap

    def checked_carve(scheme, size):
        base, block = carve(scheme, size)
        if isinstance(scheme, CornucopiaScheme):
            top = base + block
            stale = [held for held in _tagged(scheme.machine)
                     if held.length and held.base < top and base < held.base + held.length]
            assert not stale, f"block {base:#x}+{block} reissued while {stale} survive"
        return base, block

    with mock.patch.object(MallocRevocationShim, "malloc", checked_malloc), \
            mock.patch.object(HeapScheme, "_carve", checked_carve):
        yield


@contextmanager
def unbuffered():
    """Run as a machine with no PVT buffer does: every lookup is a miss that
    fills nothing, so every check reads the table itself."""

    def lookup(buffer, word):
        buffer.misses += 1

    with mock.patch.object(PvtBuffer, "lookup", lookup):
        yield
