"""Decoders of simulator state that tests use as oracles, and checked
data access straight on a machine."""

from colorcap.capability import PERM_LOAD, PERM_STORE
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
            # alloc_first_free relies on this: no bitmap in front of a free run.
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
