"""Decoders of simulator state that tests use as oracles."""

from colorcap.unr import Run


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
