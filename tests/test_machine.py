import pytest
from hypothesis import example, given, settings, strategies as st

from colorcap.capability import (
    PERM_LOAD,
    PERM_LOAD_CAP,
    PERM_STORE,
    PERM_STORE_CAP,
    PERMS_APP,
    PERMS_DATA,
    PERMS_NONE,
    UNSEALED,
    Capability,
    ColorOutOfRange,
    MachineConfig,
    clear_tag,
    pack,
    unpack,
)
from colorcap.machine import (
    NUM_REGISTERS,
    PVB_SETS,
    PVB_WAYS,
    FaultKind,
    PvtBuffer,
    TaggedMachine,
)
from colorcap.mrs import RevocationJob
from colorcap.schemes import quarantine_selector
from helpers import load_data, store_data


def small_config(**kw):
    kw.setdefault("color_bits", 10)
    kw.setdefault("heap_size", 0x4000)
    kw.setdefault("scratch_slots", 8)
    return MachineConfig(**kw)


def machine(**kw):
    return TaggedMachine(small_config(**kw))


def heap_cap(m, offset=0, length=0x100, perms=PERMS_APP, otype=UNSEALED, tag=True):
    base = m.config.heap_base + offset
    return Capability(base, base, length, perms, otype, tag)


class TestCheckAccess:
    def test_colored_valid_ok(self):
        m = machine()
        cap = heap_cap(m, otype=5)
        assert m.check_access(cap, 0, 8, PERM_LOAD) is None

    def test_retracted_faults(self):
        m = machine()
        cap = heap_cap(m, otype=5)
        m.pvt_set(5, retracted=True)
        assert m.check_access(cap, 0, 8, PERM_LOAD) is FaultKind.PROVENANCE_RETRACTED

    def test_uncolored_skips_table(self):
        m = machine()
        for otype in (UNSEALED, 0):  # otype 0 is reserved and reads as unsealed
            assert m.check_access(heap_cap(m, otype=otype), 0, 8, PERM_LOAD) is None
        assert m.pvt_lookups == 0

    def test_colored_counts_lookup(self):
        m = machine()
        cap = heap_cap(m, otype=5)
        m.check_access(cap, 0, 8, PERM_LOAD)
        m.check_access(cap, 0, 8, PERM_STORE)
        assert m.pvt_lookups == 2
        top = heap_cap(m, otype=m.config.otypeth - 1)  # the largest color
        assert m.check_access(top, 0, 8, PERM_LOAD) is None
        assert m.pvt_lookups == 3

    def test_out_of_bounds(self):
        m = machine()
        cap = heap_cap(m, length=16)
        assert m.check_access(cap, 8, 16, PERM_LOAD) is FaultKind.SPATIAL_OUT_OF_BOUNDS
        assert m.check_access(cap, 0, 16, PERM_LOAD) is None

    def test_negative_offset_out_of_bounds(self):
        m = machine()
        cap = heap_cap(m, length=16)
        assert m.check_access(cap, -8, 8, PERM_LOAD) is FaultKind.SPATIAL_OUT_OF_BOUNDS

    def test_permission_bit_exhaustive(self):
        # Every mask against every access bit: denied exactly when the
        # needed bit is clear, whatever the other bits say.
        m = machine()
        for mask in range(32):
            cap = heap_cap(m, perms=mask)
            for need in (PERM_LOAD, PERM_STORE, PERM_LOAD_CAP, PERM_STORE_CAP):
                fault = m.check_access(cap, 0, 16, need)
                if mask & need:
                    assert fault is None, (mask, need)
                else:
                    assert fault is FaultKind.PERMISSION_DENIED, (mask, need)

    def test_sealed_dereference(self):
        m = machine(otypeth=4)
        for otype in (4, 9):  # sealed from the threshold up, without a lookup
            sealed = heap_cap(m, otype=otype)
            assert m.check_access(sealed, 0, 8, PERM_LOAD) is FaultKind.SEALED_DEREFERENCE
        assert m.pvt_lookups == 0
        assert m.check_access(heap_cap(m, otype=3), 0, 8, PERM_LOAD) is None
        assert m.pvt_lookups == 1  # one below the threshold is a color


class TestFaultPriority:
    """First applicable fault wins: untagged, sealed, permission, spatial,
    provenance."""

    def test_untagged_beats_everything(self):
        m = machine(otypeth=4)
        cap = heap_cap(m, length=8, perms=PERMS_NONE, otype=9, tag=False)
        assert m.check_access(cap, 100, 8, PERM_LOAD) is FaultKind.UNTAGGED_OPERAND

    def test_sealed_beats_permission(self):
        m = machine(otypeth=4)
        cap = heap_cap(m, perms=PERMS_NONE, otype=9)
        assert m.check_access(cap, 0, 8, PERM_LOAD) is FaultKind.SEALED_DEREFERENCE

    def test_permission_beats_spatial(self):
        m = machine()
        cap = heap_cap(m, length=8, perms=PERMS_NONE)
        assert m.check_access(cap, 100, 8, PERM_LOAD) is FaultKind.PERMISSION_DENIED

    def test_spatial_beats_provenance(self):
        m = machine()
        cap = heap_cap(m, length=8, otype=5)
        m.pvt_set(5, retracted=True)
        assert m.check_access(cap, 100, 8, PERM_LOAD) is FaultKind.SPATIAL_OUT_OF_BOUNDS


class TestDataAccess:
    def test_read_your_writes(self):
        m = machine()
        cap = heap_cap(m)
        payload = bytes(range(24))
        assert store_data(m, cap, 4, payload) is None
        assert load_data(m, cap, 4, 24) == payload

    def test_unwritten_memory_reads_zero(self):
        m = machine()
        assert load_data(m, heap_cap(m), 0, 16) == bytes(16)

    def test_store_clears_overlapped_tag(self):
        m = machine()
        auth = heap_cap(m)
        value = heap_cap(m, offset=0x20, length=16)
        assert m.store_cap(auth, 0x10, value) is None
        assert m.load_cap(auth, 0x10).tag
        assert store_data(m, auth, 0x18, b"xx") is None
        assert not m.load_cap(auth, 0x10).tag

    def test_retracted_store_mutates_nothing(self):
        m = machine()
        cap = heap_cap(m, otype=5)
        store_data(m, cap, 0, b"before!!")
        m.pvt_set(5, retracted=True)
        snapshot = dict(m.words)
        fault = store_data(m, cap, 0, b"after!!!")
        assert fault is FaultKind.PROVENANCE_RETRACTED
        assert m.words == snapshot

    def test_write_spanning_words(self):
        m = machine()
        cap = heap_cap(m)
        data = bytes(range(40))
        store_data(m, cap, 10, data)
        assert load_data(m, cap, 10, 40) == data


class TestCapabilityMemory:
    def test_round_trip_all_fields(self):
        m = machine()
        auth = heap_cap(m)
        value = Capability(0x2040, 0x2000, 0x80, PERMS_DATA, 777, True)
        assert m.store_cap(auth, 0x40, value) is None
        assert m.load_cap(auth, 0x40) == value

    def test_retracted_color_copy_permitted(self):
        # Retraction gates dereference, not propagation: stale capabilities
        # persist in memory until a sweep revokes them.
        m = machine()
        auth = heap_cap(m)
        stale = heap_cap(m, offset=0x100, otype=7)
        m.pvt_set(7, retracted=True)
        assert m.store_cap(auth, 0, stale) is None
        assert auth.base in m.caps
        assert m.load_cap(auth, 0) == stale

    def test_tag_cleared_by_data_write_reads_untagged(self):
        m = machine()
        auth = heap_cap(m)
        m.store_cap(auth, 0, heap_cap(m, offset=0x20))
        store_data(m, auth, 0, b"\x00")
        loaded = m.load_cap(auth, 0)
        assert not loaded.tag

    def test_misaligned_store_cap_is_spatial(self):
        m = machine()
        auth = heap_cap(m)
        fault = m.store_cap(auth, 8, heap_cap(m))
        assert fault is FaultKind.SPATIAL_OUT_OF_BOUNDS

    def test_untagged_value_clears_tag(self):
        m = machine()
        auth = heap_cap(m)
        m.store_cap(auth, 0, heap_cap(m, offset=0x20))
        m.store_cap(auth, 0, heap_cap(m, offset=0x20, tag=False))
        assert auth.base not in m.caps


class TestPvt:
    def test_polarity_round_trip(self):
        m = machine()
        cap = heap_cap(m, otype=9)
        m.pvt_set(9, retracted=True)
        assert m.check_access(cap, 0, 8, PERM_LOAD) is FaultKind.PROVENANCE_RETRACTED
        m.pvt_set(9, retracted=False)
        assert m.check_access(cap, 0, 8, PERM_LOAD) is None

    def test_color_out_of_range(self):
        m = machine()
        with pytest.raises(ColorOutOfRange):
            m.pvt_set(0, retracted=True)
        with pytest.raises(ColorOutOfRange):
            m.pvt_set(1 << 10, retracted=True)

    def test_same_word_second_lookup_hits(self):
        m = machine()
        buf = m.pvt_buffer
        # Oracle: colors 3 and 90 share PVT word 0 (color >> 7), so the
        # second lookup must hit the line filled by the first.
        assert (3 >> 7) == (90 >> 7)
        m.check_access(heap_cap(m, otype=3), 0, 8, PERM_LOAD)
        m.check_access(heap_cap(m, otype=90), 0, 8, PERM_LOAD)
        assert (buf.misses, buf.hits) == (1, 1)

    def test_distinct_words_both_miss(self):
        m = machine()
        m.check_access(heap_cap(m, otype=3), 0, 8, PERM_LOAD)
        m.check_access(heap_cap(m, otype=300), 0, 8, PERM_LOAD)
        assert (m.pvt_buffer.misses, m.pvt_buffer.hits) == (2, 0)

    def test_write_invalidates_buffer(self):
        m = machine()
        cap = heap_cap(m, otype=3)
        m.check_access(cap, 0, 8, PERM_LOAD)
        m.pvt_set(500, retracted=True)  # any actual change flushes all lines
        m.check_access(cap, 0, 8, PERM_LOAD)
        assert m.pvt_buffer.misses == 2
        assert m.pvt_buffer.invalidations == 1

    def test_redundant_write_keeps_buffer(self):
        m = machine()
        cap = heap_cap(m, otype=3)
        m.check_access(cap, 0, 8, PERM_LOAD)
        m.pvt_set(500, retracted=False)  # already valid: no change, no flush
        m.check_access(cap, 0, 8, PERM_LOAD)
        assert m.pvt_buffer.hits == 1
        assert m.pvt_buffer.invalidations == 0

    def test_unmapped_table_tail(self):
        m = machine(pvt_mapped_bytes=16)  # only colors < 128 mapped
        ok = heap_cap(m, otype=100)
        beyond = heap_cap(m, otype=200)
        assert m.check_access(ok, 0, 8, PERM_LOAD) is None
        assert m.check_access(beyond, 0, 8, PERM_LOAD) is FaultKind.PVT_UNMAPPED

    def test_unmapped_color_counts_a_lookup_but_no_buffer_access(self):
        m = machine(pvt_mapped_bytes=16)
        fault = m.check_access(heap_cap(m, otype=200), 0, 8, PERM_STORE)
        assert fault is FaultKind.PVT_UNMAPPED
        assert m.pvt_lookups == 1
        assert (m.pvt_buffer.hits, m.pvt_buffer.misses) == (0, 0)

    def test_round_robin_eviction(self):
        m = TaggedMachine(small_config(color_bits=16))
        buf = m.pvt_buffer
        # Five colors whose PVT words map to one set (stride = sets * 128
        # colors) overflow its four ways; the first fill is evicted.
        stride = 16 * 128
        colors = [1 + i * stride for i in range(5)]
        for c in colors:
            m.check_access(heap_cap(m, otype=c), 0, 8, PERM_LOAD)
        assert buf.misses == 5
        m.check_access(heap_cap(m, otype=colors[0]), 0, 8, PERM_LOAD)
        assert buf.misses == 6  # way 0 was evicted round-robin


def colored(*colors):
    """The sweep selector of a revocation that targets `colors`."""
    return RevocationJob(frozenset(colors), []).doomed


class TestSweep:
    def test_empty_predicate(self):
        m = machine()
        auth = heap_cap(m)
        m.store_cap(auth, 0, heap_cap(m, offset=0x20, otype=3))
        before = dict(m.words)
        assert m.sweep_scan(colored()) == 0
        assert m.words == before

    def test_counts_memory_and_registers(self):
        m = machine()
        auth = heap_cap(m)
        stale = heap_cap(m, offset=0x20, otype=3)
        for i in range(3):
            m.store_cap(auth, i * 16, stale)
        m.regs[4] = stale
        assert m.sweep_scan(colored(3)) == 4
        assert not m.caps
        assert m.regs[4].tag is False

    def test_unassigned_colors_clear_nothing(self):
        m = machine()
        auth = heap_cap(m)
        m.store_cap(auth, 0, heap_cap(m, offset=0x20, otype=3))
        assert m.sweep_scan(colored(4, 5, 6)) == 0
        assert auth.base in m.caps

    def test_uncolored_caps_survive(self):
        m = machine()
        auth = heap_cap(m)
        m.store_cap(auth, 0, heap_cap(m, offset=0x20))
        m.regs[0] = heap_cap(m)
        assert m.sweep_scan(colored(1, 2, 3)) == 0
        assert m.regs[0].tag

    def test_address_window(self):
        m = machine()
        auth = heap_cap(m)
        stale = heap_cap(m, offset=0x20, otype=3)
        m.store_cap(auth, 0, stale)
        m.store_cap(auth, 16, stale)
        first_word = auth.base
        assert m.sweep_scan(colored(3), addresses=[first_word], include_registers=False) == 1
        assert first_word not in m.caps
        assert first_word + 16 in m.caps

    def test_quarantine_spares_empty_and_abutting_ranges(self):
        m = machine()
        q = m.config.heap_base + 0x100
        m.caps[0x40] = Capability(q, q, 0, PERMS_APP, UNSEALED, True)  # empty, at a block base
        m.caps[0x50] = Capability(q - 32, q - 32, 32, PERMS_APP, UNSEALED, True)  # top == base
        m.caps[0x60] = Capability(q + 40, q + 40, 1, PERMS_APP, UNSEALED, True)  # inside
        assert m.sweep_scan(quarantine_selector([(q, q + 64)])) == 1
        assert sorted(m.caps) == [0x40, 0x50]


def per_capability_sweep(m, doomed, addresses=None, include_registers=True) -> int:
    """The sweep before selectors, kept as the reference: one `doomed(cap)`
    call per tagged word in ascending address order (or per given address),
    then one per tagged register."""
    cleared = 0
    caps = m.caps
    for addr in sorted(caps) if addresses is None else addresses:
        cap = caps.get(addr)
        if cap is not None and doomed(cap):
            del caps[addr]
            m.words[addr] = pack(cap)
            cleared += 1
    if include_registers:
        for i, cap in enumerate(m.regs):
            if cap is not None and cap.tag and doomed(cap):
                m.regs[i] = clear_tag(cap)
                cleared += 1
    return cleared


def overlaps_a_block(blocks):
    """Reference quarantine predicate: a non-empty range that overlaps some
    block, tested against every block."""

    def doomed(cap):
        top = cap.base + cap.length
        return top > cap.base and any(base < top and cap.base < end for base, end in blocks)

    return doomed


Q = 0x1000  # where the quarantine of the differential sweep starts
SWEPT_WORDS = 24


@st.composite
def quarantines(draw):
    """Disjoint (base, top) blocks sorted by base, some of them adjacent."""
    blocks = []
    at = Q + 16 * draw(st.integers(0, 4))
    for gap, size in draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=5)
    ):
        at += 16 * gap
        blocks.append((at, at + 16 * size))
        at += 16 * size
    return blocks


def _swept(base, length, otype=UNSEALED, tag=True):
    return Capability(base, base, length, PERMS_APP, otype, tag)


def swept_caps(tags=st.just(True)):
    """Byte-granular ranges from below the first block to past the last."""
    return st.builds(
        _swept,
        st.integers(Q - 64, Q + 16 * 40),
        st.one_of(st.just(0), st.integers(0, 320)),
        st.sampled_from((UNSEALED, 1, 2, 3)),
        tags,
    )


_NO_EXTRAS = dict(data={}, regs={}, include_registers=True, targets=frozenset({1}))


class TestSelectorSweep:
    """The quarantine and color selectors clear exactly what a per-capability
    sweep with the matching predicate clears."""

    @example(blocks=[(Q, Q + 32)], mem={0: _swept(Q, 0)}, addresses=None, **_NO_EXTRAS)
    @example(blocks=[(Q + 64, Q + 96)], mem={0: _swept(Q + 32, 32)}, addresses=None, **_NO_EXTRAS)
    @example(blocks=[(Q, Q + 32)], mem={0: _swept(Q, 16, 1)}, addresses=[0, 0], **_NO_EXTRAS)
    @settings(max_examples=300, deadline=None)
    @given(
        blocks=quarantines(),
        mem=st.dictionaries(st.integers(0, SWEPT_WORDS - 1), swept_caps(), max_size=16),
        data=st.dictionaries(
            st.integers(0, SWEPT_WORDS - 1), st.binary(min_size=16, max_size=16), max_size=6
        ),
        regs=st.dictionaries(
            st.integers(0, NUM_REGISTERS - 1),
            st.one_of(st.none(), swept_caps(st.booleans())),
            max_size=8,
        ),
        # Untagged, absent and repeated words all appear in a window.
        addresses=st.one_of(st.none(), st.lists(st.integers(0, SWEPT_WORDS + 2))),
        include_registers=st.booleans(),
        targets=st.frozensets(st.sampled_from((1, 2, 3))),
    )
    def test_matches_per_capability_sweep(
        self, blocks, mem, data, regs, addresses, include_registers, targets
    ):
        checks = (
            (quarantine_selector(blocks), overlaps_a_block(blocks)),
            (RevocationJob(targets, []).doomed, lambda cap: cap.otype in targets),
        )
        for select, doomed in checks:
            m, ref = machine(), machine()
            word = m.config.heap_base
            for t in (m, ref):
                t.words.update({word + 16 * w: image for w, image in data.items() if w not in mem})
                t.caps.update({word + 16 * w: cap for w, cap in mem.items()})
                for i, cap in regs.items():
                    t.regs[i] = cap
            addrs = None if addresses is None else [word + 16 * w for w in addresses]
            cleared = m.sweep_scan(select, addrs, include_registers)
            assert cleared == per_capability_sweep(ref, doomed, addrs, include_registers)
            assert (m.caps, m.words, m.regs) == (ref.caps, ref.words, ref.regs)


class ListClearingPvtBuffer:
    """Reference PVT buffer whose flush empties every set at once."""

    def __init__(self) -> None:
        self.lines = [[] for _ in range(PVB_SETS)]
        self.rr = [0] * PVB_SETS
        self.hits = self.misses = self.invalidations = 0

    def lookup(self, word_addr: int) -> None:
        idx = (word_addr >> 4) % PVB_SETS
        ways = self.lines[idx]
        if word_addr in ways:
            self.hits += 1
            return
        self.misses += 1
        if len(ways) < PVB_WAYS:
            ways.append(word_addr)
        else:
            ways[self.rr[idx]] = word_addr
            self.rr[idx] = (self.rr[idx] + 1) % PVB_WAYS

    def invalidate_all(self) -> None:
        for ways in self.lines:
            ways.clear()
        self.invalidations += 1


PVT_WORDS = PVB_SETS * (PVB_WAYS + 1)  # five words per set overflow its ways


class TestPvtBufferEpochs:
    """Epoch invalidation counts exactly what clearing every set did."""

    # Set 0 filled by its four ways, flushed, then looked up again: a miss.
    @example([0, PVB_SETS, 2 * PVB_SETS, 3 * PVB_SETS, None, 0])
    @given(st.lists(st.one_of(st.none(), st.integers(0, PVT_WORDS - 1)), max_size=300))
    def test_counts_match_list_clearing_buffer(self, ops):
        buf, ref = PvtBuffer(), ListClearingPvtBuffer()
        for op in ops:
            if op is None:
                buf.invalidate_all()
                ref.invalidate_all()
            else:
                buf.lookup(0x4000 + 16 * op)
                ref.lookup(0x4000 + 16 * op)
            assert (buf.hits, buf.misses, buf.invalidations) == (
                ref.hits,
                ref.misses,
                ref.invalidations,
            )


class EagerPackMemory:
    """Reference memory that packs every capability store at once and
    handles data byte by byte."""

    def __init__(self) -> None:
        self.words: dict[int, bytes] = {}
        self.caps: dict[int, Capability] = {}

    def store_cap(self, addr: int, value: Capability) -> None:
        self.words[addr] = pack(value)
        if value.tag:
            self.caps[addr] = value
        else:
            self.caps.pop(addr, None)

    def write(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            w = (addr + i) & ~15
            self.caps.pop(w, None)
            image = bytearray(self.words.get(w, bytes(16)))
            image[(addr + i) & 15] = byte
            self.words[w] = bytes(image)

    def read(self, addr: int, width: int) -> bytes:
        return bytes(self.words.get(a & ~15, bytes(16))[a & 15] for a in range(addr, addr + width))

    def sweep(self, select, addresses) -> int:
        visited = sorted(self.caps) if addresses is None else addresses
        doomed = select([(addr, self.caps[addr]) for addr in visited if addr in self.caps])
        for addr in doomed:
            del self.caps[addr]
        return len(doomed)

    def load_cap(self, addr: int) -> Capability:
        cap = self.caps.get(addr)
        return cap if cap is not None else unpack(self.words.get(addr, bytes(16)))


REGION_WORDS = 6
REGION = 16 * REGION_WORDS


@st.composite
def stored_caps(draw):
    base = draw(st.integers(0, 1 << 20)) * 16
    length = draw(st.integers(0, 1 << 26))
    return Capability(
        base + draw(st.integers(0, length)),
        base,
        length,
        draw(st.integers(0, 31)),
        draw(st.sampled_from((UNSEALED, 1, 2, 300))),
        draw(st.booleans()),
    )


_offsets = st.integers(0, REGION - 1)
_payloads = st.binary(min_size=1, max_size=40)
memory_ops = st.lists(
    st.one_of(
        st.tuples(st.just("cap"), st.integers(0, REGION_WORDS - 1), stored_caps()),
        st.tuples(st.just("data"), _offsets, _payloads),  # checked store_data
        st.tuples(st.just("raw"), _offsets, _payloads),  # write_bytes
        st.tuples(
            st.just("sweep"),
            st.frozensets(st.sampled_from((UNSEALED, 1, 2)), min_size=1),
            st.one_of(st.none(), st.lists(st.integers(0, REGION_WORDS - 1), unique=True)),
        ),
        st.tuples(st.just("read"), _offsets, st.integers(0, REGION)),
    ),
    min_size=8,
    max_size=40,
)

_TAGGED_3 = Capability(0x2040, 0x2000, 0x80, PERMS_APP, 3, True)


class TestLazyPack:
    """A tagged word keeps only its capability; data reads and loads see the
    same bytes and capabilities as memory that packs on every store."""

    @staticmethod
    def _check_all(m, auth, ref):
        base = auth.base
        for w in range(REGION_WORDS):
            addr = base + 16 * w
            assert m.read_bytes(addr, 16) == ref.read(addr, 16)
            assert m.read_bytes(addr + 3, 7) == ref.read(addr + 3, 7)
            assert m.load_cap(auth, 16 * w) == ref.load_cap(addr)
        for addr, width in ((base, REGION), (base + 9, 14), (base + 17, 40)):
            assert m.read_bytes(addr, width) == ref.read(addr, width)

    # A tagged word swept, then read as bytes and through load_cap.
    @example([("cap", 1, _TAGGED_3), ("sweep", frozenset({3}), None), ("read", 16, 16)])
    # Writes inside one tagged word, then a read (and `_check_all`'s
    # load_cap): unaligned ones of 1 and 15 bytes, and an aligned 16-byte one.
    @example([("cap", 1, _TAGGED_3), ("data", 19, b"\xaa\xbb\xcc\xdd"), ("read", 16, 16)])
    @example([("cap", 1, _TAGGED_3), ("raw", 17, b"\x5a"), ("read", 16, 16)])
    @example([("cap", 2, _TAGGED_3), ("raw", 33, bytes(range(1, 16))), ("read", 32, 16)])
    @example([("cap", 2, _TAGGED_3), ("data", 32, bytes(range(16))), ("read", 30, 20)])
    @settings(max_examples=150, deadline=None)
    @given(memory_ops)
    def test_matches_eager_pack(self, ops):
        m = machine()
        auth = heap_cap(m, length=REGION)
        base = auth.base
        ref = EagerPackMemory()
        for op in ops:
            kind = op[0]
            if kind == "cap":
                assert m.store_cap(auth, 16 * op[1], op[2]) is None
                ref.store_cap(base + 16 * op[1], op[2])
            elif kind in ("data", "raw"):
                data = op[2][: REGION - op[1]]
                if kind == "data":
                    assert store_data(m, auth, op[1], data) is None
                else:
                    m.write_bytes(base + op[1], data)
                ref.write(base + op[1], data)
            elif kind == "sweep":
                doomed = colored(*op[1])
                addrs = None if op[2] is None else [base + 16 * w for w in op[2]]
                cleared = m.sweep_scan(doomed, addrs, include_registers=False)
                assert cleared == ref.sweep(doomed, addrs)
            else:
                width = min(op[2], REGION - op[1])
                assert m.read_bytes(base + op[1], width) == ref.read(base + op[1], width)
            assert set(m.caps) == set(ref.caps)
            self._check_all(m, auth, ref)
