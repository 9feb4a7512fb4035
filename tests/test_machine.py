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
    RunConfig,
)
from colorcap.machine import (
    PVB_SETS,
    PVB_WAYS,
    FaultKind,
    PvtBuffer,
    TaggedMachine,
)
from colorcap.mrs import color_selector
from colorcap.schemes import quarantine_selector
from helpers import load_data, store_data
from reference import ListClearingPvtBuffer, ReferenceMachine, per_capability_sweep


def small_config(**kw):
    kw.setdefault("color_bits", 10)
    kw.setdefault("heap_size", 0x4000)
    return RunConfig(**kw)


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
        buf = m.pvt_buffer
        assert buf.hits + buf.misses == 0

    def test_colored_counts_lookup(self):
        m = machine()
        buf = m.pvt_buffer
        cap = heap_cap(m, otype=5)
        m.check_access(cap, 0, 8, PERM_LOAD)
        m.check_access(cap, 0, 8, PERM_STORE)
        assert buf.hits + buf.misses == 2
        top = heap_cap(m, otype=m.config.color_count - 1)  # the largest color
        assert m.check_access(top, 0, 8, PERM_LOAD) is None
        assert buf.hits + buf.misses == 3

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
        m = machine()
        otypeth = m.config.color_count
        for otype in (otypeth, otypeth + 5):  # sealed from the threshold up, without a lookup
            sealed = heap_cap(m, otype=otype)
            assert m.check_access(sealed, 0, 8, PERM_LOAD) is FaultKind.SEALED_DEREFERENCE
        buf = m.pvt_buffer
        assert buf.hits + buf.misses == 0
        assert m.check_access(heap_cap(m, otype=otypeth - 1), 0, 8, PERM_LOAD) is None
        assert buf.hits + buf.misses == 1  # one below the threshold is a color


class TestFaultPriority:
    """First applicable fault wins: untagged, sealed, permission, spatial,
    provenance."""

    def test_untagged_beats_everything(self):
        m = machine()
        sealed = m.config.color_count + 5
        cap = heap_cap(m, length=8, perms=PERMS_NONE, otype=sealed, tag=False)
        assert m.check_access(cap, 100, 8, PERM_LOAD) is FaultKind.UNTAGGED_OPERAND

    def test_sealed_beats_permission(self):
        m = machine()
        cap = heap_cap(m, perms=PERMS_NONE, otype=m.config.color_count + 5)
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

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.sets(st.integers(1, (1 << 10) - 1), max_size=40),
        colors=st.sets(st.integers(1, (1 << 10) - 1), max_size=40),
        retracted=st.booleans(),
    )
    @example(start=set(), colors=set(), retracted=True)
    @example(start={3, 700}, colors={3, 700}, retracted=True)
    def test_set_many_touches_exactly_the_mask(self, start, colors, retracted):
        m = machine()
        for color in start:
            m.pvt_set(color, retracted=True)
        before = m.pvt_buffer.invalidations
        mask = bytearray(len(m.pvt))
        for color in colors:
            mask[color >> 3] |= 1 << (color & 7)
        m.pvt_set_many(bytes(mask), retracted=retracted)
        expected = start | colors if retracted else start - colors
        assert {c for c in range(1 << 10) if m.pvb_retracted(c)} == expected
        assert m.pvt_buffer.invalidations == before + (expected != start)

    def test_set_many_rejects_a_bad_mask(self):
        m = machine()
        m.pvt_set(9, retracted=True)
        before = bytes(m.pvt)
        size = len(m.pvt)
        for mask in (bytes(size - 1), bytes(size + 1), b"\x01" + bytes(size - 1)):
            with pytest.raises(ColorOutOfRange):
                m.pvt_set_many(mask, retracted=False)
        assert bytes(m.pvt) == before and m.pvt_buffer.invalidations == 1

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
    """The sweep selector of a revocation that targets `colors`: a target
    table of one byte per color of `machine()`, 1 at each of them."""
    targets = bytearray(small_config().color_count)
    for color in colors:
        targets[color] = 1
    return color_selector(targets)


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

    def test_color_selector_is_total(self):
        # Untagged, uncolored (UNSEALED, and the reserved 0), sealed (otype at
        # or past color_count) and negative-otype capabilities never raise
        # and are never doomed; only the tagged one of target color 5 is.
        # Color 1021 is a target too: a table read at -3 would doom otype -3.
        m = machine()
        auth = heap_cap(m)
        sealed = m.config.color_count
        odd = [heap_cap(m, otype=5, tag=False)] + [
            heap_cap(m, otype=otype) for otype in (UNSEALED, 0, sealed, sealed + 5, 1 << 40, -3)
        ]
        for i, cap in enumerate(odd + [heap_cap(m, otype=5)]):
            m.store_cap(auth, 16 * i, cap)
            m.regs[i] = cap
        select = colored(5, 1021)
        assert select([(i, cap) for i, cap in enumerate(odd[1:])]) == []
        assert m.sweep_scan(select) == 2
        assert sorted(m.caps) == [auth.base + 16 * i for i in range(1, len(odd))]
        assert m.regs[: len(odd)] == odd and not m.regs[len(odd)].tag

    def test_quarantine_spares_empty_and_abutting_ranges(self):
        m = machine()
        q = m.config.heap_base + 0x100
        m.caps[0x40] = Capability(q, q, 0, PERMS_APP, UNSEALED, True)  # empty, at a block base
        m.caps[0x50] = Capability(q - 32, q - 32, 32, PERMS_APP, UNSEALED, True)  # top == base
        m.caps[0x60] = Capability(q + 40, q + 40, 1, PERMS_APP, UNSEALED, True)  # inside
        assert m.sweep_scan(quarantine_selector([(q, q + 64)])) == 1
        assert sorted(m.caps) == [0x40, 0x50]


PVT_WORDS = PVB_SETS * (PVB_WAYS + 1)  # five words per set overflow its ways


class TestPvtBufferEpochs:
    """Epoch invalidation counts exactly what clearing every set did."""

    # Set 0 filled by its four ways, flushed, then looked up again: a miss.
    @example([0, PVB_SETS, 2 * PVB_SETS, 3 * PVB_SETS, None, 0])
    # Words 0, 16 and 32 share set 0, and 8 and 24 set 8: no set overflows
    # its ways, so word 0 is still buffered.
    @example([0, 8, 16, 24, 32, 0])
    @given(st.lists(st.one_of(st.none(), st.integers(0, PVT_WORDS - 1)), max_size=300))
    def test_counts_match_list_clearing_buffer(self, ops):
        buf, ref = PvtBuffer(), ListClearingPvtBuffer()
        for op in ops:
            if op is None:
                buf.invalidations += 1  # how the machine flushes the buffer
                ref.invalidate_all()
            else:
                buf.lookup(op)
                ref.lookup(op)
            assert (buf.hits, buf.misses, buf.invalidations) == (
                ref.hits,
                ref.misses,
                ref.invalidations,
            )


REGION_WORDS = 6
REGION = 16 * REGION_WORDS


def _saturating(base, length, offset, perms, otype, tag):
    return Capability(base + offset % (length + 1), base, length, perms, otype, tag)


# Capabilities whose packed image saturates: a length or an address offset
# of 2**24 or more, or a color past the image's low byte.
saturating_caps = st.builds(
    _saturating, st.integers(0, 1 << 20).map(lambda granule: 16 * granule),
    st.integers((1 << 24) - 1, 1 << 26), st.integers(0, 1 << 26), st.integers(0, 31),
    st.sampled_from((UNSEALED, 1, 300)), st.booleans())
memory_ops = st.lists(st.one_of(
    st.tuples(st.just("cap"), st.integers(0, REGION_WORDS - 1), saturating_caps),
    st.tuples(st.just("data"), st.integers(0, REGION - 1), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("sweep"), st.frozensets(st.sampled_from((1, 300)), min_size=1),
              st.one_of(st.none(), st.lists(st.integers(0, REGION_WORDS - 1), unique=True))),
), min_size=8, max_size=40)


class TestLazyPack:
    """A tagged word keeps only its capability; data reads and loads see the
    same bytes and capabilities as the reference model's memory, which
    packs on every store.  Drawn traces check this for the capabilities a
    run makes; these draws add the ones whose image saturates."""

    @settings(max_examples=150, deadline=None)
    @given(memory_ops)
    def test_matches_eager_pack(self, ops):
        m = machine()
        auth = heap_cap(m, length=REGION)
        base = auth.base
        ref = ReferenceMachine(small_config())
        memory = ref.memory
        for kind, at, value in ops:
            if kind == "cap":
                assert m.store_cap(auth, 16 * at, value) is None
                memory.store_cap(base + 16 * at, value)
            elif kind == "data":
                data = value[: REGION - at]
                assert store_data(m, auth, at, data) is None
                memory.write(base + at, data)
            else:
                addrs = None if value is None else [base + 16 * w for w in value]
                cleared = m.sweep_scan(colored(*at), addrs, include_registers=False)
                assert cleared == per_capability_sweep(
                    ref, lambda cap: cap.otype in at, addrs, registers=False)
            assert set(m.caps) == set(memory.caps)
            for w in range(REGION_WORDS):
                assert m.read_bytes(base + 16 * w + 3, 7) == memory.read(base + 16 * w + 3, 7)
                assert m.load_cap(auth, 16 * w) == memory.load_cap(base + 16 * w)
            assert m.read_bytes(base, REGION) == memory.read(base, REGION)
