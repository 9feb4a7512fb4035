import dataclasses

import pytest
from hypothesis import given, strategies as st

from colorcap.capability import (
    CAPABILITY_WIDTH,
    NULL_CAP,
    PERMS_APP,
    PERMS_DATA,
    PERMS_NONE,
    UNSEALED,
    Capability,
    ConfigError,
    FaultKind,
    RunConfig,
    clear_tag,
    derive,
    pack,
    unpack,
)
from colorcap.machine import TaggedMachine

OTYPETH = RunConfig().color_count  # the default run's otype threshold


def cap(base=0x1000, length=0x100, perms=PERMS_APP, otype=UNSEALED, tag=True):
    return Capability(base, base, length, perms, otype, tag)


#: A distinct value for every field, in declaration order.
FIELDS = dict(address=0x1010, base=0x1000, length=0x40, perms=PERMS_DATA, otype=7, tag=True)


class TestConstruction:
    """`Capability.__init__` is written by hand: every field must land in
    its own slot, with the dataclass's frozen, slotted value semantics."""

    def test_positional_and_keyword(self):
        for built in (Capability(*FIELDS.values()), Capability(**FIELDS)):
            for name, value in FIELDS.items():
                assert getattr(built, name) == value, name

    def test_defaults(self):
        built = Capability(0x1010, 0x1000, 0x40)
        assert (built.perms, built.otype, built.tag) == (PERMS_NONE, UNSEALED, False)
        assert dataclasses.astuple(NULL_CAP) == (0, 0, 0, PERMS_NONE, UNSEALED, False)

    def test_equality_hash_and_repr_go_by_field(self):
        built = Capability(**FIELDS)
        assert built == Capability(**FIELDS)
        assert hash(built) == hash(Capability(**FIELDS))
        for name in FIELDS:
            other = dataclasses.replace(built, **{name: 0x2000})
            assert other != built, name
        assert repr(built) == (
            "Capability(address=4112, base=4096, length=64, perms=3, otype=7, tag=True)"
        )

    def test_frozen_and_slotted(self):
        built = Capability(**FIELDS)
        for name in FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, 0)
        assert not hasattr(built, "__dict__")
        assert Capability.__slots__ == tuple(FIELDS)


class TestDerive:
    def test_offset_zero_is_the_parent(self):
        parent = cap(otype=7)
        assert derive(parent, 0, OTYPETH) == parent

    def test_offset_narrows_the_base_only(self):
        child = derive(cap(perms=PERMS_DATA, otype=7), 0x40, OTYPETH)
        assert child == Capability(0x1040, 0x1040, 0xC0, PERMS_DATA, 7, True)

    def test_offset_length_is_empty_at_the_top(self):
        empty = Capability(0x1100, 0x1100, 0, PERMS_APP, UNSEALED, True)
        assert derive(cap(), 0x100, OTYPETH) == empty

    @pytest.mark.parametrize("offset", [-1, -0x1000, 0x101, 0x1000])
    def test_offset_outside_the_parent(self, offset):
        assert derive(cap(), offset, OTYPETH) is FaultKind.SPATIAL_OUT_OF_BOUNDS

    def test_untagged_parent(self):
        assert derive(cap(tag=False), 0, OTYPETH) is FaultKind.UNTAGGED_OPERAND
        assert derive(NULL_CAP, 0, OTYPETH) is FaultKind.UNTAGGED_OPERAND

    def test_sealed_parent(self):
        assert derive(cap(otype=4), 0, otypeth=4) is FaultKind.SEALED_DEREFERENCE
        assert derive(cap(otype=3), 0, otypeth=4).otype == 3

    def test_first_applicable_fault(self):
        # Untagged before sealed before out of bounds.
        assert derive(cap(otype=4, tag=False), -1, 4) is FaultKind.UNTAGGED_OPERAND
        assert derive(cap(otype=4), -1, 4) is FaultKind.SEALED_DEREFERENCE


class TestClearTag:
    def test_fields_preserved(self):
        before = cap(otype=3)
        after = clear_tag(before)
        assert not after.tag
        assert (after.address, after.base, after.length, after.otype) == (
            before.address,
            before.base,
            before.length,
            before.otype,
        )

    def test_idempotent(self):
        once = clear_tag(cap())
        assert clear_tag(once) == once

    def test_cleared_cap_authorizes_nothing(self):
        assert derive(clear_tag(cap()), 0, OTYPETH) is FaultKind.UNTAGGED_OPERAND


class TestDeriveChains:
    @given(st.data())
    def test_chain_stays_inside_its_parent(self, data):
        perms, otype = data.draw(st.integers(0, 15)), data.draw(st.integers(UNSEALED, OTYPETH - 1))
        current = Capability(0x1000, 0x1000, 0x1000, perms, otype, True)
        top = current.base + current.length
        for _ in range(data.draw(st.integers(1, 8))):
            parent = current
            current = derive(parent, data.draw(st.integers(0, parent.length)), OTYPETH)
            assert parent.base <= current.base == current.address
            assert current.base + current.length == top
            assert (current.perms, current.otype, current.tag) == (perms, otype, True)


class TestPacking:
    def test_round_trip_small_color(self):
        original = Capability(0x1040, 0x1000, 0x80, PERMS_APP, 17, True)
        assert unpack(pack(original)) == clear_tag(original)

    def test_unsealed_round_trip(self):
        original = cap(perms=PERMS_DATA)
        assert unpack(pack(original)) == clear_tag(original)

    def test_every_mask_round_trips(self):
        for perms in range(32):
            original = cap(perms=perms)
            assert pack(original)[14] == perms
            assert unpack(pack(original)).perms == perms

    def test_record_width(self):
        assert len(pack(cap())) == CAPABILITY_WIDTH

    def test_unsealed_packs_all_ones_otype(self):
        assert pack(cap())[15] == 0xFF

    def test_large_color_truncates_in_image_only(self):
        original = cap(otype=0x1234)
        image = pack(original)
        assert image[15] == 0x34  # low byte only; exact value lives out of band

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            unpack(b"\x00" * 15)


class TestRunConfig:
    def test_default_pvt_size(self):
        # 2**21 colors at one bit each is a 256 KiB table.
        assert RunConfig().pvt_bytes == 256 * 1024

    def test_pool_excludes_reserved_zero(self):
        config = RunConfig(color_bits=10)
        assert config.color_count - 1 == 1023

    def test_bad_color_bits(self):
        with pytest.raises(ConfigError, match=r"color_bits must be in \[4, 24\]"):
            RunConfig(color_bits=2).validate()

    def test_machine_validates_its_config(self):
        with pytest.raises(ConfigError, match=r"color_bits must be in \[4, 24\]"):
            TaggedMachine(RunConfig(color_bits=2))

    def test_scratch_follows_heap(self):
        assert RunConfig(heap_size=0x1000).scratch_base == 0x11000
