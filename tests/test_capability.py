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
    MonotonicityViolation,
    RunConfig,
    SealedOperand,
    UntaggedOperand,
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
    def test_identity(self):
        parent = cap()
        child = derive(parent, 0x1000, 0x100, PERMS_APP, OTYPETH)
        assert child == parent

    def test_subset_bounds(self):
        child = derive(cap(), 0x1040, 0x10, PERMS_APP, OTYPETH)
        assert child.base == 0x1040
        assert child.length == 0x10
        assert child.address == 0x1040
        assert child.tag

    def test_widening_forbidden(self):
        with pytest.raises(MonotonicityViolation):
            derive(cap(), 0x1000, 0x200, PERMS_APP, OTYPETH)
        with pytest.raises(MonotonicityViolation):
            derive(cap(), 0x0FFF, 0x10, PERMS_APP, OTYPETH)

    def test_permission_widening_forbidden(self):
        parent = cap(perms=PERMS_DATA)
        with pytest.raises(MonotonicityViolation):
            derive(parent, 0x1000, 0x10, PERMS_APP, OTYPETH)

    def test_untagged_parent(self):
        with pytest.raises(UntaggedOperand):
            derive(cap(tag=False), 0x1000, 0x10, PERMS_APP, OTYPETH)

    def test_sealed_parent(self):
        sealed = cap(otype=8)
        with pytest.raises(SealedOperand):
            derive(sealed, 0x1000, 0x10, PERMS_APP, otypeth=4)

    def test_otype_copied(self):
        child = derive(cap(otype=7), 0x1010, 0x20, PERMS_DATA, OTYPETH)
        assert child.otype == 7


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
        with pytest.raises(UntaggedOperand):
            derive(clear_tag(cap()), 0x1000, 0x10, PERMS_APP, OTYPETH)


def widens(child: int, parent: int) -> bool:
    """Does the child mask hold a permission bit that the parent lacks?"""
    return any(child >> bit & 1 and not parent >> bit & 1 for bit in range(5))


class TestMonotonicityChains:
    @given(st.data())
    def test_random_derivation_chain(self, data):
        current = Capability(0x1000, 0x1000, 0x1000, 0b11111, UNSEALED, True)
        for _ in range(data.draw(st.integers(1, 8))):
            lo = data.draw(st.integers(0, current.length))
            hi = data.draw(st.integers(lo, current.length))
            perms = data.draw(st.integers(0, 31))
            parent = current
            try:
                current = derive(current, current.base + lo, hi - lo, perms, OTYPETH)
            except MonotonicityViolation:
                assert widens(perms, parent.perms)
                break
            assert parent.base <= current.base
            assert current.base + current.length <= parent.base + parent.length
            assert not widens(current.perms, parent.perms)
            assert current.tag

    def test_every_mask_pair(self):
        for parent_perms in range(32):
            parent = cap(perms=parent_perms)
            for perms in range(32):
                if widens(perms, parent_perms):
                    with pytest.raises(MonotonicityViolation):
                        derive(parent, 0x1000, 0x10, perms, OTYPETH)
                else:
                    assert derive(parent, 0x1000, 0x10, perms, OTYPETH).perms == perms


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
