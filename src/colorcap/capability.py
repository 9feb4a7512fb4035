"""Capability values: exact bounds, permissions, colors, and the otype
threshold rule.

A capability is the unit of authority in the simulated machine: an address,
exact (base, length) bounds, permissions, an object-type field that can
carry a provenance color, and a validity tag.  The permissions are a mask of
PERM_* bits, the same byte that the packed record carries, so a subset test
or a permission check is one `&`.  Derivation is monotonic - a child never
exceeds its parent's bounds or permissions - and no operation in this module
can turn an untagged capability back into a tagged one.

The object type partitions into three interpretations against a threshold
(OTYPETH): the UNSEALED sentinel means an ordinary capability, values
strictly between 0 and the threshold are colors (provenance identifiers),
and values at or above the threshold are sealed.  otype 0 is reserved and
reads as unsealed; it is never handed out as a color, so the usable color
pool is 1 .. 2**color_bits - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Optional

COLOR_BITS_DEFAULT: Final = 21
DEFAULT_OTYPETH: Final = 1 << COLOR_BITS_DEFAULT
CAPABILITY_WIDTH: Final = 16  # bytes occupied by one capability record

#: Distinguished otype for capabilities that carry no color and are not
#: sealed.  Serializes as an all-ones byte in the packed record.
UNSEALED: Final = None

Otype = Optional[int]


class CapabilityError(Exception):
    """A capability-manipulation rule was violated."""


class UntaggedOperand(CapabilityError):
    pass


class SealedOperand(CapabilityError):
    pass


class MonotonicityViolation(CapabilityError):
    pass


class PermissionDenied(CapabilityError):
    pass


class ColorOutOfRange(CapabilityError):
    pass


#: Permission bits, in the packed record's perms byte.
PERM_LOAD: Final = 1
PERM_STORE: Final = 2
PERM_LOAD_CAP: Final = 4
PERM_STORE_CAP: Final = 8
PERM_SW_VMEM: Final = 16

PERMS_NONE: Final = 0
PERMS_DATA: Final = PERM_LOAD | PERM_STORE
#: What an application receives from an allocator: full data and capability
#: access, never sw_vmem.
PERMS_APP: Final = PERMS_DATA | PERM_LOAD_CAP | PERM_STORE_CAP
#: Allocator root authority; sw_vmem gates color assignment.
PERMS_ROOT: Final = PERMS_APP | PERM_SW_VMEM


@dataclass(frozen=True, slots=True)
class Capability:
    """An unforgeable fat pointer.

    Invariants: base <= address <= base + length (the address may sit
    one-past-end; dereference additionally needs address + width within
    bounds), and a capability with tag=False authorizes nothing.
    """

    address: int
    base: int
    length: int
    perms: int = PERMS_NONE  # a mask of PERM_* bits
    otype: Otype = UNSEALED
    tag: bool = False

    @property
    def top(self) -> int:
        return self.base + self.length

    def is_sealed(self, otypeth: int = DEFAULT_OTYPETH) -> bool:
        return self.otype is not None and self.otype >= otypeth


NULL_CAP: Final = Capability(0, 0, 0)


def derive(
    parent: Capability,
    new_base: int,
    new_length: int,
    new_perms: int,
    otypeth: int = DEFAULT_OTYPETH,
    color: Optional[int] = None,
) -> Capability:
    """Derive a capability with narrowed bounds and permissions.

    The child's address is placed at its new base and the otype is copied
    from the parent, or set to `color`: assigning a provenance color needs
    a parent holding sw_vmem, so only the trusted allocator can stamp one,
    and an unsealed, uncolored parent.  Raises UntaggedOperand /
    SealedOperand for unusable parents, MonotonicityViolation if bounds or
    permissions would widen, and PermissionDenied / ColorOutOfRange for a
    color the parent may not assign.
    """
    if not parent.tag:
        raise UntaggedOperand("cannot derive from an untagged capability")
    if parent.is_sealed(otypeth):
        raise SealedOperand("cannot derive from a sealed capability")
    if new_length < 0 or new_base < parent.base or new_base + new_length > parent.top:
        raise MonotonicityViolation(
            f"bounds [{new_base:#x},{new_base + new_length:#x}) exceed "
            f"[{parent.base:#x},{parent.top:#x})"
        )
    if new_perms & ~parent.perms:
        raise MonotonicityViolation("permissions exceed the parent's")
    otype = parent.otype
    if color is not None:
        if not parent.perms & PERM_SW_VMEM:
            raise PermissionDenied("authorizing capability lacks sw_vmem")
        if not 0 < color < otypeth:
            raise ColorOutOfRange(f"color {color} not in (0, {otypeth})")
        if otype is not None:
            raise SealedOperand("capability already carries an otype")
        otype = color
    return Capability(new_base, new_base, new_length, new_perms, otype, True)


def clear_tag(cap: Capability) -> Capability:
    """Invalidate a capability.  Idempotent; fields are preserved."""
    if not cap.tag:
        return cap
    return Capability(cap.address, cap.base, cap.length, cap.perms, cap.otype, False)


_OFF_MAX: Final = 0xFF_FFFF
_ZERO16: Final = bytes(16)


def pack(cap: Capability) -> bytes:
    """Serialize to the 16-byte little-endian record.

    Layout: address:8, base-offset:3, length:3, perms:1 bitfield, otype low
    byte:1.  The validity tag travels out of band.  This is a debugging
    projection: base offset and length saturate at 2**24 - 1 and only the
    low 8 bits of a color survive.  Tagged memory words keep the exact
    capability alongside this image, so no authority ever depends on it.
    """
    off = cap.address - cap.base
    if off > _OFF_MAX:
        off = _OFF_MAX
    length = cap.length if cap.length <= _OFF_MAX else _OFF_MAX
    ot = 0xFF if cap.otype is None else cap.otype & 0xFF
    return (
        (cap.address & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
        + off.to_bytes(3, "little")
        + length.to_bytes(3, "little")
        + bytes((cap.perms, ot))
    )


def unpack(data: bytes, tag: bool = False) -> Capability:
    """Rebuild a capability from its packed image.

    Used for untagged words only (the all-ones otype byte reads back as
    UNSEALED); tagged words are reconstructed from the exact stored value.
    """
    if len(data) != CAPABILITY_WIDTH:
        raise ValueError(f"capability record must be {CAPABILITY_WIDTH} bytes")
    address = int.from_bytes(data[0:8], "little")
    off = int.from_bytes(data[8:11], "little")
    length = int.from_bytes(data[11:14], "little")
    ot: Otype = UNSEALED if data[15] == 0xFF else data[15]
    return Capability(
        address=address,
        base=address - off,
        length=length,
        perms=data[14],
        otype=ot,
        tag=tag,
    )


@dataclass(frozen=True)
class MachineConfig:
    """Geometry and tunables of one simulated machine.

    Defaults give a 21-bit color space (2 MiB of colors => a 256 KiB
    provenance-validity table), a sealed threshold equal to the top of the
    color space (sealing disabled unless lowered), and a 64-word 4-way
    set-associative PVT buffer.
    """

    color_bits: int = COLOR_BITS_DEFAULT
    otypeth: Optional[int] = None  # defaults to 2**color_bits
    heap_base: int = 0x0001_0000
    heap_size: int = 1 << 20
    scratch_slots: int = 64  # capability spill slots, 16 bytes each
    pvt_base: Optional[int] = None  # defaults to just past the scratch region
    pvt_buffer_enabled: bool = True
    pvt_mapped_bytes: Optional[int] = None  # < pvt_bytes models an unmapped tail

    def __post_init__(self) -> None:
        if not 4 <= self.color_bits <= 24:
            raise ValueError("color_bits must be in [4, 24]")
        if self.otypeth is None:
            object.__setattr__(self, "otypeth", 1 << self.color_bits)
        if not 1 <= self.otypeth <= (1 << self.color_bits):
            raise ValueError("otypeth must be in [1, 2**color_bits]")
        if self.heap_base % 16 or self.heap_size % 16 or self.heap_size <= 0:
            raise ValueError("heap must be 16-byte aligned and non-empty")
        if self.scratch_slots < 0:
            raise ValueError("scratch_slots must be >= 0")
        if self.pvt_base is None:
            object.__setattr__(self, "pvt_base", self.scratch_base + self.scratch_size)
        if self.pvt_base % 16:
            raise ValueError("pvt_base must be 16-byte aligned")
        if self.pvt_mapped_bytes is None:
            object.__setattr__(self, "pvt_mapped_bytes", self.pvt_bytes)
        # The table must not overlap the heap or the scratch region.
        lo, hi = self.pvt_base, self.pvt_base + self.pvt_bytes
        if lo < self.scratch_base + self.scratch_size and hi > self.heap_base:
            raise ValueError("PVT region overlaps the heap or scratch region")

    @property
    def color_count(self) -> int:
        """Number of otype encodings; usable colors are 1 .. color_count-1."""
        return 1 << self.color_bits

    @property
    def pvt_bytes(self) -> int:
        return (1 << self.color_bits) // 8

    @property
    def scratch_base(self) -> int:
        return self.heap_base + self.heap_size

    @property
    def scratch_size(self) -> int:
        return self.scratch_slots * CAPABILITY_WIDTH
