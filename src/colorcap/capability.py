"""Capability values: exact bounds, permissions, colors, and the otype
threshold rule.

A capability is the unit of authority in the simulated machine: an address,
exact (base, length) bounds, a permission set, an object-type field that can
carry a provenance color, and a validity tag.  Derivation is monotonic - a
child never exceeds its parent's bounds or permissions - and no operation in
this module can turn an untagged capability back into a tagged one.

The object type partitions into three interpretations against a threshold
(OTYPETH): the UNSEALED sentinel means an ordinary capability, values
strictly between 0 and the threshold are colors (provenance identifiers),
and values at or above the threshold are sealed.  otype 0 is reserved and
reads as unsealed; it is never handed out as a color, so the usable color
pool is 1 .. 2**color_bits - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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


@dataclass(frozen=True, slots=True)
class PermissionSet:
    load: bool = False
    store: bool = False
    load_cap: bool = False
    store_cap: bool = False
    sw_vmem: bool = False

    def issubset(self, other: "PermissionSet") -> bool:
        return (
            (other.load or not self.load)
            and (other.store or not self.store)
            and (other.load_cap or not self.load_cap)
            and (other.store_cap or not self.store_cap)
            and (other.sw_vmem or not self.sw_vmem)
        )

    def to_bits(self) -> int:
        return (
            self.load
            | self.store << 1
            | self.load_cap << 2
            | self.store_cap << 3
            | self.sw_vmem << 4
        )

    @classmethod
    def from_bits(cls, bits: int) -> "PermissionSet":
        return cls(
            load=bool(bits & 1),
            store=bool(bits & 2),
            load_cap=bool(bits & 4),
            store_cap=bool(bits & 8),
            sw_vmem=bool(bits & 16),
        )


PERMS_NONE: Final = PermissionSet()
PERMS_DATA: Final = PermissionSet(load=True, store=True)
#: What an application receives from an allocator: full data and capability
#: access, never sw_vmem.
PERMS_APP: Final = PermissionSet(load=True, store=True, load_cap=True, store_cap=True)
#: Allocator root authority; sw_vmem gates color assignment.
PERMS_ROOT: Final = PermissionSet(
    load=True, store=True, load_cap=True, store_cap=True, sw_vmem=True
)


class OtypeKind(Enum):
    UNSEALED = "unsealed"
    COLORED = "colored"
    SEALED = "sealed"


@dataclass(frozen=True, slots=True)
class OtypeInterpretation:
    kind: OtypeKind
    color: Optional[int] = None  # set iff kind is COLORED


_UNSEALED_INTERP: Final = OtypeInterpretation(OtypeKind.UNSEALED)
_SEALED_INTERP: Final = OtypeInterpretation(OtypeKind.SEALED)


def interpret(otype: Otype, otypeth: int = DEFAULT_OTYPETH) -> OtypeInterpretation:
    """Classify an otype against a threshold.

    Total over inputs: the UNSEALED sentinel and the reserved value 0 read
    as unsealed; 0 < otype < otypeth is a color; otype >= otypeth is sealed.
    """
    if otype is None or otype == 0:
        return _UNSEALED_INTERP
    if otype < otypeth:
        return OtypeInterpretation(OtypeKind.COLORED, otype)
    return _SEALED_INTERP


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
    perms: PermissionSet = PERMS_NONE
    otype: Otype = UNSEALED
    tag: bool = False

    @property
    def top(self) -> int:
        return self.base + self.length

    def is_sealed(self, otypeth: int = DEFAULT_OTYPETH) -> bool:
        return self.otype is not None and self.otype >= otypeth

    def __str__(self) -> str:
        ot = "unsealed" if self.otype is None else f"otype={self.otype}"
        tag = "tagged" if self.tag else "untagged"
        return (
            f"cap[{self.base:#x}+{self.length:#x} @{self.address:#x} "
            f"{ot} {tag}]"
        )


NULL_CAP: Final = Capability(0, 0, 0)


def derive(
    parent: Capability,
    new_base: int,
    new_length: int,
    new_perms: PermissionSet,
    otypeth: int = DEFAULT_OTYPETH,
) -> Capability:
    """Derive a capability with narrowed bounds and permissions.

    The child's address is placed at its new base and the otype is copied
    from the parent.  Raises UntaggedOperand / SealedOperand for unusable
    parents and MonotonicityViolation if bounds or permissions would widen.
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
    if not new_perms.issubset(parent.perms):
        raise MonotonicityViolation("permissions exceed the parent's")
    return Capability(
        address=new_base,
        base=new_base,
        length=new_length,
        perms=new_perms,
        otype=parent.otype,
        tag=True,
    )


def set_color(
    cap: Capability,
    auth: Capability,
    color: int,
    otypeth: int = DEFAULT_OTYPETH,
) -> Capability:
    """Assign a provenance color to an unsealed capability.

    Requires an authorizing capability holding sw_vmem, so only the trusted
    allocator can stamp provenance identifiers.  Everything but the otype is
    preserved.
    """
    if not auth.tag or not cap.tag:
        raise UntaggedOperand("set_color operands must be tagged")
    if not auth.perms.sw_vmem:
        raise PermissionDenied("authorizing capability lacks sw_vmem")
    if not 0 < color < otypeth:
        raise ColorOutOfRange(f"color {color} not in (0, {otypeth})")
    if cap.otype is not None:
        raise SealedOperand("capability already carries an otype")
    return Capability(cap.address, cap.base, cap.length, cap.perms, color, cap.tag)


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
        + bytes((cap.perms.to_bits(), ot))
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
    perms = PermissionSet.from_bits(data[14])
    ot: Otype = UNSEALED if data[15] == 0xFF else data[15]
    return Capability(
        address=address,
        base=address - off,
        length=length,
        perms=perms,
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
