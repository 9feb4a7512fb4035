"""Capability values: exact bounds, permissions, colors, and the otype
threshold rule.

A capability is the unit of authority in the simulated machine: an address,
exact (base, length) bounds, permissions, an object-type field that can
carry a provenance color, and a validity tag.  The permissions are a mask of
PERM_* bits, the same byte that the packed record carries, so a permission
check is one `&`.  `derive` narrows only the base: the child keeps its
parent's top, perms and otype, so it never exceeds its parent.  Like every
checked op it returns its fault, a `FaultKind` member, rather than raising
it, and no operation in this module can turn an untagged capability back
into a tagged one.  Nothing here sets a color: an allocator builds each
capability it hands out, color included.

The object type partitions into three interpretations against a threshold
(OTYPETH): UNSEALED (-1) means an ordinary capability, values strictly
between 0 and the threshold are colors (provenance identifiers), and
values at or above the threshold are sealed.  otype 0 is reserved and
reads as unsealed; it is never handed out as a color, so the usable color
pool is 1 .. 2**color_bits - 1.  The otype is always an int, and "no
capability" is always NULL_CAP, the untagged all-zero capability, never
None.

The module also holds the run config, `RunConfig`: every setting of a run
and its default, written once, and the geometry derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Final, Optional

COLOR_BITS_DEFAULT: Final = 21
CAPABILITY_WIDTH: Final = 16  # bytes occupied by one capability record

#: Distinguished otype for capabilities that carry no color and are not
#: sealed.  Its low byte, the packed record's otype byte, is all ones.
UNSEALED: Final = -1


class ColorOutOfRange(Exception):
    pass


class FaultKind(str, Enum):
    """An architectural fault, returned (never raised) by checked ops."""

    SPATIAL_OUT_OF_BOUNDS = "SpatialOutOfBounds"
    UNTAGGED_OPERAND = "UntaggedOperand"
    PERMISSION_DENIED = "PermissionDenied"
    PROVENANCE_RETRACTED = "ProvenanceRetracted"
    SEALED_DEREFERENCE = "SealedDereference"
    MALFORMED_FREE = "MalformedFree"
    DOUBLE_FREE = "DoubleFree"


#: Permission bits, in the packed record's perms byte.
PERM_LOAD: Final = 1
PERM_STORE: Final = 2
PERM_LOAD_CAP: Final = 4
PERM_STORE_CAP: Final = 8

PERMS_NONE: Final = 0
PERMS_DATA: Final = PERM_LOAD | PERM_STORE
#: What an application receives from an allocator: full data and capability
#: access.
PERMS_APP: Final = PERMS_DATA | PERM_LOAD_CAP | PERM_STORE_CAP


@dataclass(frozen=True, slots=True, init=False)
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
    otype: int = UNSEALED
    tag: bool = False

    def __init__(
        self,
        address: int,
        base: int,
        length: int,
        perms: int = PERMS_NONE,
        otype: int = UNSEALED,
        tag: bool = False,
    ) -> None:
        # The generated __init__ of a frozen class stores each field with
        # object.__setattr__; the slots' own setters take half the time.
        _set_address(self, address)
        _set_base(self, base)
        _set_length(self, length)
        _set_perms(self, perms)
        _set_otype(self, otype)
        _set_tag(self, tag)


_set_address, _set_base, _set_length, _set_perms, _set_otype, _set_tag = (
    Capability.__dict__[name].__set__ for name in Capability.__slots__
)

NULL_CAP: Final = Capability(0, 0, 0)


def derive(parent: Capability, offset: int, otypeth: int) -> Capability | FaultKind:
    """The capability to [parent.base + offset, parent's top), with the
    parent's perms and otype, color included, and its address at its base;
    or the fault.  `otypeth` is the run's `RunConfig.color_count`."""
    if not parent.tag:
        return FaultKind.UNTAGGED_OPERAND
    if parent.otype >= otypeth:
        return FaultKind.SEALED_DEREFERENCE
    if not 0 <= offset <= parent.length:
        return FaultKind.SPATIAL_OUT_OF_BOUNDS
    base = parent.base + offset
    return Capability(base, base, parent.length - offset, parent.perms, parent.otype, True)


def clear_tag(cap: Capability) -> Capability:
    """Invalidate a capability.  Idempotent; fields are preserved."""
    if not cap.tag:
        return cap
    return Capability(cap.address, cap.base, cap.length, cap.perms, cap.otype, False)


_OFF_MAX: Final = 0xFF_FFFF


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
    return (
        (cap.address & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
        + off.to_bytes(3, "little")
        + length.to_bytes(3, "little")
        + bytes((cap.perms, cap.otype & 0xFF))
    )


def unpack(data: bytes) -> Capability:
    """Rebuild an untagged capability from its packed image.

    Used for untagged words only (the all-ones otype byte reads back as
    UNSEALED); tagged words are reconstructed from the exact stored value.
    """
    if len(data) != CAPABILITY_WIDTH:
        raise ValueError(f"capability record must be {CAPABILITY_WIDTH} bytes")
    address = int.from_bytes(data[0:8], "little")
    off = int.from_bytes(data[8:11], "little")
    length = int.from_bytes(data[11:14], "little")
    return Capability(
        address=address,
        base=address - off,
        length=length,
        perms=data[14],
        otype=UNSEALED if data[15] == 0xFF else data[15],
    )


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The run's settings, the only configuration: the machine is built
    from it and every scheme reads its tunables from `machine.config`.

    Defaults: 21 color bits (a 256 KiB provenance-validity table, and an
    otype threshold of color_count, so every otype from 2**color_bits up
    is sealed), a 1% revocation threshold, a 1/4 quarantine limit, a 1 MiB
    heap, sweeps to completion at their trigger, and versioning's
    quarantine fallback on.  The heap starts at `heap_base` and the
    harness's capability scratch region follows it.
    """

    heap_base: ClassVar[int] = 0x0001_0000

    color_bits: int = COLOR_BITS_DEFAULT
    threshold_fraction: float = 0.01
    quarantine_fraction: float = 0.25
    heap_size: int = 1 << 20
    sweep_window: Optional[int] = None  # tagged words a sweep scans per malloc; None: all at once
    versioning_fallback: bool = True

    def validate(self) -> None:
        if not 4 <= self.color_bits <= 24:
            raise ConfigError("color_bits must be in [4, 24]")
        if not 0 < self.threshold_fraction < 1:
            raise ConfigError("threshold_fraction must be in (0, 1)")
        if not 0 < self.quarantine_fraction < 1:
            raise ConfigError("quarantine_fraction must be in (0, 1)")
        if not 0 < self.heap_size <= 1 << 32 or self.heap_size % 16:
            raise ConfigError("heap_size must be a positive multiple of 16, at most 2**32")
        if self.sweep_window is not None and self.sweep_window < 1:
            raise ConfigError("sweep window must be >= 1")

    @property
    def color_count(self) -> int:
        """Number of otype encodings; usable colors are 1 .. color_count-1,
        and color_count is the otype threshold."""
        return 1 << self.color_bits

    @property
    def pvt_bytes(self) -> int:
        return (1 << self.color_bits) // 8

    @property
    def scratch_base(self) -> int:
        return self.heap_base + self.heap_size
