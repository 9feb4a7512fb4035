"""Differential property test over random traces.

Hypothesis generates traces whose accesses start inside each register's
allocation (the generator tracks every register's size) and end up to 16
bytes past it, and whose scratch reads and writes cover spilled capabilities
and end up to 16 bytes past the scratch region.  The lifetime oracle judges
lifetimes, not bounds, so a spatial fault is never a false positive, and
the oracle is the only judge of temporal legality.  On each trace, at 7
color bits:

* picasso lets no violation escape and faults no temporally legal access,
  with sweeps run to completion and with every sweep window from 1 to 8
  words;
* the PVT buffer on and off give identical outcome lists;
* the color allocator's invariants hold after every sweep, and no color is
  reissued while a tagged capability of it survives;
* the text format round-trips the trace.

Cornucopia's sweep clears a tag exactly when the capability's range
touches a quarantined 16-byte word, whatever its base, length and the
blocks it spans.

At 4 color bits the same traces run out of colors: with any sweep window
picasso raises PoolExhausted exactly when it does with sweeps run to
completion (only when every color is live), and a run that finishes still
matches the oracle.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from colorcap.capability import PERMS_APP, UNSEALED, Capability
from colorcap.harness import RunConfig, run_trace
from colorcap.machine import NUM_REGISTERS, TaggedMachine
from colorcap.mrs import MallocRevocationShim, PoolExhausted
from colorcap.schemes import CornucopiaScheme
from colorcap.trace import (
    OP_COPY,
    OP_DERIVE,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_RELOAD,
    OP_SCRATCH,
    OP_SPILL,
    OP_WRITE,
    Trace,
    format_trace,
    parse_trace,
)
from helpers import reissue_checked, validate

REGS = 3
SLOTS = 4
# Holds the scratch authority: data writes through it clear the tags of the
# spill slots they overlap.
SCRATCH_REG = REGS


@st.composite
def traces(draw):
    """20 to 120 ops over 3 registers and 4 spill slots, after binding a
    fourth register to scratch; reads and writes start inside the
    register's current allocation, whether or not it is still live, and end
    up to 16 bytes past it, and scratch reads and writes cover the spilled
    slots, packed images included, and end up to 16 bytes past the scratch
    region.  At most 120 mallocs never outgrow the 127 colors, so every
    trace runs to the end."""
    size = [0] * REGS  # bytes reachable through each register's capability
    slot_size = [0] * SLOTS
    ops = [(OP_SCRATCH, SCRATCH_REG, 0, 0)]
    for _ in range(draw(st.integers(20, 120))):
        reg = draw(st.integers(0, REGS - 1))
        kind = draw(st.sampled_from(("malloc", "malloc", "free", "free", "access", "access",
                                     "copy", "spill", "spill", "reload", "reload", "derive",
                                     "overwrite", "peek")))
        if kind == "malloc":
            size[reg] = draw(st.integers(1, 64))
            ops.append((OP_MALLOC, reg, size[reg], 0))
        elif kind == "free":
            ops.append((OP_FREE, reg, 0, 0))
        elif kind == "access" and size[reg]:
            offset = draw(st.integers(0, size[reg] - 1))
            width = draw(st.integers(1, size[reg] - offset + 16))
            ops.append((draw(st.sampled_from((OP_READ, OP_WRITE))), reg, offset, width))
        elif kind == "copy":
            src = draw(st.integers(0, REGS - 1))
            size[reg] = size[src]
            ops.append((OP_COPY, reg, src, 0))
        elif kind == "spill":
            slot = draw(st.integers(0, SLOTS - 1))
            slot_size[slot] = size[reg]
            ops.append((OP_SPILL, reg, slot, 0))
        elif kind == "reload":
            slot = draw(st.integers(0, SLOTS - 1))
            size[reg] = slot_size[slot]
            ops.append((OP_RELOAD, reg, slot, 0))
        elif kind == "derive":
            src = draw(st.integers(0, REGS - 1))
            offset = draw(st.integers(0, size[src]))
            size[reg] = size[src] - offset
            ops.append((OP_DERIVE, reg, src, offset))
        elif kind in ("overwrite", "peek"):
            offset = draw(st.integers(0, 16 * SLOTS - 1))
            width = draw(st.integers(0, 16 * SLOTS - offset + 16))
            ops.append((OP_WRITE if kind == "overwrite" else OP_READ, SCRATCH_REG, offset, width))
    return Trace(ops=ops, slots=SLOTS, name="property")


@contextmanager
def validated_sweeps():
    """Check the color allocator after every completed picasso sweep."""
    advance = MallocRevocationShim._advance

    def checked(shim, window):
        advance(shim, window)
        if shim.job is None:
            validate(shim.unr)

    with mock.patch.object(MallocRevocationShim, "_advance", checked):
        yield


def outcomes(trace, config):
    result = run_trace(trace, "picasso", config, collect_outcomes=True)
    assert result.metrics.uaf_escapes == 0
    assert result.metrics.false_positives == 0
    return result.outcomes


def _overwritten_spill_slot(width):
    """A scratch write of `width` bytes inside slot 1 after a spill there.
    A non-empty write clears the spilled capability's tag: the capability
    reloaded from that slot is no longer bound, so its faulting read is
    legal for the oracle to flag, not a false positive.  An empty write
    clears nothing, and the reloaded capability stays bound."""
    return Trace(
        ops=[(OP_SCRATCH, SCRATCH_REG, 0, 0), (OP_MALLOC, 0, 32, 0), (OP_SPILL, 0, 1, 0),
             (OP_WRITE, SCRATCH_REG, 20, width), (OP_RELOAD, 1, 1, 0), (OP_READ, 1, 0, 8)],
        slots=SLOTS,
        name="property",
    )


# A read that ends 8 bytes past a live block: a spatial fault, and legal
# for the lifetime oracle.
_READ_PAST_A_LIVE_BLOCK = Trace(
    ops=[(OP_SCRATCH, SCRATCH_REG, 0, 0), (OP_MALLOC, 0, 32, 0), (OP_READ, 0, 24, 16)],
    slots=SLOTS,
    name="property",
)

# A derive 16 bytes past a live block's end faults and leaves r1 unbound:
# the read through it is a violation, not a false positive.
_DERIVE_PAST_A_LIVE_BLOCK = Trace(
    ops=[(OP_MALLOC, 0, 32, 0), (OP_DERIVE, 1, 0, 48), (OP_READ, 1, 0, 8)],
    slots=SLOTS,
    name="property",
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=traces(),
    # High thresholds make short traces sweep: at 0.97 a revocation starts
    # once 4 of the 127 colors are claimed.
    threshold=st.sampled_from((0.5, 0.9, 0.97)),
)
@example(trace=_overwritten_spill_slot(4), threshold=0.5)
@example(trace=_overwritten_spill_slot(0), threshold=0.5)
@example(trace=_READ_PAST_A_LIVE_BLOCK, threshold=0.5)
@example(trace=_DERIVE_PAST_A_LIVE_BLOCK, threshold=0.5)
def test_picasso_matches_the_oracle(trace, threshold):
    config = RunConfig(color_bits=7, threshold_fraction=threshold)
    with validated_sweeps(), reissue_checked():
        expected = outcomes(trace, config)
        for window in range(1, 9):
            outcomes(trace, RunConfig(color_bits=7, threshold_fraction=threshold,
                                      sweep_window=window))
        unbuffered = RunConfig(color_bits=7, threshold_fraction=threshold, pvt_buffer=False)
        assert outcomes(trace, unbuffered) == expected
    parsed = parse_trace(format_trace(trace))
    assert parsed.ops == trace.ops
    assert parsed.slots <= trace.slots


def exhausts(trace, config):
    """Does picasso run out of colors?  A run that finishes must match the
    oracle."""
    try:
        metrics = run_trace(trace, "picasso", config).metrics
    except PoolExhausted:
        return True
    assert metrics.uaf_escapes == 0
    assert metrics.false_positives == 0
    return False


# Few random traces reach the pool's last color under a sweep window, so pin
# one: the 16th malloc starts a window-1 sweep over the one retracted color
# with every color claimed, and must finish it rather than give up.
_LAST_COLOR_UNDER_AN_EMPTY_SWEEP = Trace(
    ops=[(OP_MALLOC, 0, 16, 0), (OP_SPILL, 0, 0, 0), (OP_MALLOC, 0, 16, 0), (OP_SPILL, 0, 1, 0)]
    + [(OP_MALLOC, 0, 16, 0)] * 13
    + [(OP_FREE, 0, 0, 0), (OP_MALLOC, 0, 16, 0)],
    slots=SLOTS,
    name="property",
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), threshold=st.sampled_from((0.5, 0.9, 0.97)))
@example(trace=_LAST_COLOR_UNDER_AN_EMPTY_SWEEP, threshold=0.97)
def test_sweep_window_never_exhausts_colors_early(trace, threshold):
    expected = exhausts(trace, RunConfig(color_bits=4, threshold_fraction=threshold))
    for window in range(1, 9):
        config = RunConfig(color_bits=4, threshold_fraction=threshold, sweep_window=window)
        assert exhausts(trace, config) == expected


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_quarantine_sweep_clears_exactly_the_caps_touching_quarantined_words(data):
    m = TaggedMachine(RunConfig(color_bits=8, heap_size=0x4000))
    heap_base, heap_top = m.config.heap_base, m.config.scratch_base
    corn = CornucopiaScheme(m)
    # At most 12 blocks of up to 256 bytes: the quarantine stays under the
    # sweep floor and the heap never runs out, so nothing sweeps early.
    caps = [corn.malloc(size) for size in data.draw(st.lists(st.integers(1, 256),
                                                             min_size=1, max_size=12))]
    words = set()
    for cap in caps:
        if data.draw(st.booleans()):
            assert corn.free(cap) is None
            words.update(range(cap.base, cap.base + cap.length, 16))
    assert corn.revocations == 0
    extent = max(cap.base + cap.length for cap in caps) + 64

    def planted():
        base = data.draw(st.integers(heap_base, min(extent, heap_top)))
        length = data.draw(st.one_of(st.just(0), st.integers(0, heap_top - base)))
        return Capability(base, base, length, PERMS_APP, UNSEALED, True)

    def touches(cap):
        # Some 16-byte word of [base, top) is quarantined; an empty range
        # touches nothing.
        return cap.length > 0 and any(
            word in words for word in range(cap.base & ~15, cap.base + cap.length, 16))

    slots = data.draw(st.lists(st.integers(0, 63), unique=True, max_size=12))
    for slot in slots:
        m.caps[m.config.scratch_base + 16 * slot] = planted()
    regs = data.draw(st.lists(st.integers(0, NUM_REGISTERS - 1), unique=True,
                              max_size=NUM_REGISTERS))
    for reg in regs:
        m.regs[reg] = planted()
    expected = {("mem", addr) for addr, cap in m.caps.items() if touches(cap)}
    expected |= {("reg", i) for i in regs if touches(m.regs[i])}
    corn.revoke()
    cleared = {("mem", m.config.scratch_base + 16 * slot) for slot in slots}
    cleared -= {("mem", addr) for addr in m.caps}
    cleared |= {("reg", i) for i in regs if not m.regs[i].tag}
    assert cleared == expected
    assert corn.swept_tags == len(expected)
