"""Every scheme against the whole-run reference model in `reference.py`.

One property replays each drawn trace under all five schemes, on the
simulator and on the model, and demands equal `Metrics` and outcomes with
no false positive, or the same `OutOfMemory` or `PoolExhausted` when a run
ends early, while the reissue invariant holds on the simulator.  Pinned examples reach what short
drawn traces rarely do, and known mutants of the simulator must fail the
comparison or the invariant.  Every heap op of the simulator is
checked against a flat free list as it happens, and so is the heap's index.
"""

import random
import re
from bisect import bisect_right
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from colorcap import harness, heap, schemes
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import BUCKET_SPLIT, GRANULE, FreeListHeap, HeapScheme, OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.mrs import PoolExhausted
from colorcap.schemes import MIN_QUARANTINE_BYTES, SCHEME_NAMES
from colorcap.trace import Trace, parse_trace
from colorcap.unr import _Builder
from helpers import reissue_checked
from test_properties import traces


def whole_run(trace, scheme, config, model=False):
    """The run's `Metrics` and outcomes on the simulator (or the model), or
    the type and message of the exception that ended it early.  The model's
    `pvt_lookups` is its machine's own count, not the buffer's hits plus
    misses that `run_trace` derives the field from."""
    try:
        with reference.installed() if model else nullcontext() as machines:
            result = run_trace(trace, scheme, config, collect_outcomes=True)
    except (OutOfMemory, PoolExhausted) as exc:
        return type(exc), str(exc)
    metrics = result.metrics.to_dict()
    if model:
        metrics["pvt_lookups"] = machines[0].pvt_lookups
    return metrics, result.outcomes


def check_index(free_list: FreeListHeap) -> None:
    assert all(free_list.bases), "no bucket is empty"
    assert list(map(len, free_list.bases)) == list(map(len, free_list.sizes))
    assert all(len(bases) <= 2 * heap.BUCKET_SPLIT for bases in free_list.bases)
    assert free_list.firsts == [bases[0] for bases in free_list.bases]
    assert free_list.maxes == list(map(max, free_list.sizes))


def _checked(op):
    """`FreeListHeap.alloc` or `.free`, run on a `FlatHeap` holding the same
    free list too: same result or `OutOfMemory`, same free list after, and
    the index intact."""

    def run(free_list, *args):
        flat = reference.FlatHeap(0, 0)
        flat.free_blocks = free_list.free_blocks
        try:
            result = op(free_list, *args)
        except OutOfMemory as exc:
            with pytest.raises(OutOfMemory, match=f"^{re.escape(str(exc))}$"):
                flat.alloc(*args)
            raise
        assert result == getattr(flat, op.__name__)(*args)
        assert free_list.free_blocks == flat.free_blocks
        check_index(free_list)
        return result

    return run


@contextmanager
def patched(split, floor):
    """Bucket splits at `split` blocks and a quarantine floor of `floor`
    bytes, in the simulator and the model, and every heap op checked."""
    with mock.patch.object(heap, "BUCKET_SPLIT", split), mock.patch.object(
        schemes, "MIN_QUARANTINE_BYTES", floor
    ), mock.patch.object(reference, "MIN_QUARANTINE_BYTES", floor), mock.patch.multiple(
        FreeListHeap, alloc=_checked(FreeListHeap.alloc), free=_checked(FreeListHeap.free)
    ):
        yield


def pinned(lines, heap_size, color_bits=8, floor=MIN_QUARANTINE_BYTES, **kw):
    config = RunConfig(color_bits=color_bits, heap_size=heap_size, **kw)
    return {"trace": parse_trace("\n".join(lines)), "config": config, "split": BUCKET_SPLIT,
            "floor": floor}


# Versioning, each case with its heap.  _WRAP: the 16th free of granule 0
# wraps it while granule 1 stays at 1, so the stale 2-granule r0 matches
# the first granule only.
_WRAP = ["malloc r0 32", "free r0"] + ["malloc r1 16", "free r1"] * 15 + [
    "read r0 0 32", "write r0 0 17", "malloc r2 32", "read r0 0 1"]
# The 16th free of a 4 KiB block wraps it; with the fallback the quarantine
# reaches the sweep floor, and the sweep revokes r0.
_SWEEP = ["malloc r0 4096", "free r0"] * 16 + ["read r0 0 16", "malloc r1 16"]
# Under a 16-byte floor, the share rule holds the first wrapped granule back
# (16 < 0.25 * 80) and sweeps at the second (32 >= 0.25 * 96), revoking r0.
_SHARE = ["malloc r1 64"] + ["malloc r0 16", "free r0"] * 32 + ["read r0 0 16"]
# Granules 0..2 reach versions 3, 2 and 1, then coalesce into one block.
_COALESCE = ["malloc r0 16", "malloc r1 16", "malloc r2 16", "free r1", "malloc r3 16", "free r0",
             "malloc r4 16", "free r4", "malloc r5 16", "free r5", "free r3", "free r2",
             "malloc r6 48", "read r6 0 48", "read r3 0 16", "read r2 0 16"]
# ROADMAP item 3a: malloc gives the coalesced block granule 0's version (1),
# which the stale r3 also carries, so its read goes through.
_ITEM_3A = ["malloc r0 16", "malloc r1 16", "free r1", "malloc r2 16", "copy r3 r2", "free r2",
            "free r0", "malloc r4 32", "read r3 0 8"]
# An empty capability at the heap top reads version 0 off the table, and
# granule 0 is at 1, so freeing it is a malformed free.
_HEAP_TOP = ["malloc r0 16", "malloc r1 16", "free r0", "derive r2 r1 16", "free r2", "read r2 0 0"]
# The same at the top of the highest carved block, where the table ends:
# r1 is at version 1, so freeing r2 is a double free.
_CARVED_TOP = ["malloc r0 16", "malloc r1 16", "free r1", "malloc r1 16", "derive r2 r1 16",
               "free r2", "read r2 0 0"]
# A derive past its parent's top faults and unbinds r1, so the read through
# it is a violation under every scheme, not a false positive.
_DERIVE_PAST_THE_TOP = ["malloc r0 32", "derive r1 r0 48", "read r1 0 8"]
# Freed granules 0..2 coalesce with the never-carved rest, and r2's block
# runs one granule past the table's end; all four take granule 0's version.
_PAST_THE_END = ["malloc r0 16", "malloc r1 32", "free r0", "free r1", "malloc r2 64",
                 "read r2 0 64", "read r1 0 16", "free r2", "read r2 0 8"]
# First fit.  2 * _FREED one-granule blocks fill the heap, one spill slot
# each; freeing every other one leaves more than 2 * BUCKET_SPLIT free
# blocks, so a bucket splits.  The live block between the first bucket's
# last free block and the second's first is freed to bridge them.  Two
# mallocs and a read of their spilled images show where first fit put them.
_FREED = 2 * BUCKET_SPLIT + 22
_CHECKERBOARD = ["scratch r31"] + [f"malloc r0 16\nspill r0 {i}" for i in range(2 * _FREED)] + [
    f"reload r0 {i}\nfree r0" for i in range(0, 2 * _FREED, 2)]
_BRIDGE = [f"reload r0 {2 * BUCKET_SPLIT - 1}", "free r0"]
_PLACED = ["malloc r1 32", "spill r1 0", "malloc r1 16", "spill r1 2", "read r31 0 48"]
# A bucket holding one block loses it to an exact fit, leaving no bucket,
# and the next free starts one again.  Then its unique largest block goes to
# an exact fit, and a malloc of that size finds no block.
_LONE_BUCKET = ["malloc r0 32", "malloc r1 16", "malloc r2 16", "malloc r3 16", "free r2",
                "malloc r4 16", "free r4", "free r0", "malloc r5 32", "malloc r6 32"]
# Colors 1, 512 and 513 freed among 513 claimed at 10 bits: the sweep hands
# the run 512-513 to a node builder whose bitmap has room for one ID.
_WIDE_RELEASE = ["malloc r1 16"] + ["malloc r0 16"] * 510 + [
    "malloc r2 16", "malloc r3 16", "free r1", "free r2", "free r3", "malloc r4 16"]
# A window-1 sweep over four slots; a stale copy spilled behind its cursor
# is revoked when the sweep finishes.
_BEHIND_THE_CURSOR = ["malloc r0 16"] + [f"malloc r1 16\nspill r1 {slot}" for slot in range(4)] + [
    "free r0", "malloc r2 16", "malloc r2 16", "spill r0 0"] + ["malloc r2 16"] * 3 + [
    "reload r3 0", "read r3 0 8"]
# The same for cornucopia, whose window-1 sweep starts at the free of r0
# and whose finalize revokes the copy and r0 before r0's block is reused.
_QUARANTINE_BEHIND_THE_CURSOR = ["malloc r0 4096"] + [
    f"malloc r1 16\nspill r1 {slot}" for slot in range(4)] + [
    "free r0", "malloc r2 16", "spill r0 0"] + ["malloc r2 16"] * 3 + ["reload r3 0", "read r3 0 8"]

configs = st.builds(
    RunConfig,
    color_bits=st.integers(4, 8),
    threshold_fraction=st.sampled_from((0.01, 0.5, 0.97)),  # high ones sweep short traces
    heap_size=st.integers(6, 256).map(lambda granules: 16 * granules),
    quarantine_fraction=st.sampled_from((0.05, 0.25, 0.75)),
    sweep_window=st.one_of(st.none(), st.integers(1, 8)),
    versioning_fallback=st.booleans(),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Floors below MIN_QUARANTINE_BYTES let the quarantine's share of the
# resident bytes start sweeps in these small heaps.
@given(trace=traces(), config=configs, split=st.sampled_from((1, 2, BUCKET_SPLIT)),
       floor=st.sampled_from((16, 256, MIN_QUARANTINE_BYTES)))
@example(**pinned(_WRAP, 32, versioning_fallback=False))
@example(**pinned(_WRAP, 32))
@example(**pinned(_SWEEP, 8192))
@example(**pinned(_SHARE, 128, floor=16))
@example(**pinned(_COALESCE, 48))
@example(**pinned(_ITEM_3A, 1024))
@example(**pinned(_HEAP_TOP, 32))
@example(**pinned(_CARVED_TOP, 1024))
@example(**pinned(_PAST_THE_END, 1024))
@example(**pinned(_DERIVE_PAST_THE_TOP, 1024))
@example(**pinned(_CHECKERBOARD + _PLACED, 32 * _FREED))
@example(**pinned(_CHECKERBOARD + _BRIDGE + _PLACED, 32 * _FREED))
@example(**pinned(_LONE_BUCKET, 80))
@example(**pinned(_WIDE_RELEASE, 1 << 14, color_bits=10, threshold_fraction=0.5))
@example(**pinned(_QUARANTINE_BEHIND_THE_CURSOR, 8192, sweep_window=1))
def test_every_scheme_matches_the_reference(trace, config, split, floor):
    with patched(split, floor), reissue_checked():
        for scheme in SCHEME_NAMES:
            model = whole_run(trace, scheme, config, True)
            assert whole_run(trace, scheme, config) == model, scheme
            assert type(model[0]) is not dict or model[0]["false_positives"] == 0, scheme


def simulated(case, scheme, ops=None):
    """The simulator's scheme and outcomes after the first `ops` ops of a
    pinned case."""
    made, make = [], harness.make_scheme
    trace = Trace(ops=case["trace"].ops[:ops], slots=case["trace"].slots)
    with mock.patch.object(harness, "make_scheme", lambda *a: made.append(make(*a)) or made[0]):
        outcomes = run_trace(trace, scheme, case["config"], collect_outcomes=True).outcomes
    return made[0], outcomes


def test_pinned_examples_reach_their_case():
    wrapped, outcomes = simulated(pinned(_WRAP, 32, versioning_fallback=False), "versioning")
    assert outcomes[-4:] == [FaultKind.PROVENANCE_RETRACTED] * 2 + [None] * 2
    # The wrapped granule went back to the heap: r2 took it with no sweep.
    assert not wrapped.quarantine and wrapped.revocations == 0
    swept, outcomes = simulated(pinned(_SWEEP, 8192), "versioning")
    assert swept.revocations == 1 and outcomes[-2] is FaultKind.UNTAGGED_OPERAND
    with mock.patch.object(schemes, "MIN_QUARANTINE_BYTES", 16):
        assert simulated(pinned(_SHARE, 128), "versioning", 33)[0].revocations == 0
        swept, outcomes = simulated(pinned(_SHARE, 128), "versioning")
    assert swept.revocations == 1 and outcomes[-1] is FaultKind.UNTAGGED_OPERAND
    assert simulated(pinned(_COALESCE, 48), "versioning")[0].machine.regs[6].otype == 3
    assert simulated(pinned(_HEAP_TOP, 32), "versioning")[1][4] is FaultKind.MALFORMED_FREE
    top, outcomes = simulated(pinned(_CARVED_TOP, 1024), "versioning")
    assert (top.machine.regs[2].base - top.heap_base) >> 4 == len(top.versions) == 2
    assert outcomes[5] is FaultKind.DOUBLE_FREE
    past, outcomes = simulated(pinned(_PAST_THE_END, 1024), "versioning")
    assert past.machine.regs[2].otype == 1 and len(past.versions) == 4
    assert outcomes[-3:] == [FaultKind.PROVENANCE_RETRACTED, None, FaultKind.PROVENANCE_RETRACTED]
    split = simulated(pinned(_CHECKERBOARD, 32 * _FREED), "none")[0].heap
    assert list(map(len, split.bases)) == [BUCKET_SPLIT, _FREED - BUCKET_SPLIT]
    bridged = simulated(pinned(_CHECKERBOARD + _BRIDGE, 32 * _FREED), "none")[0].heap
    assert list(map(len, bridged.bases)) == [BUCKET_SPLIT, _FREED - BUCKET_SPLIT - 1]
    assert bridged.sizes[0][-1] == 48  # the bridge: two free granules and the freed one
    assert simulated(pinned(_LONE_BUCKET, 80), "none", 6)[0].heap.bases == []
    windowed = pinned(_QUARANTINE_BEHIND_THE_CURSOR, 8192, sweep_window=1)
    corn = simulated(windowed, "cornucopia", 12)[0]
    assert corn.job.cursor == 1 and corn.job.rewrites == {windowed["config"].scratch_base}
    corn, outcomes = simulated(windowed, "cornucopia")
    assert corn.revocations == 1 and corn.swept_tags == 2
    assert outcomes[-1] is FaultKind.UNTAGGED_OPERAND


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3a")
def test_stale_read_of_coalesced_block_faults():
    outcomes = simulated(pinned(_ITEM_3A, 1024), "versioning")[1]
    assert outcomes[-1] is FaultKind.PROVENANCE_RETRACTED


def test_matches_flat_free_list_at_bench_scale():
    """Random-victim churn at the bench's fragmentation: 8,000 live blocks
    of 1-256 granules, then 16,000 free/alloc pairs, leave a few thousand
    free blocks in dozens of buckets, which drawn traces never reach.  Every
    base must match a `FlatHeap`'s; the free list and the index are checked
    every 1,000 pairs, the last at the end."""
    rng = random.Random(1)
    flat, free_list = reference.FlatHeap(0, 64 << 20), FreeListHeap(0, 64 << 20)
    live, peak_buckets = [], 0
    for pair in range(-8000, 16000):
        if pair >= 0:
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            flat.free(*live[-1])
            free_list.free(*live.pop())
        size = rng.randint(1, 256) * GRANULE
        live.append((free_list.alloc(size), size))
        assert live[-1][0] == flat.alloc(size)
        peak_buckets = max(peak_buckets, len(free_list.firsts))
        if pair % 1000 == 999:
            assert free_list.free_blocks == flat.free_blocks
            check_index(free_list)
    assert peak_buckets >= 80


def _unlogged_sweep(start=HeapScheme._start_job):
    def unlogged(scheme, window):
        start(scheme, window)
        scheme.machine.cap_writes = None

    return mock.patch.object(HeapScheme, "_start_job", unlogged)


# r1's block lies between two quarantined ones and ends where the second
# starts; the malloc that runs out of heap sweeps both, and r1 must survive.
_ABUTTING = ["malloc r0 16", "malloc r1 16", "malloc r2 16", "free r0", "free r2", "malloc r3 16",
             "read r1 0 8"]
_WINDOWED = {
    "picasso": pinned(_BEHIND_THE_CURSOR, 1024, color_bits=4, threshold_fraction=0.99,
                      sweep_window=1),
    "cornucopia": pinned(_QUARANTINE_BEHIND_THE_CURSOR, 8192, sweep_window=1),
}


@pytest.mark.parametrize("mutant, scheme, case", [
    (lambda: mock.patch.object(schemes, "bisect_left", bisect_right), "cornucopia",
     pinned(_ABUTTING, 48)),
    (lambda: mock.patch.object(_Builder, "release", lambda builder, n: builder.run(False, n)),
     "picasso", pinned(_WIDE_RELEASE, 1 << 14, color_bits=10, threshold_fraction=0.5)),
    (_unlogged_sweep, "picasso", _WINDOWED["picasso"]),
    (_unlogged_sweep, "cornucopia", _WINDOWED["cornucopia"]),
], ids=["bisect_right", "release_as_one_run", "unlogged_sweep", "unlogged_quarantine_sweep"])
def test_mutants_fail_the_comparison(mutant, scheme, case):
    trace, config = case["trace"], case["config"]
    assert whole_run(trace, scheme, config) == whole_run(trace, scheme, config, True)
    with mutant():
        assert whole_run(trace, scheme, config) != whole_run(trace, scheme, config, True)


def _registers_only_with_all_memory(sweep_scan=TaggedMachine.sweep_scan):
    """The finalize skipping the register scan: a scan of given words never
    visits the registers."""

    def scan(machine, select, addresses=None, include_registers=True):
        return sweep_scan(machine, select, addresses, include_registers and addresses is None)

    return mock.patch.object(TaggedMachine, "sweep_scan", scan)


def _unswept_quarantine():
    """Cornucopia releasing its quarantine without a sweep: its selector
    dooms nothing."""
    return mock.patch.object(schemes, "quarantine_selector", lambda blocks: lambda pairs: [])


# The quarantined r0 stays in its register while the sweep runs: cornucopia
# carves its block again at the next malloc.
_STALE_REGISTER = ["malloc r0 4096", "malloc r1 16", "spill r1 0", "free r0", "malloc r2 16"]


@pytest.mark.parametrize("mutant, scheme, case", [
    (_registers_only_with_all_memory, "picasso", _WINDOWED["picasso"]),
    (_registers_only_with_all_memory, "cornucopia", _WINDOWED["cornucopia"]),
    (_unlogged_sweep, "picasso", _WINDOWED["picasso"]),
    (_unlogged_sweep, "cornucopia", _WINDOWED["cornucopia"]),
    (_unswept_quarantine, "cornucopia", pinned(_STALE_REGISTER, 8192)),
    (_unswept_quarantine, "cornucopia-rof", pinned(_STALE_REGISTER, 8192)),
    (_unswept_quarantine, "cornucopia", _WINDOWED["cornucopia"]),
], ids=["finalize_skips_registers", "finalize_skips_registers_quarantine", "unlogged_sweep",
        "unlogged_quarantine_sweep", "unswept_quarantine", "unswept_quarantine_rof",
        "unswept_windowed_quarantine"])
def test_mutants_break_the_reissue_invariant(mutant, scheme, case):
    trace, config = case["trace"], case["config"]
    with reissue_checked():
        run_trace(trace, scheme, config)
        with mutant(), pytest.raises(AssertionError, match="reissued while"):
            run_trace(trace, scheme, config)
