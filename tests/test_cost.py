"""Cost per op, counted in bytecodes: the roadmap's aim that an op's cost
must not grow with the live set, the heap or the color pool.

Each run replays random-victim churn.  A warm-up fills `live` spill slots
with fresh blocks and may run some pairs; each pair reloads a random slot,
frees its block, mallocs a new one and spills it there.  When the warm-up
ends, the op generator switches on `sys.settrace` with `f_trace_opcodes`,
in `run_trace`'s frame too, and every opcode CPython runs in the next
PAIRS pairs is counted, except the generator's own and those of sweeps.
Sweeps are the one exception to the aim, because they are O(tagged memory)
in the modelled system too: a frame that starts one (`_SWEEP_CODES`) runs
untraced, with everything it calls, and is only counted.

The read runs count the same way, per read: a block written once, then
one payload of 1, 8 or 16 bytes inside one word read over and over.  Once
the warm-up has met every memo key of the read digest, a read's cost must
not grow with its width either.

Python calls are counted beside the opcodes, as the frames that start
outside a sweep (`call` events), so a call the modelled system does not
make shows up as one.

A count of opcodes is exact and repeatable, so a change that makes an op's
cost grow with the state cannot hide in timing noise.  Absolute opcode
counts differ across CPython versions and move with every feature, so none
is pinned: the tests print them instead (`pytest -s`).  Call counts follow
the code's structure, so one difference between schemes is pinned.  The
counts cannot see C-level work: a `max` over a heap bucket, the PVT's
or the digest's big-int steps, `bytes.translate` or a slice fill stay with
the bench and timeit.
"""

import random
import sys
from itertools import islice
from unittest import mock

import pytest

from colorcap import harness
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import FreeListHeap, HeapScheme
from colorcap.schemes import SCHEME_NAMES
from colorcap.trace import OP_FREE, OP_MALLOC, OP_READ, OP_RELOAD, OP_SPILL, OP_WRITE, Trace

PAIRS = 200
#: The frames of the one revocation job that every sweeping scheme runs:
#: its start, which freezes the targets and builds their selector, and its
#: advance.  They and every frame they call run untraced, so a sweep costs
#: no trace events, and each one is counted.
_SWEEP_CODES = {HeapScheme._start_job.__code__, HeapScheme._advance.__code__}


class Tally:
    """Opcodes and calls counted outside sweeps, and the sweeps started."""

    def __init__(self) -> None:
        self.ops = 0
        self.calls = 0
        self.sweeps = 0
        self.sweeping = False

    def count(self, frame, event, arg):
        if event == "opcode":
            self.ops += 1
        return self.count

    def sweep_ends(self, frame, event, arg):
        if event == "return":
            self.sweeping = False

    def enter(self, frame, event, arg):
        """The global trace function: picks each new frame's local one."""
        if self.sweeping or frame.f_code in _SOURCES:
            return None
        if frame.f_code in _SWEEP_CODES:
            self.sweeping = True
            self.sweeps += 1
            frame.f_trace_lines = False
            return self.sweep_ends
        self.calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.count


def _start_counting(tally):
    """Called from an op generator: count in run_trace's frame, already
    running, and in every frame that starts from now on."""
    caller = sys._getframe(2)
    caller.f_trace_lines = False
    caller.f_trace_opcodes = True
    caller.f_trace = tally.count
    sys.settrace(tally.enter)


def _churn(live, sizes, seed, tally, warm_pairs):
    """The ops of `live` warm-up mallocs, `warm_pairs` untraced pairs and
    PAIRS counted ones.  Every draw is made up front, so no `random` frame
    runs while counting."""
    rng = random.Random(seed)
    drawn = [rng.choice(sizes) for _ in range(live + warm_pairs + PAIRS)]
    victims = [rng.randrange(live) for _ in range(warm_pairs + PAIRS)]
    pairs = zip(victims, drawn[live:])
    for slot in range(live):
        yield (OP_MALLOC, 0, drawn[slot], 0)
        yield (OP_SPILL, 0, slot, 0)
    for slot, size in islice(pairs, warm_pairs):
        yield (OP_RELOAD, 1, slot, 0)
        yield (OP_FREE, 1, 0, 0)
        yield (OP_MALLOC, 0, size, 0)
        yield (OP_SPILL, 0, slot, 0)
    _start_counting(tally)
    for slot, size in pairs:
        yield (OP_RELOAD, 1, slot, 0)
        yield (OP_FREE, 1, 0, 0)
        yield (OP_MALLOC, 0, size, 0)
        yield (OP_SPILL, 0, slot, 0)
    sys.settrace(None)  # before run_trace builds its Metrics


def per_pair(scheme, live=1000, sizes=(16,), heap_size=1 << 20, color_bits=16, warm_pairs=0,
             seed=1):
    """Opcodes and calls per counted pair outside sweeps, and the sweeps
    among them."""
    tally = Tally()
    trace = Trace(ops=_churn(live, sizes, seed, tally, warm_pairs), slots=live)
    config = RunConfig(color_bits=color_bits, heap_size=heap_size)
    try:
        metrics = run_trace(trace, scheme, config).metrics
    finally:
        sys.settrace(None)  # a run that fails stops counting too
    assert metrics.faults_total == 0 and metrics.ops == 2 * live + 4 * (warm_pairs + PAIRS)
    return tally.ops / PAIRS, tally.calls / PAIRS, tally.sweeps


#: Reads of one payload before counting.  Its FNV-1a step permutes the
#: digest's low byte, so the memo keys of later reads all recur in these.
WARM_READS = 300
READS = 200


def _reads(width, tally):
    """The ops of one 16-byte block written once, WARM_READS untraced reads
    of its first `width` bytes and READS counted ones."""
    yield (OP_MALLOC, 0, 16, 0)
    yield (OP_WRITE, 0, 0, 16)
    read = (OP_READ, 0, 0, width)
    for _ in range(WARM_READS):
        yield read
    _start_counting(tally)
    for _ in range(READS):
        yield read
    sys.settrace(None)


#: The op generators: their own frames are never counted.
_SOURCES = {_churn.__code__, _reads.__code__}


def per_read(scheme, width):
    """Opcodes and calls per counted read."""
    tally = Tally()
    try:
        metrics = run_trace(Trace(ops=_reads(width, tally)), scheme).metrics
    finally:
        sys.settrace(None)
    assert metrics.faults_total == 0 and metrics.ops == 2 + WARM_READS + READS
    return tally.ops / READS, tally.calls / READS


def check_reads(scheme):
    """A steady-state read inside one word costs the same at every width:
    its digest step is one memo hit, with no work per byte."""
    counts = {width: per_read(scheme, width) for width in (1, 8, 16)}
    print(f"\n{scheme} reads: " + ", ".join(
        f"{width} B {ops:.1f} ops {calls:.1f} calls" for width, (ops, calls) in counts.items()))
    assert counts[1] == counts[8] == counts[16], (scheme, counts)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_read_cost_does_not_grow_with_width(scheme):
    check_reads(scheme)


#: One axis at a time, each from the base shape: 1k live, a 1 MiB heap and
#: 16 color bits.
AXES = {
    "live 16k": dict(live=16_000),
    "heap 1 GiB": dict(heap_size=1 << 30),
    "24 bits": dict(color_bits=24),
}


def check_flat(scheme):
    base = per_pair(scheme)
    counts = {"base": base, **{axis: per_pair(scheme, **kw) for axis, kw in AXES.items()}}
    print(f"\n{scheme}: " + ", ".join(
        f"{axis} {ops:.1f} ops {calls:.1f} calls ({sweeps} sweeps)"
        for axis, (ops, calls, sweeps) in counts.items()))
    for axis, count in counts.items():
        assert count[:2] == base[:2], (scheme, axis, count, base)


#: Sizes from 16 B to 4 KiB leave free blocks that first fit scans.
MIXED = dict(sizes=tuple(range(16, 4097, 16)), heap_size=64 << 20)


def check_mixed(scheme, warm_pairs=lambda live: 200):
    """Opcodes per pair rise by at most 10% over a 16x live set, after the
    same number of warm-up pairs at each size."""
    (small, small_calls, _), (large, large_calls, _) = (
        per_pair(scheme, live=live, warm_pairs=warm_pairs(live), **MIXED) for live in (500, 8000))
    print(f"\n{scheme} mixed sizes: {small:.1f} ops {small_calls:.1f} calls at 500 live, "
          f"{large:.1f} ops {large_calls:.1f} calls at 8k")
    assert large <= 1.1 * small, (scheme, small, large)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_fixed_size_pair_cost_is_flat(scheme):
    check_flat(scheme)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_mixed_size_pair_cost_grows_little(scheme):
    check_mixed(scheme)


def test_picasso_pair_makes_one_call_more_than_none():
    # The paper's pair is one color claim and one retraction over the plain
    # heap's: the claim is `UnrState.alloc_first_free`, and the retraction
    # is written inline in the shim's `free`.
    (ops, calls, _), (none_ops, none_calls, _) = per_pair("picasso"), per_pair("none")
    print(f"\npicasso/none: {ops:.1f}/{none_ops:.1f} ops ({ops / none_ops:.3f}), "
          f"{calls:.1f}/{none_calls:.1f} calls")
    assert calls == none_calls + 1, (calls, none_calls)


@pytest.mark.parametrize("scheme, calls", [("cornucopia", 13), ("versioning", 11)])
def test_quarantine_pair_makes_no_more_calls_than_before_the_shared_job(scheme, calls):
    # The malloc that advances a sweep in flight tests for one and calls
    # nothing else when there is none: 13 and 11 calls per pair, as when
    # cornucopia and versioning swept on a path of their own.
    assert per_pair(scheme)[1] <= calls


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: first fit's bucket scan")
def test_mixed_size_pair_cost_at_bench_fragmentation():
    # As many warm-up pairs as live blocks leave about as many free blocks
    # as the bench's random churn, and `FreeListHeap.alloc` walks `maxes`
    # in Python, one step per bucket: `none` rises about 29%.
    check_mixed("none", warm_pairs=lambda live: live)


def _flattening_alloc(alloc=FreeListHeap.alloc):
    def alloc_reading_every_block(heap, size):
        len(heap.free_blocks)
        return alloc(heap, size)

    return mock.patch.object(FreeListHeap, "alloc", alloc_reading_every_block)


def _summing_sample(sample=HeapScheme._sample):
    def sample_summing_live(scheme):
        if sys.gettrace() is not None:  # only while counting: the warm-up stays fast
            sum(1 for _ in scheme.live)
        sample(scheme)

    return mock.patch.object(HeapScheme, "_sample", sample_summing_live)


def _per_byte_digest():
    """No memo: every read takes `_fnv_step`'s loop over its bytes."""
    return mock.patch.object(harness, "_STEP_MEMO_CAP", 0)


@pytest.mark.parametrize("mutant, check", [
    (_flattening_alloc, check_mixed),
    (_summing_sample, check_flat),
    (_per_byte_digest, check_reads),
], ids=["alloc_reads_free_blocks", "sample_sums_live", "per_byte_digest"])
def test_mutants_fail(mutant, check):
    # Twenty pairs show the growth, and keep the traced O(live) work short.
    with mutant(), mock.patch.object(sys.modules[__name__], "PAIRS", 20):
        with pytest.raises(AssertionError):
            check("none")
