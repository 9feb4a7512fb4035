import hashlib
import json
import tracemalloc

import pytest

from colorcap.capability import (
    PERM_LOAD,
    PERMS_APP,
    UNSEALED,
    Capability,
    clear_tag,
)
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.mrs import MallocRevocationShim, PoolExhausted
from colorcap.schemes import PicassoScheme
from colorcap.trace import OP_FREE, OP_MALLOC, OP_READ, OP_RELOAD, OP_SPILL, Trace, parse_trace
from colorcap.workloads import SplitMix64, gen_churn
from helpers import claimed_ids, unbuffered, validate


def make(color_bits=10, heap_size=0x4000, threshold=0.01, window=None):
    machine = TaggedMachine(RunConfig(color_bits=color_bits, heap_size=heap_size,
                                      threshold_fraction=threshold, sweep_window=window))
    return machine, MallocRevocationShim(machine)


def set_bits(table):
    """The colors whose bits are set in a PVT-layout bitmap."""
    bits = int.from_bytes(table, "little")
    return {color for color in range(8 * len(table)) if bits >> color & 1}


def scratch_cap(machine):
    """Authority over 8 capability spill slots past the heap."""
    base = machine.config.scratch_base
    return Capability(base, base, 8 * 16, PERMS_APP, UNSEALED, True)


class TestMalloc:
    def test_first_allocation(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        assert cap.otype == 1  # lowest color
        assert cap.length == 32
        assert cap.base == mrs.machine.config.heap_base
        assert cap.tag
        assert cap.perms == PERMS_APP

    def test_size_rounds_to_granule(self):
        _, mrs = make()
        assert mrs.malloc(20).length == 32
        assert mrs.malloc(1).length == 16

    def test_live_allocations_get_distinct_colors(self):
        _, mrs = make()
        colors = {mrs.malloc(16).otype for _ in range(20)}
        assert len(colors) == 20

    def test_rejects_nonpositive_size(self):
        _, mrs = make()
        with pytest.raises(ValueError):
            mrs.malloc(0)


class TestFree:
    def test_free_then_immediate_reuse_new_color(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        assert mrs.free(cap) is None
        again = mrs.malloc(32)
        assert again.base == cap.base  # no quarantine: byte range reusable now
        assert again.otype != cap.otype

    def test_double_free_via_copy(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        copy = Capability(
            cap.address, cap.base, cap.length, cap.perms, cap.otype, cap.tag
        )
        assert mrs.free(cap) is None
        assert mrs.free(copy) is FaultKind.DOUBLE_FREE

    def test_free_uncolored_is_malformed(self):
        machine, mrs = make()
        assert mrs.free(scratch_cap(machine)) is FaultKind.MALFORMED_FREE

    def test_free_untagged_is_malformed(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        assert mrs.free(clear_tag(cap)) is FaultKind.MALFORMED_FREE

    def test_free_interior_is_malformed(self):
        _, mrs = make()
        cap = mrs.malloc(64)
        interior = Capability(
            cap.base + 16, cap.base + 16, 16, cap.perms, cap.otype, True
        )
        assert mrs.free(interior) is FaultKind.MALFORMED_FREE

    def test_stale_free_after_reuse_is_double_free(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        mrs.free(cap)
        fresh = mrs.malloc(32)
        assert fresh.base == cap.base
        assert mrs.free(cap) is FaultKind.DOUBLE_FREE
        assert mrs.free(fresh) is None  # the new owner is unharmed

    def test_failed_free_changes_nothing(self):
        _, mrs = make()
        cap = mrs.malloc(32)
        before = (mrs.frees, mrs.live_bytes, mrs.pending)
        mrs.free(clear_tag(cap))
        assert (mrs.frees, mrs.live_bytes, mrs.pending) == before


class TestRetraction:
    """`free` sets the color's PVT bit and bumps the buffer's counter
    itself; `m_malloc` and `m_free` are the same functions, under the names
    the bench wraps."""

    def test_bench_names_are_the_scheme_functions(self):
        assert PicassoScheme is MallocRevocationShim
        assert MallocRevocationShim.malloc is MallocRevocationShim.m_malloc
        assert MallocRevocationShim.free is MallocRevocationShim.m_free

    def test_free_sets_exactly_its_bit_and_invalidates_once(self):
        machine, mrs = make()
        caps = [mrs.malloc(16) for _ in range(3)]
        before = machine.pvt_buffer.invalidations
        assert mrs.free(caps[1]) is None
        assert set_bits(machine.pvt) == {caps[1].otype}
        assert machine.pvt_buffer.invalidations == before + 1

    def test_free_without_a_buffer(self):
        # The fault comes from the table bit, not from the buffer: with
        # every lookup a miss that fills nothing, a freed color still faults.
        machine, mrs = make()
        with unbuffered():
            cap = mrs.malloc(16)
            assert machine.check_access(cap, 0, 8, PERM_LOAD) is None
            assert mrs.free(cap) is None
            assert set_bits(machine.pvt) == {cap.otype}
            assert mrs.pending == 1
            assert machine.check_access(cap, 0, 8, PERM_LOAD) is FaultKind.PROVENANCE_RETRACTED
        assert (machine.pvt_buffer.hits, machine.pvt_buffer.misses) == (0, 2)

    def test_double_free_writes_nothing(self):
        machine, mrs = make()
        cap = mrs.malloc(16)
        mrs.free(cap)
        before = (bytes(machine.pvt), machine.pvt_buffer.invalidations)
        assert mrs.free(cap) is FaultKind.DOUBLE_FREE
        assert (bytes(machine.pvt), machine.pvt_buffer.invalidations) == before

    def test_malformed_free_at_a_live_base_writes_nothing(self):
        machine, mrs = make()
        cap = mrs.malloc(16)
        count = machine.config.color_count
        # With the last color retracted, a table read at otype -1 (the last
        # byte's top bit, as Python indexes it) would see a set bit.
        machine.pvt_set(count - 1, retracted=True)
        before = (bytes(machine.pvt), machine.pvt_buffer.invalidations)
        for otype in (UNSEALED, 0, count):
            forged = Capability(cap.address, cap.base, cap.length, cap.perms, otype, True)
            assert mrs.free(forged) is FaultKind.MALFORMED_FREE, otype
        assert (bytes(machine.pvt), machine.pvt_buffer.invalidations) == before
        assert mrs.free(cap) is None  # the block is still live


class TestThreshold:
    def test_fresh_state_no_trigger(self):
        # Below the threshold from the second claim on, but with nothing
        # retracted a sweep would reclaim nothing, so none starts.
        _, mrs = make(color_bits=4, threshold=0.99)
        for _ in range(5):
            mrs.malloc(16)
        assert mrs.revocations == 0 and mrs.job is None

    def test_scaled_pool_example(self):
        # Pool 1023 at 1%: threshold = ceil(10.23) = 11 unclaimed.
        _, mrs = make()
        assert mrs.pool == 1023
        assert mrs.threshold_count == 11
        # With nothing retracted, claims below the threshold start no sweep:
        # at 1014 claimed, unclaimed = 9 < 11.
        caps = [mrs.malloc(16) for _ in range(1014)]
        assert mrs.revocations == 0
        mrs.free(caps[4])  # color 5: something to reclaim
        assert mrs.pool - mrs.unr.population == 9
        mrs.malloc(16)
        assert mrs.revocations == 1

    def test_no_trigger_at_threshold_boundary(self):
        _, mrs = make()
        caps = [mrs.malloc(16) for _ in range(mrs.pool - mrs.threshold_count)]
        mrs.free(caps[4])  # color 5: something to reclaim
        mrs.malloc(16)  # at the threshold, not below it: strict less-than
        assert mrs.revocations == 0
        mrs.malloc(16)  # one claim past it
        assert mrs.revocations == 1

    def test_no_sweep_without_a_retracted_color(self):
        # Below the threshold with nothing retracted, a sweep would scan
        # every tagged word and reclaim nothing: only r0..r2's frees give
        # the one sweep something to target.
        lines = []
        for i in range(8):
            lines += [f"malloc r{i} 16", f"spill r{i} {i}"]
        lines += ["malloc r8 16", "free r0", "free r1", "free r2"]
        lines += [f"malloc r{i} 16" for i in range(9, 16)]
        config = RunConfig(color_bits=4, threshold_fraction=0.5)
        metrics = run_trace(parse_trace("\n".join(lines)), "picasso", config).metrics
        assert metrics.revocations == 1
        assert metrics.uaf_escapes == 0
        assert metrics.false_positives == 0

    @pytest.mark.parametrize("window", [None, 1])
    def test_m_malloc_sweeps_one_claim_past_the_boundary(self, window):
        machine, mrs = make(color_bits=6, threshold=0.1, window=window)
        assert mrs.threshold_count == 7
        caps = [mrs.malloc(16) for _ in range(mrs.pool - mrs.threshold_count)]
        machine.store_cap(scratch_cap(machine), 0, caps[0])  # one stale copy
        mrs.free(caps[0])
        assert mrs.pending == 1
        assert mrs.pool - mrs.unr.population == mrs.threshold_count
        mrs.malloc(16)  # not below the threshold: no sweep
        assert mrs.revocations == 0 and mrs.job is None
        cap = mrs.malloc(16)
        assert mrs.revocations == 1
        if window is None:  # the sweep finished inside the malloc
            assert mrs.job is None and mrs.swept_tags == 1
            assert cap.otype == caps[0].otype
        else:  # one word to sweep, and the next malloc polls it
            assert mrs.job is not None and mrs.job.cursor < len(mrs.job.addresses) == 1

    def test_single_outstanding_job(self):
        machine, mrs = make(color_bits=4, threshold=0.99, window=1)
        caps = [mrs.malloc(16) for _ in range(4)]
        for i, cap in enumerate(caps[1:]):
            machine.store_cap(scratch_cap(machine), i * 16, cap)
        mrs.free(caps[0])
        mrs.malloc(16)  # starts a sweep over three words
        job = mrs.job
        mrs.free(caps[1])  # retracted while the sweep is in flight
        mrs.malloc(16)  # advances the sweep one word and starts no other
        assert mrs.job is job and job.cursor < len(job.addresses)
        assert mrs.revocations == 1
        assert mrs.pending == 1
        snapshot, table = job.targets
        assert machine.pvb_retracted(caps[1].otype) and not table[caps[1].otype]


class TestRevocation:
    """Sweeps driven through `malloc`: at 4 color bits and a 0.99
    threshold, every claim after the first is below the threshold, so the
    malloc after a free starts a sweep."""

    def test_single_color_end_to_end(self):
        # Without a window the sweep never outlives the malloc that starts
        # it: it completes, stops logging stores, and its color is claimed
        # again, lowest first.
        machine, mrs = make(color_bits=4, threshold=0.99)
        cap = mrs.malloc(32)
        machine.store_cap(scratch_cap(machine), 0, cap)  # one stale copy
        mrs.free(cap)
        again = mrs.malloc(16)
        assert mrs.revocations == 1 and mrs.job is None
        assert machine.cap_writes is None
        assert not machine.pvb_retracted(cap.otype)
        assert again.otype == cap.otype
        assert machine.load_cap(scratch_cap(machine), 0).tag is False
        assert mrs.swept_tags == 1

    def test_colors_retracted_after_snapshot_stay_pending(self):
        machine, mrs = make(color_bits=4, threshold=0.99, window=1)
        early = mrs.malloc(16)
        late = mrs.malloc(16)
        mrs.free(early)
        mrs.malloc(16)  # starts the sweep: its targets freeze
        mrs.free(late)  # after the snapshot
        mrs._advance(None)
        assert mrs.job is None
        assert machine.pvb_retracted(late.otype)  # still invalidated
        assert mrs.pending == 1
        claimed = claimed_ids(mrs.unr)
        assert early.otype not in claimed
        assert late.otype in claimed

    def test_windowed_job_revisits_mid_sweep_stores(self):
        machine, mrs = make(color_bits=4, threshold=0.99, window=1)
        stale = mrs.malloc(16)
        keep = [mrs.malloc(16) for _ in range(4)]
        scratch = scratch_cap(machine)
        for i, cap in enumerate(keep):
            machine.store_cap(scratch, i * 16, cap)
        mrs.free(stale)
        mrs.malloc(16)  # starts the sweep over the four slots
        mrs.malloc(16)  # the next malloc scans slot 0
        assert mrs.job.cursor == 1
        # Stash a stale copy behind the cursor; the finalize pass must
        # still revoke it even though its word was already visited.
        machine.store_cap(scratch, 0, stale)
        while mrs.job is not None:
            mrs.malloc(16)
        assert machine.load_cap(scratch, 0).tag is False

    def test_cap_writes_logs_tagged_stores_while_a_job_runs(self):
        machine, mrs = make(color_bits=4, threshold=0.99, window=1)
        scratch = scratch_cap(machine)
        stale, keep = mrs.malloc(16), mrs.malloc(16)
        machine.store_cap(scratch, 0, stale)
        assert machine.cap_writes is None
        mrs.free(stale)
        mrs.malloc(16)  # starts the sweep
        job = mrs.job
        machine.store_cap(scratch, 16, keep)
        machine.store_cap(scratch, 32, clear_tag(keep))
        assert job.rewrites == {scratch.address + 16}
        while mrs.job is not None:
            mrs.malloc(16)
        assert machine.cap_writes is None


class TestExhaustion:
    def test_exhausted_pool_with_nothing_pending(self):
        _, mrs = make(color_bits=4, heap_size=0x4000)
        for _ in range(15):
            mrs.malloc(16)
        with pytest.raises(PoolExhausted):
            mrs.malloc(16)

    def test_exhausted_pool_reclaims_pending(self):
        _, mrs = make(color_bits=4, heap_size=0x4000)
        caps = [mrs.malloc(16) for _ in range(15)]
        for cap in caps[:10]:
            mrs.free(cap)
        # The pool is fully claimed.  At 1% of 15 the threshold rounds up
        # to 1 color, so this malloc's threshold check (0 unclaimed < 1)
        # starts the sweep that reclaims the 10 retracted colors; the
        # exhausted-pool path never runs.
        cap = mrs.malloc(16)
        assert cap.otype in range(1, 16)
        assert mrs.revocations == 1

    def test_exhausted_pool_finishes_a_windowed_sweep(self):
        # An empty pool is below any threshold, so the malloc that finds it
        # empty starts the sweep, then finishes it at once to claim a color.
        machine, mrs = make(color_bits=4, window=1)
        caps = [mrs.malloc(16) for _ in range(15)]
        for i in range(3):
            machine.store_cap(scratch_cap(machine), i * 16, caps[i])
        mrs.free(caps[0])
        cap = mrs.malloc(16)
        assert cap.otype == caps[0].otype
        assert mrs.revocations == 1 and mrs.job is None
        assert machine.load_cap(scratch_cap(machine), 0).tag is False

    def test_heap_exhaustion_propagates(self):
        _, mrs = make(heap_size=0x20)
        mrs.malloc(32)
        with pytest.raises(OutOfMemory):
            mrs.malloc(32)

    def test_windowed_sweep_reclaims_colors_retracted_after_it_started(self):
        # r0..r2 are retracted once the pool is half claimed; the sweep over
        # them crawls one word per malloc and must reclaim them, not give
        # up with three colors waiting.
        lines = []
        for i in range(8):
            lines += [f"malloc r{i} 16", f"spill r{i} {i}"]
        lines += ["malloc r8 16", "free r0", "free r1", "free r2"]
        lines += [f"malloc r{i} 16" for i in range(9, 16)]
        trace = parse_trace("\n".join(lines))
        config = RunConfig(color_bits=4, threshold_fraction=0.5, sweep_window=1)
        metrics = run_trace(trace, "picasso", config).metrics
        assert metrics.uaf_escapes == 0
        assert metrics.false_positives == 0


class TestSweepMemory:
    def test_a_sweep_holds_no_object_per_color(self):
        # FIFO churn at 14 color bits: one sweep, whose 16,157 targets form
        # one run.  Held as a set of int colors, they lifted the traced peak
        # to 1,214,887 bytes; the PVT, its snapshot and a one-byte-per-color
        # target table (16 KiB at 14 bits) stay far below the bound.
        trace = gen_churn(16_500, 64)
        tracemalloc.start()
        try:
            metrics = run_trace(trace, "picasso", RunConfig(color_bits=14)).metrics
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.revocations == 1
        assert peak < 256 << 10


class TestConservation:
    def test_claimed_equals_live_plus_pending_plus_targets(self):
        machine, mrs = make(color_bits=8, heap_size=0x8000, threshold=0.05, window=2)
        rng = SplitMix64(99)
        live = []
        seen_job = False
        for step in range(2000):
            if live and rng.below(2):
                cap = live.pop(rng.below(len(live)))
                assert mrs.free(cap) is None
            else:
                live.append(mrs.malloc(16))
            targets = mrs.job.targets[1].count(1) if mrs.job else 0
            assert mrs.unr.population == len(mrs.live) + mrs.pending + targets
            # The PVT is the only record of retracted colors: its set bits
            # are the pending colors and a job's targets, and the job's
            # snapshot, whose bits its byte table spells out, lies within it.
            pvt = set_bits(machine.pvt)
            assert len(pvt) == mrs.pending + targets
            if mrs.job:
                snapshot, table = mrs.job.targets
                assert set_bits(snapshot) <= pvt
                assert set_bits(snapshot) == {c for c, flag in enumerate(table) if flag}
                assert len(table) == machine.config.color_count
                seen_job = True
        assert seen_job
        validate(mrs.unr)

    def test_failed_malloc_hands_its_color_back(self):
        _, mrs = make(color_bits=8, heap_size=0x100, window=2)
        caps = [mrs.malloc(32) for _ in range(6)]
        mrs.free(caps[0])
        with pytest.raises(OutOfMemory):
            mrs.malloc(128)
        targets = mrs.job.targets[1].count(1) if mrs.job else 0
        assert mrs.unr.population == len(mrs.live) + mrs.pending + targets
        assert mrs.unr.population == 6
        validate(mrs.unr)


def _random_churn(rng, live, pairs):
    """Spilled random-victim churn: the live set fills slots 0..live-1, each
    pair frees a random one and refills it, and one victim in twenty keeps
    a stale copy in slot `live` that a later stale read may use."""
    ops = []
    for slot in range(live):
        ops += [(OP_MALLOC, 0, 16 << rng.below(3), 0), (OP_SPILL, 0, slot, 0)]
    for _ in range(pairs):
        slot = rng.below(live)
        ops.append((OP_RELOAD, 1, slot, 0))
        if rng.chance(0.05):
            ops.append((OP_SPILL, 1, live, 0))
        ops += [(OP_FREE, 1, 0, 0), (OP_MALLOC, 0, 16 << rng.below(3), 0), (OP_SPILL, 0, slot, 0)]
        if rng.chance(0.05):
            ops += [(OP_RELOAD, 2, live, 0), (OP_READ, 2, 0, 8)]
    return Trace(ops=ops, slots=live + 1)


class TestPinnedSweeps:
    def test_metrics_of_seeded_sweeping_runs(self):
        # 60 seeded picasso runs at 11-14 color bits, windowed and not,
        # with 124 sweeps over scattered targets between them.  The UNR node
        # structure reaches the digest through `peak_unr_bytes` and
        # `peak_resident_bytes`, which the bench digests do not pin.
        rng = SplitMix64(2323)
        rows = []
        for _ in range(60):
            bits = (11, 11, 11, 12, 12, 13, 14)[rng.below(7)]
            pool = (1 << bits) - 1
            live = pool * (70 + rng.below(21)) // 100
            config = RunConfig(
                color_bits=bits,
                threshold_fraction=(0.01, 0.02, 0.04)[rng.below(3)],
                sweep_window=(None, None, 1, 16, 256)[rng.below(5)],
            )
            trace = _random_churn(rng, live, (pool - live) * 2)
            rows.append(run_trace(trace, "picasso", config).metrics.to_dict())
        assert sum(row["revocations"] for row in rows) == 124
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "50fe171ac55ca3bfe655e596cda5535216912f3ae7443d9443d5cfa8894b61a7"
