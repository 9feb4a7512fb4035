import pytest

from colorcap.capability import (
    PERM_SW_VMEM,
    PERMS_APP,
    UNSEALED,
    Capability,
    MachineConfig,
    clear_tag,
)
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import FreeListHeap, OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.mrs import MallocRevocationShim, PoolExhausted
from colorcap.trace import parse_trace
from colorcap.workloads import SplitMix64
from helpers import claimed_ids, validate


def make(color_bits=10, heap_size=0x4000, threshold=0.01, window=None, slots=8):
    config = MachineConfig(
        color_bits=color_bits, heap_size=heap_size, scratch_slots=slots
    )
    machine = TaggedMachine(config)
    mrs = MallocRevocationShim(
        machine, threshold_fraction=threshold, sweep_window=window
    )
    return machine, mrs


def scratch_cap(machine):
    config = machine.config
    return Capability(
        config.scratch_base,
        config.scratch_base,
        config.scratch_size,
        PERMS_APP,
        UNSEALED,
        True,
    )


class TestHeap:
    def test_first_fit_is_deterministic(self):
        heap = FreeListHeap(0x1000, 0x100)
        a = heap.alloc(0x20)
        b = heap.alloc(0x20)
        assert (a, b) == (0x1000, 0x1020)
        heap.free(a, 0x20)
        assert heap.alloc(0x10) == a  # lowest adequate hole

    def test_coalescing(self):
        heap = FreeListHeap(0x1000, 0x100)
        a = heap.alloc(0x20)
        b = heap.alloc(0x20)
        c = heap.alloc(0x20)
        heap.free(a, 0x20)
        heap.free(c, 0x20)
        heap.free(b, 0x20)
        assert heap.free_blocks == [[0x1000, 0x100]]

    def test_out_of_memory(self):
        heap = FreeListHeap(0x1000, 0x40)
        heap.alloc(0x40)
        with pytest.raises(OutOfMemory):
            heap.alloc(16)


class TestMalloc:
    def test_first_allocation(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        assert cap.otype == 1  # lowest color
        assert cap.length == 32
        assert cap.base == mrs.machine.config.heap_base
        assert cap.tag
        assert not cap.perms & PERM_SW_VMEM

    def test_size_rounds_to_granule(self):
        _, mrs = make()
        assert mrs.m_malloc(20).length == 32
        assert mrs.m_malloc(1).length == 16

    def test_live_allocations_get_distinct_colors(self):
        _, mrs = make()
        colors = {mrs.m_malloc(16).otype for _ in range(20)}
        assert len(colors) == 20

    def test_rejects_nonpositive_size(self):
        _, mrs = make()
        with pytest.raises(ValueError):
            mrs.m_malloc(0)


class TestFree:
    def test_free_then_immediate_reuse_new_color(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        assert mrs.m_free(cap) is None
        again = mrs.m_malloc(32)
        assert again.base == cap.base  # no quarantine: byte range reusable now
        assert again.otype != cap.otype

    def test_double_free_via_copy(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        copy = Capability(
            cap.address, cap.base, cap.length, cap.perms, cap.otype, cap.tag
        )
        assert mrs.m_free(cap) is None
        assert mrs.m_free(copy) is FaultKind.DOUBLE_FREE

    def test_free_uncolored_is_malformed(self):
        machine, mrs = make()
        assert mrs.m_free(scratch_cap(machine)) is FaultKind.MALFORMED_FREE

    def test_free_untagged_is_malformed(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        assert mrs.m_free(clear_tag(cap)) is FaultKind.MALFORMED_FREE

    def test_free_interior_is_malformed(self):
        _, mrs = make()
        cap = mrs.m_malloc(64)
        interior = Capability(
            cap.base + 16, cap.base + 16, 16, cap.perms, cap.otype, True
        )
        assert mrs.m_free(interior) is FaultKind.MALFORMED_FREE

    def test_stale_free_after_reuse_is_double_free(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        mrs.m_free(cap)
        fresh = mrs.m_malloc(32)
        assert fresh.base == cap.base
        assert mrs.m_free(cap) is FaultKind.DOUBLE_FREE
        assert mrs.m_free(fresh) is None  # the new owner is unharmed

    def test_failed_free_changes_nothing(self):
        _, mrs = make()
        cap = mrs.m_malloc(32)
        before = (mrs.frees, mrs.live_bytes, len(mrs.retracted_pending))
        mrs.m_free(clear_tag(cap))
        assert (mrs.frees, mrs.live_bytes, len(mrs.retracted_pending)) == before


class TestThreshold:
    def test_fresh_state_no_trigger(self):
        _, mrs = make()
        assert mrs.maybe_revoke() is False

    def test_scaled_pool_example(self):
        # Pool 1023 at 1%: threshold = ceil(10.23) = 11 unclaimed.
        _, mrs = make()
        assert mrs.pool == 1023
        assert mrs.threshold_count == 11
        caps = [mrs.m_malloc(16) for _ in range(64)]
        for cap in caps:
            mrs.m_free(cap)
        # Drive claims without frees: at 1014 claimed, unclaimed = 9 < 11.
        mrs.unr.batch_release(sorted(mrs.retracted_pending))
        mrs.retracted_pending.clear()
        while mrs.unr.population < 1014:
            mrs.unr.alloc_first_free()
        mrs.retracted_pending.add(5)  # something to reclaim
        assert mrs.unclaimed == 9
        assert mrs.maybe_revoke() is True
        assert mrs.revocations == 1

    def test_no_trigger_at_threshold_boundary(self):
        _, mrs = make()
        while mrs.unclaimed > mrs.threshold_count:
            mrs.unr.alloc_first_free()
        assert mrs.unclaimed == mrs.threshold_count
        assert mrs.maybe_revoke() is False  # strict less-than

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

    def test_single_outstanding_job(self):
        _, mrs = make(window=1)
        while mrs.unclaimed >= mrs.threshold_count:
            mrs.unr.alloc_first_free()
        mrs.retracted_pending.add(5)  # something to reclaim
        assert mrs.maybe_revoke() is True
        assert mrs.maybe_revoke() is False


class TestRevocation:
    def test_single_color_end_to_end(self):
        machine, mrs = make()
        cap = mrs.m_malloc(32)
        color = cap.otype
        machine.store_cap(scratch_cap(machine), 0, cap)  # one stale copy
        mrs.m_free(cap)
        mrs._start_job()
        assert mrs.revocation_step() == 1  # one tagged word scanned
        assert mrs.revocation_finalize() == 1
        assert not machine.pvb_retracted(color)
        assert color not in claimed_ids(mrs.unr)
        assert machine.load_cap(scratch_cap(machine), 0).tag is False
        assert mrs.swept_tags == 1

    def test_colors_retracted_after_snapshot_stay_pending(self):
        machine, mrs = make()
        early = mrs.m_malloc(16)
        late = mrs.m_malloc(16)
        mrs.m_free(early)
        mrs._start_job()
        mrs.m_free(late)  # after the snapshot
        mrs.revocation_step()
        mrs.revocation_finalize()
        assert machine.pvb_retracted(late.otype)  # still invalidated
        assert mrs.retracted_pending == {late.otype}
        claimed = claimed_ids(mrs.unr)
        assert early.otype not in claimed
        assert late.otype in claimed

    def test_empty_target_set(self):
        _, mrs = make()
        mrs._start_job()
        mrs.revocation_step()
        assert mrs.revocation_finalize() == 0

    def test_windowed_job_revisits_mid_sweep_stores(self):
        machine, mrs = make(window=1)
        stale = mrs.m_malloc(16)
        keep = [mrs.m_malloc(16) for _ in range(4)]
        scratch = scratch_cap(machine)
        for i, cap in enumerate(keep):
            machine.store_cap(scratch, i * 16, cap)
        mrs.m_free(stale)
        mrs._start_job()
        mrs.revocation_step(1)  # slot 0 scanned
        # Stash a stale copy behind the cursor; the finalize pass must
        # still revoke it even though its word was already visited.
        machine.store_cap(scratch, 0, stale)
        while not mrs.job.done:
            mrs.revocation_step(1)
        mrs.revocation_finalize()
        assert machine.load_cap(scratch, 0).tag is False

    def test_step_without_job_raises(self):
        _, mrs = make()
        with pytest.raises(RuntimeError):
            mrs.revocation_step()
        with pytest.raises(RuntimeError):
            mrs.revocation_finalize()


class TestExhaustion:
    def test_exhausted_pool_with_nothing_pending(self):
        _, mrs = make(color_bits=4, heap_size=0x4000)
        for _ in range(15):
            mrs.m_malloc(16)
        with pytest.raises(PoolExhausted):
            mrs.m_malloc(16)

    def test_exhausted_pool_reclaims_pending(self):
        _, mrs = make(color_bits=4, heap_size=0x4000)
        caps = [mrs.m_malloc(16) for _ in range(15)]
        for cap in caps[:10]:
            mrs.m_free(cap)
        # Pool fully claimed (threshold never fired at 1%), but the forced
        # sweep reclaims the 10 retracted colors.
        cap = mrs.m_malloc(16)
        assert cap.otype in range(1, 16)
        assert mrs.revocations == 1

    def test_heap_exhaustion_propagates(self):
        _, mrs = make(heap_size=0x20)
        mrs.m_malloc(32)
        with pytest.raises(OutOfMemory):
            mrs.m_malloc(32)

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


class TestConservation:
    def test_claimed_equals_live_plus_pending_plus_targets(self):
        machine, mrs = make(color_bits=8, heap_size=0x8000, threshold=0.05, window=2)
        rng = SplitMix64(99)
        live = []
        for step in range(2000):
            if live and rng.below(2):
                cap = live.pop(rng.below(len(live)))
                assert mrs.m_free(cap) is None
            else:
                live.append(mrs.m_malloc(16))
            targets = len(mrs.job.targets) if mrs.job else 0
            assert mrs.unr.population == (
                len(mrs.live) + len(mrs.retracted_pending) + targets
            )
        validate(mrs.unr)

    def test_failed_malloc_hands_its_color_back(self):
        _, mrs = make(color_bits=8, heap_size=0x100, window=2)
        caps = [mrs.m_malloc(32) for _ in range(6)]
        mrs.m_free(caps[0])
        with pytest.raises(OutOfMemory):
            mrs.m_malloc(128)
        targets = len(mrs.job.targets) if mrs.job else 0
        assert mrs.unr.population == (
            len(mrs.live) + len(mrs.retracted_pending) + targets
        )
        assert mrs.unr.population == 6
        validate(mrs.unr)
