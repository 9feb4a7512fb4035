import math
import tracemalloc
from unittest import mock

import pytest

from colorcap.capability import PERMS_APP, UNSEALED, Capability, ConfigError
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.schemes import (
    MIN_QUARANTINE_BYTES,
    SCHEME_NAMES,
    SCHEMES,
    CornucopiaRofScheme,
    CornucopiaScheme,
    NoneScheme,
    VersioningScheme,
    make_scheme,
)
from colorcap.workloads import gen_churn
from helpers import claimed_ids, oracle_min_free


def machine(**kw):
    kw.setdefault("color_bits", 10)
    kw.setdefault("heap_size", 0x40000)
    return TaggedMachine(RunConfig(**kw))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_malloc_builds_the_capability_it_hands_out(name):
    # Every allocator builds its capability itself: tagged, addressed at its
    # base, bounded to the block, with the application's permissions and the
    # otype its scheme stamps.  The block freed first leaves picasso's color
    # retracted and versioning's granules one version on.
    scheme = make_scheme(name, machine())
    assert scheme.free(scheme.malloc(40)) is None
    if name == "picasso":
        expected = oracle_min_free(claimed_ids(scheme.unr), scheme.pool)
    cap = scheme.malloc(40)
    assert cap.tag
    assert cap.address == cap.base
    assert cap.length == 48
    assert cap.perms == PERMS_APP
    if name == "versioning":
        expected = scheme.versions[(cap.base - scheme.heap_base) >> 4]
    elif name != "picasso":
        expected = UNSEALED
    assert cap.otype == expected


class TestCornucopia:
    def test_freed_block_not_immediately_reusable(self):
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        assert corn.free(cap) is None
        again = corn.malloc(64)
        assert again.base != cap.base  # block sits in quarantine

    def test_dangling_access_before_sweep_succeeds(self):
        # The mitigation gap: quarantined memory still dereferences.
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        corn.store(cap, 0, b"secret!!")
        corn.free(cap)
        assert corn.load(cap, 0, 8) == b"secret!!"

    def test_quarantine_fraction_triggers_revocation(self):
        corn = CornucopiaScheme(machine(quarantine_fraction=0.25))
        live = [corn.malloc(4096) for _ in range(12)]
        assert corn.revocations == 0
        # Total allocated stays 48 KiB, so the third 4 KiB free reaches
        # exactly one quarter quarantined and fires the sweep.
        corn.free(live[0])
        corn.free(live[1])
        assert corn.revocations == 0
        corn.free(live[2])
        assert corn.revocations == 1
        assert corn.quarantine_bytes == 0

    def test_minimum_quarantine_floor(self):
        # Micro working sets never sweep: everything fits under the floor.
        corn = CornucopiaScheme(machine())
        for _ in range(8):
            cap = corn.malloc(64)
            corn.free(cap)
        assert corn.revocations == 0
        assert corn.quarantine_bytes == 8 * 64 < MIN_QUARANTINE_BYTES

    def test_revoke_clears_dangling_copy(self):
        m = machine()
        corn = CornucopiaScheme(m)
        cap = corn.malloc(64)
        m.regs[3] = cap
        corn.free(cap)
        corn.revoke()
        assert m.regs[3].tag is False
        fault = corn.load(m.regs[3], 0, 8)
        assert fault is FaultKind.UNTAGGED_OPERAND

    def test_revoke_spares_zero_length_cap_at_quarantined_base(self):
        # A capability is revoked when its range touches quarantined memory;
        # an empty range at the block's base touches nothing.
        m = machine()
        corn = CornucopiaScheme(m)
        auth = corn.malloc(64)
        cap = corn.malloc(64)
        empty = Capability(cap.base, cap.base, 0, cap.perms, cap.otype, True)
        assert m.store_cap(auth, 0, cap) is None
        assert m.store_cap(auth, 16, empty) is None
        m.regs[3] = cap
        m.regs[4] = empty
        corn.free(cap)
        assert corn.revocations == 0
        corn.revoke()
        assert corn.swept_tags == 2
        assert auth.base not in m.caps
        assert m.caps[auth.base + 16] == empty
        assert m.regs[3].tag is False
        assert m.regs[4].tag is True

    def test_empty_quarantine_revoke(self):
        # Nothing quarantined and no sweep in flight: nothing to sweep.
        corn = CornucopiaScheme(machine())
        heap = corn.heap.free_blocks
        corn.revoke()
        assert corn.revocations == 0 and corn.swept_tags == 0
        assert corn.heap.free_blocks == heap

    def test_double_free_detected_by_shadow(self):
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        corn.free(cap)
        assert corn.free(cap) is FaultKind.DOUBLE_FREE

    def test_malformed_frees(self):
        m = machine()
        corn = CornucopiaScheme(m)
        cap = corn.malloc(64)
        interior = Capability(cap.base + 16, cap.base + 16, 16, cap.perms, UNSEALED, True)
        assert corn.free(interior) is FaultKind.MALFORMED_FREE
        untagged = Capability(cap.base, cap.base, 64, cap.perms, UNSEALED, False)
        assert corn.free(untagged) is FaultKind.MALFORMED_FREE

    def test_interior_free_of_quarantined_block_is_double_free(self):
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        interior = Capability(cap.base + 16, cap.base + 16, 48, cap.perms, cap.otype, True)
        assert corn.free(interior) is FaultKind.MALFORMED_FREE  # block live
        assert corn.free(cap) is None
        assert corn.free(interior) is FaultKind.DOUBLE_FREE

    def test_empty_cap_at_top_of_live_block_into_quarantine_is_double_free(self):
        corn = CornucopiaScheme(machine())
        a = corn.malloc(64)
        b = corn.malloc(64)
        assert b.base == a.base + 64
        assert corn.free(b) is None
        empty = Capability(a.base + 64, a.base + 64, 0, a.perms, a.otype, True)
        assert corn.free(empty) is FaultKind.DOUBLE_FREE
        assert corn.live == {a.base: 64}

    def test_quarantine_exits_fifo(self):
        corn = CornucopiaScheme(machine())
        a = corn.malloc(64)
        b = corn.malloc(64)
        corn.free(a)
        corn.free(b)
        corn.revoke()
        # First-fit finds a's (lower) block first once the sweep returned both.
        assert corn.malloc(64).base == a.base

    def test_no_quarantined_byte_handed_out_before_sweep(self):
        corn = CornucopiaScheme(machine())
        quarantined = set()
        issued = []
        for i in range(200):
            cap = corn.malloc(48)
            issued.append(cap)
            for addr in range(cap.base, cap.base + cap.length):
                assert addr not in quarantined, "quarantined byte reissued"
            if i % 2:
                victim = issued.pop(0)
                corn.free(victim)
                quarantined.update(
                    range(victim.base, victim.base + victim.length)
                )
            if corn.revocations:  # sweep drained the quarantine
                quarantined.clear()
                corn.revocations = 0


class TestRevokeOnFree:
    def test_every_free_revokes(self):
        rof = make_scheme("cornucopia-rof", machine())
        assert rof.name == "cornucopia-rof"
        caps = [rof.malloc(64) for _ in range(5)]
        for i, cap in enumerate(caps, start=1):
            rof.free(cap)
            assert rof.revocations == i

    def test_dangling_register_revoked_immediately(self):
        m = machine()
        rof = make_scheme("cornucopia-rof", m)
        cap = rof.malloc(64)
        m.regs[0] = cap
        rof.free(cap)
        assert m.regs[0].tag is False

    def test_block_reusable_right_after_free(self):
        rof = make_scheme("cornucopia-rof", machine())
        cap = rof.malloc(64)
        rof.free(cap)
        assert rof.malloc(64).base == cap.base


class TestVersioning:
    def test_versions_start_at_zero(self):
        ver = VersioningScheme(machine())
        cap = ver.malloc(32)
        assert cap.otype == 0

    def test_stale_capability_faults_after_recolor(self):
        ver = VersioningScheme(machine())
        cap = ver.malloc(32)
        assert ver.free(cap) is None
        fresh = ver.malloc(32)
        assert fresh.base == cap.base
        assert fresh.otype == 1  # region recolored
        fault = ver.load(cap, 0, 8)
        assert fault is FaultKind.PROVENANCE_RETRACTED
        assert ver.load(fresh, 0, 8) == bytes(8)

    def test_double_free_detected_by_version(self):
        ver = VersioningScheme(machine())
        cap = ver.malloc(32)
        ver.free(cap)
        assert ver.free(cap) is FaultKind.DOUBLE_FREE

    def test_free_uncolored_or_interior(self):
        m = machine()
        ver = VersioningScheme(m)
        cap = ver.malloc(64)
        uncolored = Capability(cap.base, cap.base, 64, PERMS_APP, UNSEALED, True)
        assert ver.free(uncolored) is FaultKind.MALFORMED_FREE
        interior = Capability(cap.base + 16, cap.base + 16, 16, PERMS_APP, 0, True)
        assert ver.free(interior) is FaultKind.MALFORMED_FREE

    def test_wrap_collision_goes_undetected(self):
        # 16 free/realloc cycles wrap the granule back to the stale value.
        ver = VersioningScheme(machine(versioning_fallback=False))
        stale = ver.malloc(32)
        ver.store(stale, 0, b"original")
        ver.free(stale)
        for _ in range(15):
            cap = ver.malloc(32)
            assert cap.base == stale.base
            ver.free(cap)
        collided = ver.malloc(32)
        assert collided.base == stale.base
        assert collided.otype == stale.otype == 0
        assert isinstance(ver.load(stale, 0, 8), bytes)  # undetected UAF
        assert not ver.quarantine  # the wrapped block went back to the heap

    def test_detection_below_wrap_threshold(self):
        ver = VersioningScheme(machine(versioning_fallback=False))
        base_cap = ver.malloc(32)
        ver.free(base_cap)
        for _ in range(14):  # stays within the 15 safe recolorings
            cap = ver.malloc(32)
            ver.free(cap)
            fault = ver.load(base_cap, 0, 8)
            assert fault is FaultKind.PROVENANCE_RETRACTED

    def test_exhaustion_fallback_quarantines_on_wrap(self):
        ver = VersioningScheme(machine(versioning_fallback=True))
        cap = ver.malloc(32)
        ver.free(cap)
        for _ in range(15):
            fresh = ver.malloc(32)
            assert fresh.base == cap.base
            ver.free(fresh)  # the 16th recoloring wraps
        assert ver.quarantine_bytes == 32
        assert ver.quarantine == [(cap.base, cap.base + 32)]
        assert ver.malloc(32).base != cap.base  # block held back

    def test_fallback_sweep_engages_at_limit(self):
        m = machine(versioning_fallback=True, quarantine_fraction=0.25)
        ver = VersioningScheme(m)
        blocks = [ver.malloc(4096) for _ in range(4)]
        stale = blocks[0]
        m.regs[0] = stale
        # Wrap the first block: 16 frees total on the same granules.
        ver.free(stale)
        for _ in range(15):
            cap = ver.malloc(4096)
            assert cap.base == stale.base
            ver.free(cap)
        # Wrapped block quarantined (4 KiB vs 12 KiB live) and the limit
        # check fires the Cornucopia-style sweep.
        assert ver.revocations == 1
        assert m.regs[0].tag is False

    def test_host_memory_follows_the_carved_heap(self):
        # The version table stops at the highest block carved, so a 1 GiB
        # heap costs the host no more than a 1 MiB one.
        trace = gen_churn(200, 20, (16, 256), seed=3)
        metrics, peaks = [], []
        for heap_size in (1 << 20, 1 << 30):
            tracemalloc.start()
            try:
                metrics.append(run_trace(trace, "versioning", RunConfig(heap_size=heap_size)).metrics)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert metrics[0] == metrics[1]
        assert abs(peaks[0] - peaks[1]) < 1_000_000, peaks


class TestWindowedQuarantine:
    """A quarantine sweep under a window: the one revocation job, advanced
    `sweep_window` words per malloc."""

    def test_a_sweep_freezes_the_quarantine(self):
        m = machine(sweep_window=1)
        corn = CornucopiaScheme(m)
        a, b, _, d = (corn.malloc(4096) for _ in range(4))
        m.regs[0] = d  # one tagged word, so the sweep outlives the free
        assert corn.free(a) is None  # a quarter of the resident bytes
        job = corn.job
        assert corn.revocations == 1 and job.targets == [(a.base, a.base + 4096)]
        assert corn.free(b) is None  # waits for the next sweep
        assert corn.job is job and corn.quarantine == [(b.base, b.base + 4096)]
        assert corn.quarantine_bytes == corn.peak_quarantine_bytes == 8192
        assert corn.free(a) is FaultKind.DOUBLE_FREE  # frozen, still held
        again = corn.malloc(4096)  # an empty snapshot: the sweep finishes
        assert corn.job is None and again.base == a.base
        assert corn.quarantine_bytes == 4096 and corn.revocations == 1
        assert m.regs[0].tag  # live

    def test_out_of_memory_finishes_the_sweep_then_sweeps_the_rest(self):
        m = machine(sweep_window=1, heap_size=0x4000)
        corn = CornucopiaScheme(m)
        blocks = [corn.malloc(1024) for _ in range(16)]
        for i in range(4):
            m.store_cap(blocks[15], 16 * i, blocks[i])  # copies, stale once freed
        for block in blocks[:4]:  # the fourth free starts a sweep of four words
            assert corn.free(block) is None
        assert corn.revocations == 1 and corn.job is not None
        assert corn.free(blocks[4]) is None  # quarantined behind the sweep
        again = corn.malloc(2048)
        assert corn.job is None and corn.revocations == 2
        assert not corn.quarantine and corn.quarantine_bytes == 0
        assert corn.swept_tags == 4 and again.base == blocks[0].base

    @pytest.mark.parametrize("scheme, heap_size", [
        ("cornucopia", 1 << 20), ("cornucopia", 8192), ("versioning", 1 << 20)])
    def test_each_malloc_scans_at_most_the_window(self, scheme, heap_size):
        # Every memory word a sweep step scans is counted against the malloc
        # that advanced it.  Exempt: the finalize's pass over the logged
        # words and the registers, and an out-of-memory malloc, which
        # finishes every sweep at once.
        trace = gen_churn(1500, 40, (16, 48, 128, 256), seed=11, touch_rate=0.5,
                          inject="mixed", inject_rate=0.05)
        config = RunConfig(color_bits=8, sweep_window=7, heap_size=heap_size)
        cls = SCHEMES[scheme]
        sweep_scan, malloc, revoke = TaggedMachine.sweep_scan, cls.malloc, cls.revoke
        words, exempt = [0], set()

        def scan(machine, select, addresses=None, include_registers=True):
            if not include_registers:  # a step
                words[-1] += len(addresses)
            return sweep_scan(machine, select, addresses, include_registers)

        def counted_malloc(self, size):
            words.append(0)
            return malloc(self, size)

        def out_of_memory(self):
            exempt.add(len(words) - 1)
            revoke(self)

        with mock.patch.object(TaggedMachine, "sweep_scan", scan), mock.patch.multiple(
            cls, malloc=counted_malloc, revoke=out_of_memory
        ):
            metrics = run_trace(trace, scheme, config).metrics
        assert metrics.false_positives == 0 and metrics.revocations > 0
        assert max(n for i, n in enumerate(words) if i not in exempt) == 7
        assert bool(exempt) == (heap_size == 8192)


class TestOutOfMemory:
    def test_quarantine_revoked_before_giving_up(self):
        m = machine(heap_size=0x4000)
        corn = CornucopiaScheme(m)
        blocks = [corn.malloc(1024) for _ in range(16)]
        stale = blocks[5]
        m.regs[0] = stale
        corn.free(stale)  # 1 KiB quarantined, under the sweep floor
        assert corn.revocations == 0
        again = corn.malloc(1024)
        assert corn.revocations == 1
        assert again.base == stale.base
        assert m.regs[0].tag is False

    def test_nothing_to_revoke_still_raises(self):
        corn = CornucopiaScheme(machine(heap_size=0x4000))
        for _ in range(16):
            corn.malloc(1024)
        with pytest.raises(OutOfMemory):
            corn.malloc(16)
        assert corn.revocations == 0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", ["cornucopia", "versioning"])
    def test_churn_that_once_ran_out_of_memory(self, scheme, seed):
        # The live set fits the 16 KiB heap, but quarantined 1 KiB blocks
        # once exhausted it before any sweep was due.
        trace = gen_churn(900, 25, (16, 64, 200, 1024), seed=seed, touch_rate=0.4,
                          inject="mixed", inject_rate=0.07)
        config = RunConfig(color_bits=8, heap_size=1 << 14)
        metrics = run_trace(trace, scheme, config).metrics
        assert metrics.allocations == run_trace(trace, "none", config).metrics.allocations
        assert metrics.revocations > 0
        assert metrics.false_positives == 0


class TestNoneMode:
    def test_no_temporal_protection(self):
        none = NoneScheme(machine())
        cap = none.malloc(32)
        none.store(cap, 0, b"payload!")
        none.free(cap)
        assert none.load(cap, 0, 8) == b"payload!"  # dangling but usable

    def test_invalid_frees_ignored(self):
        none = NoneScheme(machine())
        cap = none.malloc(32)
        none.free(cap)
        assert none.free(cap) is None  # double free passes silently
        assert none.frees == 1

    def test_immediate_reuse(self):
        none = NoneScheme(machine())
        cap = none.malloc(32)
        none.free(cap)
        assert none.malloc(32).base == cap.base


class TestFactory:
    def test_all_names_construct(self):
        assert SCHEME_NAMES == ("picasso", "cornucopia", "cornucopia-rof", "versioning", "none")
        for name in SCHEME_NAMES:
            scheme = make_scheme(name, machine())
            assert scheme.name == name
        assert type(make_scheme("cornucopia-rof", machine())) is CornucopiaRofScheme

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scheme 'mystery'"):
            make_scheme("mystery", machine())

    def test_every_tunable_reaches_its_scheme_through_the_config(self):
        config = RunConfig(threshold_fraction=0.5, quarantine_fraction=0.5, sweep_window=3,
                           versioning_fallback=False)
        picasso = make_scheme("picasso", TaggedMachine(config))
        assert picasso.threshold_count == math.ceil(0.5 * picasso.pool)
        assert picasso.sweep_window == 3
        for name in ("cornucopia", "cornucopia-rof"):
            corn = make_scheme(name, TaggedMachine(config))
            assert corn.name == name
            assert corn.quarantine_fraction == 0.5
