import pytest

from colorcap.capability import MachineConfig, derive
from colorcap.harness import RunConfig, run_trace
from colorcap.heap import OutOfMemory
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.schemes import (
    MIN_QUARANTINE_BYTES,
    CornucopiaScheme,
    NoneScheme,
    VersioningScheme,
    make_scheme,
)
from colorcap.workloads import gen_churn


def machine(**kw):
    kw.setdefault("color_bits", 10)
    kw.setdefault("heap_size", 0x40000)
    kw.setdefault("scratch_slots", 8)
    return TaggedMachine(MachineConfig(**kw))


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
        corn = CornucopiaScheme(machine(), quarantine_fraction=0.25)
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
        empty = derive(cap, cap.base, 0, cap.perms)
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
        corn = CornucopiaScheme(machine())
        assert corn.revoke() == 0

    def test_double_free_detected_by_shadow(self):
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        corn.free(cap)
        assert corn.free(cap) is FaultKind.DOUBLE_FREE

    def test_malformed_frees(self):
        m = machine()
        corn = CornucopiaScheme(m)
        cap = corn.malloc(64)
        from colorcap.capability import Capability

        interior = Capability(cap.base + 16, cap.base + 16, 16, cap.perms, None, True)
        assert corn.free(interior) is FaultKind.MALFORMED_FREE
        untagged = Capability(cap.base, cap.base, 64, cap.perms, None, False)
        assert corn.free(untagged) is FaultKind.MALFORMED_FREE

    def test_interior_free_of_quarantined_block_is_double_free(self):
        corn = CornucopiaScheme(machine())
        cap = corn.malloc(64)
        interior = derive(cap, cap.base + 16, 48, cap.perms)
        assert corn.free(interior) is FaultKind.MALFORMED_FREE  # block live
        assert corn.free(cap) is None
        assert corn.free(interior) is FaultKind.DOUBLE_FREE

    def test_empty_cap_at_top_of_live_block_into_quarantine_is_double_free(self):
        corn = CornucopiaScheme(machine())
        a = corn.malloc(64)
        b = corn.malloc(64)
        assert b.base == a.base + 64
        assert corn.free(b) is None
        empty = derive(a, a.base + 64, 0, a.perms)
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
        rof = CornucopiaScheme(machine(), revoke_on_free=True)
        assert rof.name == "cornucopia-rof"
        caps = [rof.malloc(64) for _ in range(5)]
        for i, cap in enumerate(caps, start=1):
            rof.free(cap)
            assert rof.revocations == i

    def test_dangling_register_revoked_immediately(self):
        m = machine()
        rof = CornucopiaScheme(m, revoke_on_free=True)
        cap = rof.malloc(64)
        m.regs[0] = cap
        rof.free(cap)
        assert m.regs[0].tag is False

    def test_block_reusable_right_after_free(self):
        rof = CornucopiaScheme(machine(), revoke_on_free=True)
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
        from colorcap.capability import Capability, PERMS_APP, UNSEALED

        m = machine()
        ver = VersioningScheme(m)
        cap = ver.malloc(64)
        uncolored = Capability(cap.base, cap.base, 64, PERMS_APP, UNSEALED, True)
        assert ver.free(uncolored) is FaultKind.MALFORMED_FREE
        interior = Capability(cap.base + 16, cap.base + 16, 16, PERMS_APP, 0, True)
        assert ver.free(interior) is FaultKind.MALFORMED_FREE

    def test_wrap_collision_goes_undetected(self):
        # 16 free/realloc cycles wrap the granule back to the stale value.
        ver = VersioningScheme(machine(), exhaustion_fallback=False)
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
        assert ver.wraps == 1

    def test_detection_below_wrap_threshold(self):
        ver = VersioningScheme(machine(), exhaustion_fallback=False)
        base_cap = ver.malloc(32)
        ver.free(base_cap)
        for _ in range(14):  # stays within the 15 safe recolorings
            cap = ver.malloc(32)
            ver.free(cap)
            fault = ver.load(base_cap, 0, 8)
            assert fault is FaultKind.PROVENANCE_RETRACTED

    def test_exhaustion_fallback_quarantines_on_wrap(self):
        ver = VersioningScheme(machine(), exhaustion_fallback=True)
        cap = ver.malloc(32)
        ver.free(cap)
        for _ in range(15):
            fresh = ver.malloc(32)
            assert fresh.base == cap.base
            ver.free(fresh)  # the 16th recoloring wraps
        assert ver.wraps == 1
        assert ver.quarantine_bytes == 32
        assert ver.quarantine == [(cap.base, cap.base + 32)]
        assert ver.malloc(32).base != cap.base  # block held back

    def test_fallback_sweep_engages_at_limit(self):
        m = machine()
        ver = VersioningScheme(m, exhaustion_fallback=True, quarantine_fraction=0.25)
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
        for name in ("picasso", "cornucopia", "cornucopia-rof", "versioning", "none"):
            scheme = make_scheme(name, machine())
            assert scheme.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheme("mystery", machine())
