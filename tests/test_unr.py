import hashlib
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from colorcap.unr import (
    BITMAP_PAYLOAD_BYTES,
    NODE_UNIT_BYTES,
    BitmapNode,
    Exhausted,
    NotClaimed,
    Run,
    UnrState,
    _Builder,
)
from colorcap.workloads import SplitMix64
from helpers import claimed_ids, dump, oracle_min_free, release_passes, runs_of, validate


def claim(state, n):
    return [state.alloc_first_free() for _ in range(n)]


def _shape(nodes):
    """Nodes as comparable tuples."""
    return [("R", node.claimed, node.length) if type(node) is Run else ("B", node.bits, node.length)
            for node in nodes]


class TestAlloc:
    def test_fresh_returns_one(self):
        state = UnrState(100)
        assert state.alloc_first_free() == 1

    def test_sequential_claims_form_one_run(self):
        state = UnrState(2000)
        assert claim(state, 50) == list(range(1, 51))
        assert dump(state) == "R:c:50 R:a:1950"
        assert state.population == 50
        assert len(state.nodes) == 2
        assert state.alloc_first_free() == 51

    def test_exhausted(self):
        state = UnrState(3)
        claim(state, 3)
        with pytest.raises(Exhausted):
            state.alloc_first_free()

    def test_reclaims_lowest_hole(self):
        state = UnrState(100)
        claim(state, 10)
        state.free_one(4)
        state.free_one(7)
        assert state.alloc_first_free() == 4
        assert state.alloc_first_free() == 7
        assert state.alloc_first_free() == 11


class TestFreeOne:
    def test_bitmap_pattern_from_interior_frees(self):
        state = UnrState(2000)
        claim(state, 8)
        state.free_one(4)
        state.free_one(5)
        claimed = claimed_ids(state)
        pattern = "".join("1" if i in claimed else "0" for i in range(1, 9))
        assert pattern == "11100111"
        # The fragmented head was compressed into a bitmap node.
        assert isinstance(state.nodes[0], BitmapNode)
        assert state.nodes[0].length == 8

    def test_not_claimed(self):
        state = UnrState(10)
        with pytest.raises(NotClaimed):
            state.free_one(5)

    def test_out_of_range(self):
        state = UnrState(10)
        with pytest.raises(ValueError):
            state.free_one(0)
        with pytest.raises(ValueError):
            state.free_one(11)

    def test_claim_free_round_trip(self):
        state = UnrState(77)
        state.alloc_first_free()
        state.free_one(1)
        fresh = UnrState(77)
        assert dump(state) == dump(fresh)
        assert state.population == 0


class TestBatchRelease:
    def test_full_release_restores_fresh(self):
        state = UnrState(500)
        claim(state, 500)
        state.batch_release([(1, 501)])
        assert dump(state) == "R:a:500"
        assert state.population == 0

    def test_atomic_on_unclaimed_id(self):
        state = UnrState(100)
        claim(state, 10)
        state.free_one(5)
        before_nodes = list(state.nodes)
        before_dump = dump(state)
        with pytest.raises(NotClaimed, match="id 5 is not claimed"):
            state.batch_release([(2, 3), (5, 6), (9, 10)])  # 5 is available
        assert state.nodes is not before_nodes or dump(state) == before_dump
        assert dump(state) == before_dump
        assert state.population == 9

    def test_beyond_pool_rejected(self):
        state = UnrState(10)
        claim(state, 10)
        for runs in ([(9, 10), (11, 12)], [(9, 12)]):
            with pytest.raises(NotClaimed, match="id 11 outside the pool"):
                state.batch_release(runs)
            assert state.population == 10

    @pytest.mark.parametrize(
        "runs",
        [
            [(5, 6), (5, 6)],
            [(5, 6), (3, 4)],
            [(5, 8), (7, 9)],
            [(5, 5)],
            [(2, 3), (6, 4)],
            [(0, 2)],
        ],
    )
    def test_not_ascending_disjoint_or_empty_rejected(self, runs):
        state = UnrState(10)
        claim(state, 10)
        with pytest.raises(ValueError):
            state.batch_release(runs)
        assert dump(state) == "R:c:10"
        assert state.population == 10

    def test_adjacent_runs_release_as_one(self):
        split, whole = UnrState(600), UnrState(600)
        for state in (split, whole):
            claim(state, 40)
        split.batch_release([(3, 5), (5, 6), (6, 9)])
        whole.batch_release([(3, 9)])
        assert dump(split) == dump(whole) and split.population == whole.population == 34

    def test_empty_release_is_noop(self):
        state = UnrState(10)
        claim(state, 3)
        state.batch_release([])
        assert state.population == 3

    def test_single_forward_pass(self):
        state = UnrState(10_000)
        claim(state, 10_000)
        assert release_passes(state, [(i, i + 1) for i in range(1, 10_001, 2)]) == 1

    @pytest.mark.parametrize("hole", [None, 17])
    def test_run_into_available_ids_rejected_unchanged(self, hole):
        # The run 14..25 steps past the claimed run into available IDs, or
        # into a hole inside a bitmap.
        state = UnrState(100)
        claim(state, 20)
        if hole is not None:
            state.free_one(hole)
        before = dump(state)
        with pytest.raises(NotClaimed, match=f"id {hole or 21} is not claimed"):
            state.batch_release([(14, 26)])
        assert dump(state) == before
        assert state.population == 20 - (hole is not None)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(600, 3000), st.data())
    def test_runs_across_node_edges_match_one_at_a_time(self, total, data):
        # Scattered holes make runs and bitmaps; each drawn run of IDs
        # starts just before a node edge (the pool's end among them) and
        # may span several nodes.
        holes = sorted(set(data.draw(st.lists(st.integers(1, total), max_size=60))))
        state, oracle, per_id = UnrState(total), UnrState(total), UnrState(total)
        for s in (state, oracle, per_id):
            claim(s, total)
            s.batch_release(runs_of(holes))
        claimed = claimed_ids(state)
        edges = list(accumulate(node.length for node in state.nodes))
        ids = set()
        for _ in range(data.draw(st.integers(1, 6))):
            start = max(1, data.draw(st.sampled_from(edges)) - data.draw(st.integers(0, 40)))
            ids.update(range(start, start + data.draw(st.integers(1, 700))))
        ids = sorted(ids & claimed)
        per_id.batch_release((ident, ident + 1) for ident in ids)
        state.batch_release(runs_of(ids))
        for ident in ids:
            oracle.free_one(ident)
        assert claimed_ids(state) == claimed_ids(oracle) == claimed - set(ids)
        assert state.population == oracle.population
        # A run makes the nodes that its IDs released one run each make.
        assert _shape(state.nodes) == _shape(per_id.nodes)
        validate(state)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(), st.integers(1, 700)), max_size=8),
        st.integers(1, 1200),
    )
    def test_builder_release_is_one_id_runs(self, prefix, length):
        # A run of released IDs makes the nodes that one-ID runs make, so a
        # batch release's node structure (and node memory) is as before.
        builders = _Builder(), _Builder()
        for builder in builders:
            for claimed, run_len in prefix:
                builder.run(claimed, run_len)
        bulk, unit = builders
        bulk.release(length)
        for _ in range(length):
            unit.run(False, 1)
        assert _shape(bulk.finish()) == _shape(unit.finish())

    def test_structure_may_differ_membership_identical(self):
        batch = UnrState(4000)
        claim(batch, 3000)
        seq = UnrState(4000)
        claim(seq, 3000)
        ids = list(range(3, 2800, 3))
        batch.batch_release(runs_of(ids))
        for ident in ids:
            seq.free_one(ident)
        assert claimed_ids(batch) == claimed_ids(seq)
        validate(batch)
        validate(seq)


class TestNodeMemory:
    def test_fresh_accounting(self):
        state = UnrState(1000)
        assert state.population == 0
        assert len(state.nodes) == 1
        assert state.node_memory() == NODE_UNIT_BYTES

    def test_example_run_accounting(self):
        state = UnrState(2000)
        claim(state, 50)
        assert state.population == 50
        assert state.node_memory() == 2 * NODE_UNIT_BYTES

    def test_alternating_pattern_beats_runs(self):
        # Claim 1..512 then free every other ID: 512 one-ID runs would cost
        # 512 node units; the bitmap form must be strictly cheaper.
        state = UnrState(10_000)
        claim(state, 512)
        state.batch_release((i, i + 1) for i in range(2, 513, 2))
        run_only_cost = (512 + 1) * NODE_UNIT_BYTES  # alternation + tail
        assert any(isinstance(n, BitmapNode) for n in state.nodes)
        assert state.node_memory() < run_only_cost
        validate(state)

    def test_bitmap_unit_cost(self):
        node_units = NODE_UNIT_BYTES + BITMAP_PAYLOAD_BYTES
        state = UnrState(600)
        claim(state, 8)
        state.free_one(4)
        state.free_one(5)
        # bitmap(8) + available run
        assert state.node_memory() == node_units + NODE_UNIT_BYTES


class TestDump:
    def test_run_dump(self):
        state = UnrState(62)
        claim(state, 50)
        assert dump(state) == "R:c:50 R:a:12"

    def test_bitmap_dump(self):
        state = UnrState(600)
        claim(state, 8)
        state.free_one(4)
        state.free_one(5)
        assert dump(state) == "B:len=8:e7 R:a:592"


def _bitmap_nodes(state):
    return sum(type(node) is BitmapNode for node in state.nodes)


def _recounted_memory(state):
    """`node_memory` recounted over the nodes."""
    return NODE_UNIT_BYTES * len(state.nodes) + BITMAP_PAYLOAD_BYTES * _bitmap_nodes(state)


def _random_ops(state, claimed, rng, ops):
    """Drive one interleaving against the naive set oracle, checking the
    O(1) node memory against a recount and the node invariants after every
    op."""
    total = state.total
    for _ in range(ops):
        roll = rng.below(10)
        if roll < 5:
            expected = oracle_min_free(claimed, total)
            if expected is None:
                with pytest.raises(Exhausted):
                    state.alloc_first_free()
            else:
                assert state.alloc_first_free() == expected
                claimed.add(expected)
        elif roll < 8:
            if claimed:
                victim = sorted(claimed)[rng.below(len(claimed))]
                state.free_one(victim)
                claimed.discard(victim)
        else:
            if claimed:
                ids = sorted(claimed)
                take = rng.below(len(ids)) + 1
                picks = sorted({ids[rng.below(len(ids))] for _ in range(take)})
                state.batch_release(runs_of(picks))
                claimed.difference_update(picks)
        assert state.node_memory() == _recounted_memory(state)
        validate(state)


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(8, 400))
    def test_random_interleavings(self, seed, total):
        state = UnrState(total)
        claimed = set()
        _random_ops(state, claimed, SplitMix64(seed), 40)
        assert claimed_ids(state) == claimed
        validate(state)

    def test_large_pool_interleaving(self):
        state = UnrState(100_000)
        claimed = set()
        rng = SplitMix64(12345)
        for _ in range(30):
            _random_ops(state, claimed, rng, 20)
            assert claimed_ids(state) == claimed
        validate(state)

    def test_releases_form_and_dissolve_bitmaps(self, monkeypatch):
        # The recount in _random_ops must see batch releases that add
        # bitmaps and ones that dissolve them.
        seen = set()
        release = UnrState.batch_release

        def counting_release(state, runs):
            before = _bitmap_nodes(state)
            release(state, runs)
            after = _bitmap_nodes(state)
            if after != before:
                seen.add("forms" if after > before else "dissolves")

        monkeypatch.setattr(UnrState, "batch_release", counting_release)
        state = UnrState(100_000)
        claimed = set()
        rng = SplitMix64(12345)
        for _ in range(30):
            _random_ops(state, claimed, rng, 20)
        assert seen == {"forms", "dissolves"}


def _drawn_runs(rng, claimed, total):
    """Ascending runs over up to 12 drawn ranges of 1-600 IDs, kept where
    claimed; one consecutive pair in eight starts a new, adjacent run."""
    picked = set()
    for _ in range(1 + rng.below(12)):
        start = 1 + rng.below(total)
        picked.update(range(start, start + 1 + rng.below((1, 8, 600)[rng.below(3)])))
    runs = []
    for ident in sorted(picked & claimed):
        if runs and runs[-1][1] == ident and rng.below(8):
            runs[-1][1] += 1
        else:
            runs.append([ident, ident + 1])
    return [tuple(run) for run in runs]


class TestPinnedReleases:
    def test_node_sequences_after_seeded_releases(self):
        # The node structure, which `peak_unr_bytes` reads, after 384 seeded
        # batch releases (17,566 runs) into pools of 100-4,099 IDs.  A
        # rewrite of the release must keep it, not only the membership.
        digest = hashlib.sha256()
        rng = SplitMix64(4242)
        for _ in range(24):
            total = 100 + rng.below(4000)
            state = UnrState(total)
            claimed = set()
            for _ in range(16):
                for _ in range(rng.below(total - len(claimed) + 1)):
                    claimed.add(state.alloc_first_free())
                runs = _drawn_runs(rng, claimed, total)
                state.batch_release(runs)
                for start, stop in runs:
                    claimed.difference_update(range(start, stop))
                assert claimed_ids(state) == claimed
                digest.update(repr(_shape(state.nodes)).encode())
        assert digest.hexdigest() == (
            "6df6a52a98748f3483f5f766b37cde65c7df5e506375cabae10ed114f2777689"
        )
