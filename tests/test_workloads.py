import hashlib
import tracemalloc

import pytest

from colorcap.harness import run_trace
from colorcap.machine import FaultKind
from colorcap.trace import MAX_WIDTH, OP_FREE, OP_MALLOC, OP_WRITE
from colorcap.workloads import (
    SplitMix64,
    gen_churn,
    gen_corpus,
    gen_locality,
)


class TestSplitMix64:
    def test_known_sequence(self):
        # Reference values for seed 1234567, from the published recurrence.
        rng = SplitMix64(1234567)
        assert rng.next64() == 6457827717110365317

    def test_below_in_range(self):
        rng = SplitMix64(42)
        draws = [rng.below(10) for _ in range(1000)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10

    def test_determinism(self):
        a = [SplitMix64(7).next64() for _ in range(5)]
        b = [SplitMix64(7).next64() for _ in range(5)]
        assert a == b


class TestChurn:
    def test_seeded_determinism(self):
        first = list(gen_churn(100, 10, (32,), seed=7).ops)
        second = list(gen_churn(100, 10, (32,), seed=7).ops)
        assert first == second

    def test_different_seed_differs_with_randomness(self):
        a = list(gen_churn(100, 10, (16, 32, 64), seed=1).ops)
        b = list(gen_churn(100, 10, (16, 32, 64), seed=2).ops)
        assert a != b

    def test_replayable_ops_iterate_twice(self):
        trace = gen_churn(50, 5, (32,), seed=3)
        assert list(trace.ops) == list(trace.ops)
        assert len(list(trace.ops)) == 2 * 5 + 4 * 45

    def test_shape_and_live_set(self):
        trace = gen_churn(100, 10, (32,), seed=0)
        mallocs = sum(1 for op in trace.ops if op[0] == OP_MALLOC)
        frees = sum(1 for op in trace.ops if op[0] == OP_FREE)
        assert mallocs == 100
        assert frees == 90
        assert trace.slots == 10

    def test_register_only_mode(self):
        trace = gen_churn(40, 8, (32,), seed=0, spill=False)
        assert trace.slots == 0
        metrics = run_trace(trace, "picasso").metrics
        assert metrics.allocations == 40

    @pytest.mark.parametrize(
        "option, value", [("touch_rate", 1.0), ("inject", "uaf"), ("inject_rate", 1.0)]
    )
    def test_register_only_mode_rejects_what_it_would_ignore(self, option, value):
        # Register-only churn has no touch or injection step, so these
        # options would silently change nothing.
        with pytest.raises(ValueError, match=f"does not support {option}$"):
            gen_churn(40, 8, spill=False, **{option: value})
        assert gen_churn(40, 8, spill=True, **{option: value}).slots == 8

    def test_defaults(self):
        assert gen_churn().name == "churn:n=1000,live=10,seed=0"

    def test_injection_produces_violations(self):
        trace = gen_churn(400, 10, (32,), seed=9, inject="mixed", inject_rate=0.2)
        metrics = run_trace(trace, "picasso").metrics
        assert metrics.oracle_violations > 10
        assert metrics.uaf_escapes == 0
        assert metrics.false_positives == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_churn(5, 10)
        with pytest.raises(ValueError):
            gen_churn(100, 40, spill=False)
        with pytest.raises(ValueError):
            gen_churn(10, 2, sizes=())


class TestLocality:
    def test_shape(self):
        trace = gen_locality(29, 2, 64, 8)
        ops = list(trace.ops)
        assert len(ops) == 2 * 29 + 2 * (2 * (64 // 8) * 29)
        assert sum(1 for op in ops if op[0] == OP_MALLOC) == 29

    def test_high_hit_rate_under_picasso(self):
        metrics = run_trace(gen_locality(29, 10, 64, 8), "picasso").metrics
        assert metrics.pvt_misses == 1  # all 29 colors share one table word
        assert metrics.faults_total == 0

    def test_width_bounded_as_a_parsed_read(self):
        assert list(gen_locality(1, 1, MAX_WIDTH, MAX_WIDTH).ops)[1] == (OP_WRITE, 0, 0, MAX_WIDTH)
        with pytest.raises(ValueError, match=rf"^width must be in \[1, {MAX_WIDTH}\]$"):
            gen_locality(1, 1, MAX_WIDTH + 1, MAX_WIDTH + 1)


# SHA-256 of repr(list(trace.ops)), recorded before generators shared their
# op tuples: the sharing must not change a single op.
OPS_DIGESTS = [
    (
        lambda: gen_churn(66000, 1000, (32,), 1),
        "f2cb73b0bdcf66e324c140c357de1e717b4fc63a1e5ac00be52615f078ec74c8",
    ),
    (
        lambda: gen_churn(2000, 50, (16, 64, 200, 1024), 7),
        "2b408e190b59d82c4920db2e407376b37fcb6732b82b276f55b05f9aad4dea04",
    ),
    (
        lambda: gen_churn(
            900, 25, (16, 64, 200, 1024), seed=1,
            touch_rate=0.4, inject="mixed", inject_rate=0.07,
        ),
        "9761670e7ae09b93e2b59f4f67b8ac3c2517314299e1cc5a6fb1ac6a56b030ff",
    ),
    (
        lambda: gen_churn(400, 12, (32, 48), 3, spill=False),
        "ab7e289aff623ac12454db74ecfd021dba5992e2fc4b6638dbf15873e064bb6b",
    ),
    (
        lambda: gen_locality(29, 300, 64, 8),
        "3c320c5d84f2bfbe860561a05d3d06e5d66e5549dc6b07a30a30851edaabb9c7",
    ),
    (
        lambda: gen_locality(7, 5, 40, 12),
        "b928da37718d8030e56bc8f62143dda8cef8debf3b9a72dcfff6cd433a049dd3",
    ),
]


class TestSharedOps:
    @pytest.mark.parametrize("make, digest", OPS_DIGESTS)
    def test_ops_digest(self, make, digest):
        ops = list(make().ops)
        assert hashlib.sha256(repr(ops).encode()).hexdigest() == digest

    # The two bench shapes: churn-fifo (live set 1000, one size) and
    # locality (29 allocations of 64 B read and written 8 B at a time).
    @pytest.mark.parametrize(
        "make, distinct",
        [
            (lambda: gen_churn(66000, 1000, (32,), 1), 2 * 1000 + 1 + 1),
            (lambda: gen_locality(29, 300, 64, 8), 2 * 29 * (64 // 8) + 2 * 29),
        ],
    )
    def test_materialised_ops_share_tuples(self, make, distinct):
        trace = make()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ops = list(trace.ops)
            per_op = (tracemalloc.get_traced_memory()[0] - before) / len(ops)
        finally:
            tracemalloc.stop()
        assert len({id(op) for op in ops}) <= distinct
        # A list pointer per op plus the small tables; a fresh tuple per op
        # costs over 80 B.
        assert per_op < 16


class TestCorpus:
    def test_at_least_forty_pairs(self):
        cases = gen_corpus()
        names = {c.name for c in cases}
        assert len(names) >= 40
        assert len(cases) == 2 * len(names)

    def test_every_pair_good_and_bad(self):
        cases = gen_corpus()
        by_name = {}
        for case in cases:
            by_name.setdefault(case.name, set()).add(case.variant)
        assert all(variants == {"good", "bad"} for variants in by_name.values())

    def test_bad_extends_good(self):
        cases = {(c.name, c.variant): c for c in gen_corpus()}
        for (name, variant), case in cases.items():
            if variant != "bad":
                continue
            good_ops = list(cases[(name, "good")].trace.ops)
            bad_ops = list(case.trace.ops)
            extra = len(bad_ops) - len(good_ops)
            assert extra >= 1
            # The bad variant differs only by an inserted block whose last
            # op is the offending one.
            (offending,) = case.trace.expects
            start = offending - extra + 1
            removed = bad_ops[:start] + bad_ops[start + extra :]
            assert removed == good_ops

    def test_expected_faults_cover_the_three_kinds(self):
        kinds = {
            fault for c in gen_corpus() if c.variant == "bad" for fault in c.trace.expects.values()
        }
        assert kinds == {
            FaultKind.PROVENANCE_RETRACTED,
            FaultKind.DOUBLE_FREE,
            FaultKind.MALFORMED_FREE,
        }

    def test_categories(self):
        categories = {c.category for c in gen_corpus()}
        assert categories == {"UAF", "DF"}

    def test_good_cases_clean_under_picasso(self):
        for case in gen_corpus():
            if case.variant == "good":
                metrics = run_trace(case.trace, "picasso").metrics
                assert metrics.faults_total == 0, case.name

    def test_bad_cases_fault_exactly_as_annotated_under_picasso(self):
        for case in gen_corpus():
            if case.variant == "bad":
                result = run_trace(case.trace, "picasso", collect_outcomes=True)
                assert result.metrics.expect_mismatches == 0, case.name
                ((offending, expected),) = case.trace.expects.items()
                assert result.outcomes[offending] is expected
