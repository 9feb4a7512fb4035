import pytest
from hypothesis import given, settings, strategies as st

from colorcap.harness import (
    _FILL_SALT,
    ConfigError,
    METRIC_FIELDS,
    RunConfig,
    _fill_bytes,
    classify_case,
    corpus_gate,
    run_corpus,
    run_trace,
)
from colorcap.machine import FaultKind
from colorcap.schemes import SCHEME_NAMES
from colorcap.trace import (
    OP_COPY,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_RELOAD,
    OP_SPILL,
    OP_WRITE,
    Trace,
    parse_trace,
)
from colorcap.workloads import gen_churn, gen_corpus

GOOD = Trace(
    ops=[
        (OP_MALLOC, 0, 64, 0),
        (OP_WRITE, 0, 0, 8),
        (OP_READ, 0, 0, 8),
        (OP_FREE, 0, 0, 0),
    ],
    name="good",
)

BAD_UAF = Trace(
    ops=[
        (OP_MALLOC, 0, 64, 0),
        (OP_WRITE, 0, 0, 8),
        (OP_FREE, 0, 0, 0),
        (OP_READ, 0, 0, 8),
    ],
    expects={3: FaultKind.PROVENANCE_RETRACTED},
    name="bad-uaf",
)


class TestRunTrace:
    def test_good_trace_all_schemes_clean(self):
        for scheme in ("picasso", "cornucopia", "cornucopia-rof", "versioning", "none"):
            result = run_trace(GOOD, scheme)
            assert result.outcomes is None, scheme  # collected only on request
            metrics = result.metrics
            assert metrics.faults_total == 0, scheme
            assert metrics.uaf_escapes == 0, scheme
            assert metrics.false_positives == 0, scheme

    def test_bad_uaf_detected_vs_escaped(self):
        result = run_trace(BAD_UAF, "picasso", collect_outcomes=True)
        assert result.outcomes[3] is FaultKind.PROVENANCE_RETRACTED
        assert result.metrics.uaf_escapes == 0
        assert result.metrics.expect_mismatches == 0
        corn = run_trace(BAD_UAF, "cornucopia", collect_outcomes=True)
        assert corn.outcomes[3] is None  # quarantined memory still readable
        assert corn.metrics.uaf_escapes == 1

    def test_determinism(self):
        first = run_trace(BAD_UAF, "picasso").metrics
        second = run_trace(BAD_UAF, "picasso").metrics
        assert first == second

    def test_mismatch_reported_not_fatal(self):
        trace = Trace(ops=list(GOOD.ops), expects={2: FaultKind.DOUBLE_FREE})
        result = run_trace(trace, "picasso")
        assert result.metrics.expect_mismatches == 1
        assert result.mismatches == [(2, FaultKind.DOUBLE_FREE, None)]
        assert result.metrics.ops == 4  # ran to completion

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            run_trace(GOOD, "quantum")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            run_trace(GOOD, "picasso", RunConfig(threshold_fraction=2.0))

    def test_metrics_conservation(self):
        trace = gen_churn(200, 10, (32,), seed=3)
        metrics = run_trace(trace, "picasso").metrics
        assert metrics.allocations - metrics.frees == 10  # ending live set
        assert metrics.allocations == 200

    def test_digest_identical_across_schemes_on_good_traces(self):
        trace = gen_churn(300, 8, (48,), seed=11, touch_rate=0.7)
        digests = {
            scheme: run_trace(trace, scheme).metrics.data_digest
            for scheme in ("picasso", "none", "cornucopia", "versioning")
        }
        assert len(set(digests.values())) == 1, digests

    def test_spilled_stale_copy_faults_under_picasso(self):
        trace = Trace(
            ops=[
                (OP_MALLOC, 0, 32, 0),
                (OP_SPILL, 0, 0, 0),
                (OP_FREE, 0, 0, 0),
                (OP_RELOAD, 1, 0, 0),
                (OP_READ, 1, 0, 8),
            ],
            slots=1,
        )
        result = run_trace(trace, "picasso", collect_outcomes=True)
        # The only stale copy lives in memory, not a register; the check
        # is per-access, so location does not matter.
        assert result.outcomes[4] is FaultKind.PROVENANCE_RETRACTED

    def test_register_copy_oracle_tracking(self):
        trace = Trace(
            ops=[
                (OP_MALLOC, 0, 32, 0),
                (OP_COPY, 1, 0, 0),
                (OP_FREE, 1, 0, 0),
                (OP_READ, 0, 0, 8),
            ],
        )
        result = run_trace(trace, "picasso", collect_outcomes=True)
        assert result.metrics.oracle_violations == 1
        assert result.outcomes[3] is FaultKind.PROVENANCE_RETRACTED
        assert result.metrics.uaf_escapes == 0

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize(
        ("writer", "slot", "cleared"),
        # A write through scratch itself over slot 0, and one through a
        # capability derived 16 bytes into scratch, whose offset 0 is slot 1;
        # an empty write inside slot 1 clears no tag.
        [("scratch r1 / write r1 0 4", 0, 1),
         ("scratch r1 / derive r1 r1 16 / write r1 0 4", 1, 1),
         ("scratch r1 / write r1 20 0", 1, 0)],
    )
    def test_overwritten_spill_slot_reloads_no_binding(self, scheme, writer, slot, cleared):
        text = f"malloc r0 32 / spill r0 {slot} / {writer} / reload r2 {slot} / read r2 0 8"
        trace = parse_trace(text.replace(" / ", "\n"))
        metrics = run_trace(trace, scheme).metrics
        # A write that cleared the slot's tag leaves the reload no
        # capability: the read faults, and the oracle calls it a violation.
        assert metrics.fault_UntaggedOperand == cleared
        assert metrics.faults_total == cleared
        assert metrics.false_positives == 0
        assert metrics.uaf_escapes == 0
        assert metrics.oracle_violations == cleared

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_faulting_scratch_write_keeps_the_slot_binding(self, scheme):
        # One slot is 16 bytes of scratch: the 20-byte write faults before
        # it clears any tag, so the reloaded capability is still live.
        text = "malloc r0 32 / spill r0 0 / scratch r1 / write r1 0 20 / reload r2 0 / read r2 0 8"
        metrics = run_trace(parse_trace(text.replace(" / ", "\n")), scheme).metrics
        assert metrics.fault_SpatialOutOfBounds == 1
        assert metrics.faults_total == 1
        # The oracle judges lifetimes, not bounds: the write is legal for
        # it, so its spatial fault is no false positive.
        assert metrics.false_positives == 0
        assert metrics.uaf_escapes == 0
        assert metrics.oracle_violations == 0

    def test_parse_and_run_round_trip(self):
        trace = parse_trace(
            "malloc r0 64\nwrite r0 0 8\nfree r0\nread r0 0 8 !fault=ProvenanceRetracted\n"
        )
        result = run_trace(trace, "picasso")
        assert result.metrics.expect_mismatches == 0


class TestBufferTransparency:
    def test_fault_sequences_identical(self):
        trace = gen_churn(500, 16, (32,), seed=5, touch_rate=0.5,
                          inject="mixed", inject_rate=0.1)
        on = run_trace(trace, "picasso", RunConfig(pvt_buffer=True), collect_outcomes=True)
        off = run_trace(trace, "picasso", RunConfig(pvt_buffer=False), collect_outcomes=True)
        assert len(on.outcomes) == on.metrics.ops  # one entry per streamed op
        assert on.outcomes == off.outcomes
        assert on.metrics.data_digest == off.metrics.data_digest
        assert on.metrics.faults_total == off.metrics.faults_total
        assert on.metrics.pvt_lookups == off.metrics.pvt_lookups
        assert off.metrics.pvt_hits == off.metrics.pvt_misses == 0


class TestFillBytes:
    @pytest.mark.parametrize("index", [0, 1, 5, 255, 69_999])
    def test_equals_per_byte_generator(self, index):
        # Widths past 512 wrap the 256-value ramp more than once.
        for width in range(1501):
            expected = bytes((index * _FILL_SALT + 0x35 + j) & 0xFF for j in range(width))
            assert _fill_bytes(index, width) == expected
        assert _fill_bytes(index, -300) == b""  # as range() of a negative width


def _fnv_masked(digest: int, data: bytes) -> int:
    """64-bit FNV-1a of `data`, continued from `digest`."""
    for byte in data:
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


class TestReadDigest:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 64)), min_size=1, max_size=20))
    def test_run_digest_is_fnv1a_of_the_bytes_read(self, reads):
        # Reads of 0-64 bytes, inside and across words, after one write
        # (op 1) fills the whole block.
        ops = [(OP_MALLOC, 0, 128, 0), (OP_WRITE, 0, 0, 128)]
        ops += [(OP_READ, 0, offset, width) for offset, width in reads]
        block = _fill_bytes(1, 128)
        expected = 0xCBF29CE484222325
        for offset, width in reads:
            expected = _fnv_masked(expected, block[offset : offset + width])
        for scheme in ("picasso", "none"):
            metrics = run_trace(Trace(ops=ops, name="reads"), scheme).metrics
            assert metrics.data_digest == f"{expected:016x}"


class TestMetricsSchema:
    def test_field_order_stable(self):
        assert METRIC_FIELDS[:6] == (
            "scheme",
            "trace",
            "ops",
            "allocations",
            "frees",
            "revocations",
        )
        assert "data_digest" in METRIC_FIELDS

    def test_to_dict_covers_every_field(self):
        metrics = run_trace(GOOD, "picasso").metrics
        assert tuple(metrics.to_dict()) == METRIC_FIELDS


class TestCorpusMachinery:
    def test_classify(self):
        metrics = run_trace(GOOD, "picasso").metrics
        assert classify_case("good", metrics) == "clean"
        bad = run_trace(BAD_UAF, "picasso").metrics
        assert classify_case("bad", bad) == "detected"
        escaped = run_trace(BAD_UAF, "none").metrics
        assert classify_case("bad", escaped) == "escaped"

    def test_gate_requires_picasso(self):
        cases = [c for c in gen_corpus() if c.name.startswith("df-direct-16")]
        _, summary = run_corpus(cases, ["cornucopia"])
        assert corpus_gate(summary) is False
        _, summary = run_corpus(cases, ["picasso", "cornucopia"])
        assert corpus_gate(summary) is True

    def test_rows_sorted_and_labelled(self):
        cases = [c for c in gen_corpus() if c.name == "uaf-read-direct-16"]
        rows, _ = run_corpus(cases, ["picasso", "none"])
        # Sorted by case then scheme; variant order within a key is stable.
        assert [(r[3], r[2], r[4]) for r in rows] == [
            ("none", "good", "clean"),
            ("none", "bad", "escaped"),
            ("picasso", "good", "clean"),
            ("picasso", "bad", "detected"),
        ]
