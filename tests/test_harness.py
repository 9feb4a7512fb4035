import gc

import pytest
from hypothesis import given, settings, strategies as st

from colorcap.capability import NULL_CAP, Capability
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
from colorcap import cli, harness
from colorcap.machine import FaultKind, TaggedMachine
from colorcap.schemes import SCHEME_NAMES, make_scheme
from colorcap.trace import (
    MAX_SLOTS,
    OP_COPY,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_RELOAD,
    OP_SCRATCH,
    OP_SPILL,
    OP_WRITE,
    Trace,
    op_problem,
    parse_trace,
)
from colorcap.workloads import gen_churn, gen_corpus
from test_golden import CASES, _churn

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

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_mismatches_keep_the_first_25_in_op_order(self, scheme):
        # 30 in-bounds reads that meet `!ok`, each followed by one past the
        # block that does not.
        text = "malloc r0 64\n" + "read r0 0 8 !ok\nread r0 64 8 !ok\n" * 30
        result = run_trace(parse_trace(text), scheme, collect_outcomes=True)
        spatial = FaultKind.SPATIAL_OUT_OF_BOUNDS
        assert result.metrics.expect_mismatches == 30
        assert result.mismatches == [(2 * k, None, spatial) for k in range(1, 26)]
        assert result.outcomes == [None] + [None, spatial] * 30
        assert result.metrics.faults_total == result.metrics.fault_SpatialOutOfBounds == 30

    def test_unknown_scheme_rejected(self, capsys):
        # One check, in `make_scheme`: the API, the harness and the CLI
        # give the same error.
        with pytest.raises(ConfigError) as built:
            make_scheme("quantum", TaggedMachine(RunConfig()))
        with pytest.raises(ConfigError) as replayed:
            run_trace(GOOD, "quantum")
        assert str(built.value) == str(replayed.value)
        assert "unknown scheme 'quantum'" in str(built.value)
        argv = ["compare", "--schemes", "picasso,quantum", "--gen", "churn:n=10,live=2"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"colorcap: error: {built.value}\n"

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

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize(
        "trace",
        # A derive past its parent's length; and a reload of slot 5 of a
        # 1-slot trace, after a spill there that faulted too.
        [parse_trace("malloc r0 32\nderive r1 r0 48\nread r1 0 8\n"),
         Trace(ops=[(OP_MALLOC, 0, 32, 0), (OP_SPILL, 0, 5, 0), (OP_RELOAD, 1, 5, 0),
                    (OP_READ, 1, 0, 8)], slots=1)],
        ids=["derive", "reload"],
    )
    def test_faulting_derive_or_reload_unbinds_its_register(self, scheme, trace):
        # The register holds NULL_CAP, as an empty register does: the read
        # through it faults, and the oracle calls it a violation, not a
        # false positive against the live allocation.
        result = run_trace(trace, scheme, collect_outcomes=True)
        spatial, untagged = FaultKind.SPATIAL_OUT_OF_BOUNDS, FaultKind.UNTAGGED_OPERAND
        assert result.outcomes == [None] + [spatial] * (len(trace.ops) - 2) + [untagged]
        metrics = result.metrics
        assert (metrics.oracle_violations, metrics.uaf_escapes, metrics.false_positives) == (
            1, 0, 0
        )

    def test_parse_and_run_round_trip(self):
        trace = parse_trace(
            "malloc r0 64\nwrite r0 0 8\nfree r0\nread r0 0 8 !fault=ProvenanceRetracted\n"
        )
        result = run_trace(trace, "picasso")
        assert result.metrics.expect_mismatches == 0


class TestMalformedOps:
    """Ops built through the API are checked only when one fails: each
    malformed op is a ConfigError naming its index and field."""

    CASES = [
        ((OP_MALLOC, 40, 16, 0), "op 1: field a: register 40 not in [0, 32)"),
        ((OP_MALLOC, 0, 16), "op 1: expected a 4-tuple (opcode, a, b, c), got (0, 0, 16)"),
        ((OP_MALLOC, 0, "16", 0), "op 1: field b must be an int, got '16'"),
    ]

    @pytest.mark.parametrize("op, message", CASES)
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_in_process(self, op, message, scheme):
        trace = Trace(ops=[(OP_MALLOC, 0, 16, 0), op, (OP_FREE, 0, 0, 0)])
        with pytest.raises(ConfigError) as caught:
            run_trace(trace, scheme)
        assert str(caught.value) == message

    @pytest.mark.parametrize("op, message", CASES)
    def test_through_the_cli(self, op, message, capsys, monkeypatch):
        trace = Trace(ops=[(OP_SCRATCH, 0, 0, 0), op])
        monkeypatch.setattr(cli, "_load_trace", lambda args: trace)
        assert cli.main(["run", "--gen", "churn"]) == 2
        assert capsys.readouterr().err == f"colorcap: error: {message}\n"

    @pytest.mark.parametrize(
        "op, message",
        [
            ((99, 0, 0, 0), "op 0: field opcode: unknown opcode 99"),
            (("0", 0, 0, 0), "op 0: field opcode must be an int, got '0'"),
            ((OP_MALLOC, 0, 0, 0), "op 0: field b: malloc size 0 is not positive"),
            ((OP_COPY, 0, 32, 0), "op 0: field b: register 32 not in [0, 32)"),
        ],
    )
    def test_other_fields(self, op, message):
        with pytest.raises(ConfigError) as caught:
            run_trace(Trace(ops=[op]), "picasso")
        assert str(caught.value) == message

    def test_too_many_slots_rejected_before_the_first_op(self):
        def ops():
            raise AssertionError("an op was drawn")
            yield

        with pytest.raises(ConfigError, match=f"^trace has {MAX_SLOTS + 1} spill slots"):
            run_trace(Trace(ops=ops(), slots=MAX_SLOTS + 1), "none")

    def test_other_failures_propagate(self):
        # The loop binds the op it replays, so a one-shot iterator's
        # malformed op is named too; a failure with a well-formed op at its
        # index, here one the iterator raises itself, propagates.
        with pytest.raises(ConfigError) as caught:
            run_trace(Trace(ops=iter([(OP_MALLOC, 40, 16, 0)])), "picasso")
        assert str(caught.value) == "op 0: field a: register 40 not in [0, 32)"

        def failing_ops():
            yield (OP_MALLOC, 0, 16, 0)
            raise IndexError("the source failed")

        with pytest.raises(IndexError, match="the source failed"):
            run_trace(Trace(ops=failing_ops()), "picasso")
        for op in [(OP_MALLOC, 31, 1, 0), (OP_COPY, 0, 31, 0), (OP_READ, 0, -1, -1)]:
            assert op_problem(op) is None


class TestNoReferenceCycles:
    # A cycle keeps a replay's machine alive until the collector next runs,
    # so back-to-back replays would hold several and peak RSS would creep.
    @pytest.mark.parametrize("case", ["churn", "churn-window7", "churn-heap8k"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_run_trace_frees_everything_it_builds(self, scheme, case):
        trace = _churn()
        gc.collect()
        gc.disable()
        try:
            run_trace(trace, scheme, CASES[case])
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFillBytes:
    @pytest.mark.parametrize("index", [0, 1, 5, 255, 69_999])
    def test_equals_per_byte_generator(self, index):
        # Widths past 512 wrap the 256-value ramp more than once.
        wide = Capability(0, 0, 1500)
        for width in range(1501):
            expected = bytes((index * _FILL_SALT + 0x35 + j) & 0xFF for j in range(width))
            assert _fill_bytes(index, width, wide) == expected
        # A negative width builds one byte past the capability, so it faults.
        assert _fill_bytes(index, -300, wide) == _fill_bytes(index, wide.length + 1, wide)

    def test_payload_past_the_capability_stops_one_byte_beyond_it(self):
        whole = _fill_bytes(3, 301, Capability(0, 0, 301))
        assert len(whole) == 301
        assert _fill_bytes(3, 2**50, Capability(0, 0, 300)) == whole
        # An empty register's NULL_CAP gets one byte, which faults untagged.
        assert _fill_bytes(3, 2**50, NULL_CAP) == whole[:1]
        assert _fill_bytes(3, 200, NULL_CAP) == _fill_bytes(3, 200, Capability(0, 0, 16))

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize(
        ("text", "fault"),
        # A tagged capability narrower than the write, one 16 bytes in from
        # scratch, and an empty register.
        [("malloc r0 64 / write r0 0 W", FaultKind.SPATIAL_OUT_OF_BOUNDS),
         ("scratch r0 / derive r0 r0 16 / write r0 0 W", FaultKind.SPATIAL_OUT_OF_BOUNDS),
         ("write r0 0 W", FaultKind.UNTAGGED_OPERAND)],
    )
    def test_write_wider_than_memory_faults_without_building_it(self, scheme, text, fault):
        # `parse_trace` stops widths at MAX_WIDTH, so the wide write is
        # built through the API.
        ops = parse_trace(text.replace("W", "1").replace(" / ", "\n")).ops
        ops[-1] = (OP_WRITE, ops[-1][1], 0, 2**50)
        result = run_trace(Trace(ops=ops), scheme, collect_outcomes=True)
        assert result.outcomes[-1] is fault
        assert result.metrics.faults_total == 1

    @pytest.mark.parametrize("scheme", ["picasso", "none", "versioning"])
    @pytest.mark.parametrize("opcode", [OP_READ, OP_WRITE], ids=["read", "write"])
    def test_negative_width_faults_out_of_bounds(self, scheme, opcode):
        # `parse_trace` rejects negative widths, so only a list-built trace
        # carries one; a write of it must fault as the same read does.
        trace = Trace(ops=[(OP_MALLOC, 0, 64, 0), (opcode, 0, 0, -5),
                           (OP_SCRATCH, 1, 0, 0), (opcode, 1, 0, -1)])
        result = run_trace(trace, scheme, collect_outcomes=True)
        spatial = FaultKind.SPATIAL_OUT_OF_BOUNDS
        assert result.outcomes == [None, spatial, None, spatial]


def _fnv_masked(digest: int, data: bytes) -> int:
    """64-bit FNV-1a of `data`, continued from `digest`."""
    for byte in data:
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


def _check_digest(reads, size, scheme):
    """Replay one write that fills a `size`-byte block, then `reads` as
    (offset, width) pairs, and compare the run's digest with FNV-1a.
    Returns each read's memo key: the digest's low byte and the bytes read."""
    ops = [(OP_MALLOC, 0, size, 0), (OP_WRITE, 0, 0, size)]
    ops += [(OP_READ, 0, offset, width) for offset, width in reads]
    block = _fill_bytes(1, size, Capability(0, 0, size))
    expected = 0xCBF29CE484222325
    keys = []
    for offset, width in reads:
        keys.append((expected & 0xFF, block[offset : offset + width]))
        expected = _fnv_masked(expected, keys[-1][1])
    metrics = run_trace(Trace(ops=ops, name="reads"), scheme).metrics
    assert metrics.faults_total == 0
    assert metrics.data_digest == f"{expected:016x}"
    return keys


def _steps_taken(monkeypatch):
    """The (low byte, bytes read) of every `_fnv_step` call from here on:
    the reads that missed the memo."""
    taken = []
    step = harness._fnv_step

    def counted(low, data):
        taken.append((low, data))
        return step(low, data)

    monkeypatch.setattr(harness, "_fnv_step", counted)
    return taken


#: One 8-byte payload read 300 times, then another: the digest's low byte
#: takes at most 256 values, so each payload's keys repeat and hit.
REPEATED = [(0, 8)] * 300 + [(24, 8)] * 300


class TestReadDigest:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 64)), min_size=1, max_size=20))
    def test_run_digest_is_fnv1a_of_the_bytes_read(self, reads):
        # Reads of 0-64 bytes, inside and across words, after one write
        # (op 1) fills the whole block.
        for scheme in ("picasso", "none"):
            _check_digest(reads, 128, scheme)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.binary(max_size=64))
    def test_step_continues_fnv1a_from_any_state_with_its_low_byte(self, h, data):
        mult, add = harness._fnv_step(h & 0xFF, data)
        assert (h * mult + add) & 0xFFFFFFFFFFFFFFFF == _fnv_masked(h, data)

    @pytest.mark.parametrize("scheme", ["picasso", "none"])
    def test_repeated_reads_take_the_hit_path(self, scheme, monkeypatch):
        taken = _steps_taken(monkeypatch)
        keys = _check_digest(REPEATED, 64, scheme)
        # Each key is computed once, at its first read, and most reads hit.
        assert taken == list(dict.fromkeys(keys))
        assert len(taken) <= 2 * 256 < len(REPEATED)

    def test_a_memo_keyed_by_the_payload_alone_fails(self, monkeypatch):
        # The mutant hands every read of one payload the step of the first
        # low byte it met.
        by_payload = {}
        step = harness._fnv_step
        monkeypatch.setattr(
            harness, "_fnv_step", lambda low, data: by_payload.setdefault(data, step(low, data))
        )
        with pytest.raises(AssertionError):
            _check_digest(REPEATED, 64, "none")

    def test_reads_wider_than_a_word_are_never_stored(self, monkeypatch):
        # 300 reads of one 17-byte payload meet some low byte twice, and
        # wider ones reach 4,096 bytes, across words and unaligned.
        reads = [(3, 17)] * 300 + [(0, 4096), (1, 4095), (100, 1000), (16, 32)] * 5
        taken = _steps_taken(monkeypatch)
        _check_digest(reads, 4200, "none")
        assert len(taken) == len(reads)

    def test_keys_past_the_cap_are_computed_every_time(self, monkeypatch):
        # Eight narrow payloads, each read 300 times, under a cap of 3.  A
        # payload's step permutes the low byte, so its keys recur from the
        # first one on.
        monkeypatch.setattr(harness, "_STEP_MEMO_CAP", 3)
        reads = [(offset, offset + 9) for offset in range(8) for _ in range(300)]
        taken = _steps_taken(monkeypatch)
        keys = _check_digest(reads, 64, "picasso")
        # The first three keys are stored and never computed again; every
        # other read computes its step.
        stored = list(dict.fromkeys(keys))[:3]
        first = {key: i for i, key in reversed(list(enumerate(keys)))}
        assert taken == [key for i, key in enumerate(keys) if key not in stored or first[key] == i]
        assert len(taken) < len(keys)


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

    def test_every_fault_kind_has_a_field(self):
        # run_trace stores each count with setattr on a plain dataclass, so
        # a kind without a field would be counted and then dropped by
        # to_dict().  fault_PvtUnmapped outlived its kind for the schema.
        kinds = {f"fault_{kind.value}" for kind in FaultKind}
        fault_fields = {name for name in METRIC_FIELDS if name.startswith("fault_")}
        assert kinds <= fault_fields
        assert fault_fields - kinds == {"fault_PvtUnmapped"}


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
