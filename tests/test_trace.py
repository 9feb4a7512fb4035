import pytest

from colorcap.machine import FaultKind
from colorcap.trace import (
    MAX_SLOTS,
    MAX_WIDTH,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_WRITE,
    ParseError,
    format_trace,
    parse_trace,
)

OP_CODES = {"read": OP_READ, "write": OP_WRITE}


class TestParse:
    def test_two_op_trace(self):
        trace = parse_trace("malloc r0 64\nfree r0")
        assert list(trace.ops) == [(OP_MALLOC, 0, 64, 0), (OP_FREE, 0, 0, 0)]

    def test_inline_expectation(self):
        trace = parse_trace("read r0 0 8 !fault=ProvenanceRetracted")
        assert list(trace.ops) == [(OP_READ, 0, 0, 8)]
        assert trace.expects == {0: FaultKind.PROVENANCE_RETRACTED}

    def test_standalone_expectation_attaches_to_previous(self):
        trace = parse_trace("free r1\n!fault=DoubleFree")
        assert trace.expects == {0: FaultKind.DOUBLE_FREE}

    def test_ok_expectation(self):
        trace = parse_trace("write r2 8 4 !ok")
        assert trace.expects == {0: None}

    def test_register_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("malloc r99 8")
        assert exc.value.line == 1
        assert "r99" in exc.value.reason

    def test_register_digits_that_int_rejects(self):
        with pytest.raises(ParseError, match="line 1, column 6: expected a register, got 'r²'"):
            parse_trace("free r²")

    def test_comments_and_blanks(self):
        text = "# header\n\nmalloc r1 16  # trailing\n   \nfree r1\n"
        trace = parse_trace(text)
        assert len(list(trace.ops)) == 2

    def test_all_ops_round_trip(self):
        text = "\n".join(
            [
                "malloc r0 128",
                "write r0 0 8",
                "read r0 0 8 !ok",
                "copy r1 r0",
                "derive r2 r0 16",
                "spill r0 3",
                "reload r4 3",
                "scratch r5",
                "free r0",
                "!fault=DoubleFree",
            ]
        )
        trace = parse_trace(text)
        assert len(list(trace.ops)) == 9
        assert trace.slots == 4  # highest slot index + 1
        again = parse_trace(format_trace(trace))
        assert list(again.ops) == list(trace.ops)
        assert again.expects == trace.expects

    def test_unknown_op(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("malloc r0 8\nfrobnicate r1")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_trace("malloc r0")
        with pytest.raises(ParseError):
            parse_trace("free r0 r1")

    def test_unknown_fault_kind(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("free r0 !fault=Gremlins")
        assert "Gremlins" in exc.value.reason

    def test_expectation_before_any_op(self):
        with pytest.raises(ParseError):
            parse_trace("!ok\nmalloc r0 8")

    def test_negative_numbers_rejected(self):
        with pytest.raises(ParseError):
            parse_trace("read r0 -4 8")

    def test_zero_size_malloc_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("malloc r0 0")
        assert (exc.value.line, exc.value.column) == (1, 11)  # the size token
        assert "positive" in exc.value.reason

    @pytest.mark.parametrize("op", ["spill", "reload"])
    def test_slot_index_bounded(self, op):
        assert parse_trace(f"{op} r0 {MAX_SLOTS - 1}").slots == MAX_SLOTS
        with pytest.raises(ParseError) as exc:
            parse_trace(f"scratch r0\n{op} r0 {MAX_SLOTS}")
        assert (exc.value.line, exc.value.column) == (2, len(op) + 5)  # the slot token
        assert exc.value.reason == f"slot index {MAX_SLOTS} out of range (0..{MAX_SLOTS - 1})"

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_width_bounded_by_the_spill_region(self, op):
        # The widest scratch read, 16 bytes per slot: a width past it would
        # walk or build a block of a large heap in host memory.
        assert MAX_WIDTH == 16 * MAX_SLOTS == 1 << 20
        assert list(parse_trace(f"{op} r0 8 {MAX_WIDTH}").ops) == [(OP_CODES[op], 0, 8, MAX_WIDTH)]
        with pytest.raises(ParseError) as exc:
            parse_trace(f"malloc r0 16\n{op} r0 8 {MAX_WIDTH + 1} !ok")
        assert (exc.value.line, exc.value.column) == (2, len(op) + 7)  # the width token
        assert exc.value.reason == f"width {MAX_WIDTH + 1} out of range (0..{MAX_WIDTH})"

    def test_hex_literals_accepted(self):
        trace = parse_trace("malloc r0 0x40")
        assert list(trace.ops)[0] == (OP_MALLOC, 0, 0x40, 0)
