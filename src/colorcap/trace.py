"""Replayable operation traces.

Text format: one operation per line, `#` starts a comment, blank lines are
skipped.  Registers are r0..r31; slots index the capability spill region
set up at trace start.  `OP_TABLE` gives each op's name and operand kinds
once; parsing, formatting and `op_problem` all read it.

    malloc r0 64          # allocate 64 bytes into r0
    write r0 0 8          # store 8 bytes at offset 0
    read r0 0 8
    copy r1 r0            # register copy
    spill r0 3            # store r0's capability into spill slot 3
    reload r1 3
    derive r1 r0 16       # narrow r0 to [base+16, top) into r1
    scratch r2            # bind r2 to the uncolored spill-region capability
    free r0

An expectation may follow an operation on the same line (or stand on its
own line, attaching to the previous operation): `!ok` demands no fault,
`!fault=DoubleFree` demands that fault kind.  Mismatches are reported by
the harness, never fatal.

Slot indices stop below `MAX_SLOTS`, 2**16, and parsed widths at `MAX_WIDTH`,
the 1 MiB that scratch then spans and the default heap's size: a read of it
all takes 0.12-0.19 s on one Xeon core under CPython 3.11.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Final, Iterable, Iterator, Optional

from .machine import NUM_REGISTERS, FaultKind

OP_MALLOC: Final = 0
OP_FREE: Final = 1
OP_READ: Final = 2
OP_WRITE: Final = 3
OP_COPY: Final = 4
OP_SPILL: Final = 5
OP_RELOAD: Final = 6
OP_DERIVE: Final = 7
OP_SCRATCH: Final = 8

#: The one description of each op, indexed by opcode: its name and its
#: operands' kinds, which fill fields a, b and c in order.  Kind "r" is a
#: register; any other kind names a non-negative integer.
OP_TABLE: Final = (
    ("malloc", ("r", "a size")),
    ("free", ("r",)),
    ("read", ("r", "an offset", "a width")),
    ("write", ("r", "an offset", "a width")),
    ("copy", ("r", "r")),
    ("spill", ("r", "a slot index")),
    ("reload", ("r", "a slot index")),
    ("derive", ("r", "r", "an offset")),
    ("scratch", ("r",)),
)
_OPCODE_BY_NAME: Final = {name: code for code, (name, _) in enumerate(OP_TABLE)}
#: Spill slots a trace may use, and its widest access; see the module docstring.
MAX_SLOTS: Final = 1 << 16
MAX_WIDTH: Final = 16 * MAX_SLOTS

TraceOp = tuple  # (opcode, a, b, c)


class ParseError(Exception):
    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class ReplayableOps:
    """Re-iterable view over generated operations: every iteration replays
    the factory from scratch, so a trace can be run any number of times
    without materializing it."""

    __slots__ = ("_factory",)

    def __init__(self, factory: Callable[[], Iterator[TraceOp]]) -> None:
        self._factory = factory

    def __iter__(self) -> Iterator[TraceOp]:
        return self._factory()


@dataclass
class Trace:
    #: Immutable 4-tuples; a generator may yield one object many times, so
    #: consumers must neither mutate ops nor rely on their identity.
    ops: Iterable[TraceOp]
    #: op index -> expected outcome; None demands ok, a FaultKind demands
    #: that fault.  Absence means unconstrained.
    expects: dict[int, Optional[FaultKind]] = field(default_factory=dict)
    #: Spill slots, at most MAX_SLOTS; a spill or reload past them faults.
    slots: int = 0
    name: str = ""


_FAULT_BY_NAME: Final = {kind.value: kind for kind in FaultKind}


def _parse_operand(token: str, kind: str, line: int, col: int) -> int:
    if kind == "r":
        if not token.startswith("r") or not token[1:].isdecimal():
            raise ParseError(line, col, f"expected a register, got {token!r}")
        reg = int(token[1:])
        if reg >= NUM_REGISTERS:
            raise ParseError(line, col, f"register r{reg} out of range (0..{NUM_REGISTERS - 1})")
        return reg
    try:
        value = int(token, 0)
    except ValueError:
        raise ParseError(line, col, f"expected {kind}, got {token!r}") from None
    if value < 0:
        raise ParseError(line, col, f"{kind} must be non-negative")
    return value


def _parse_expect(token: str, line: int, col: int) -> Optional[FaultKind]:
    if token == "!ok":
        return None
    if token.startswith("!fault="):
        name = token[len("!fault=") :]
        kind = _FAULT_BY_NAME.get(name)
        if kind is None:
            raise ParseError(line, col, f"unknown fault kind {name!r}")
        return kind
    raise ParseError(line, col, f"bad expectation {token!r}")


def parse_trace(text: str, name: str = "") -> Trace:
    """Parse trace text; raises ParseError with line/column on bad input."""
    ops: list[TraceOp] = []
    expects: dict[int, Optional[FaultKind]] = {}
    max_slot = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        found = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if not found:
            continue
        tokens = [m.group() for m in found]

        def col(index: int) -> int:
            return found[index].start() + 1

        head = tokens[0]
        if head.startswith("!"):
            if not ops:
                raise ParseError(lineno, col(0), "expectation before any op")
            if len(tokens) > 1:
                raise ParseError(lineno, col(1), "trailing tokens after expectation")
            expects[len(ops) - 1] = _parse_expect(head, lineno, col(0))
            continue

        expect_token: Optional[str] = None
        if tokens[-1].startswith("!"):
            expect_token = tokens.pop()

        code = _OPCODE_BY_NAME.get(head)
        if code is None:
            raise ParseError(lineno, col(0), f"unknown op {head!r}")
        kinds = OP_TABLE[code][1]
        if len(tokens) - 1 != len(kinds):
            raise ParseError(
                lineno, col(0), f"{head} takes {len(kinds)} argument(s), got {len(tokens) - 1}"
            )
        fields = [
            _parse_operand(token, kind, lineno, col(i))
            for i, (token, kind) in enumerate(zip(tokens[1:], kinds), start=1)
        ]
        if code == OP_MALLOC and fields[1] == 0:
            raise ParseError(lineno, col(2), "a size must be positive")
        if code in (OP_SPILL, OP_RELOAD):
            if fields[1] >= MAX_SLOTS:
                raise ParseError(
                    lineno, col(2), f"slot index {fields[1]} out of range (0..{MAX_SLOTS - 1})"
                )
            max_slot = max(max_slot, fields[1])
        elif code in (OP_READ, OP_WRITE) and fields[2] > MAX_WIDTH:
            raise ParseError(lineno, col(3), f"width {fields[2]} out of range (0..{MAX_WIDTH})")
        ops.append((code, *fields) + (0, 0, 0)[len(fields) :])

        if expect_token is not None:
            expects[len(ops) - 1] = _parse_expect(expect_token, lineno, col(len(tokens)))

    return Trace(ops=ops, expects=expects, slots=max_slot + 1, name=name)


def op_problem(op) -> Optional[str]:
    """Why an op built through the API is malformed, naming the field, or
    None.  An op is a 4-tuple of ints (opcode, a, b, c): a known opcode,
    registers where `OP_TABLE` puts them in [0, NUM_REGISTERS), malloc size
    b >= 1."""
    if type(op) is not tuple or len(op) != 4:
        return f"expected a 4-tuple (opcode, a, b, c), got {op!r}"
    for name, value in zip(("opcode", "a", "b", "c"), op):
        if type(value) is not int:
            return f"field {name} must be an int, got {value!r}"
    code, _, b, _ = op
    if not 0 <= code < len(OP_TABLE):
        return f"field opcode: unknown opcode {code}"
    for name, kind, value in zip("abc", OP_TABLE[code][1], op[1:]):
        if kind == "r" and not 0 <= value < NUM_REGISTERS:
            return f"field {name}: register {value} not in [0, {NUM_REGISTERS})"
    if code == OP_MALLOC and b < 1:
        return f"field b: malloc size {b} is not positive"
    return None


def format_op(op: TraceOp) -> str:
    code, *fields = op
    name, kinds = OP_TABLE[code]
    operands = (f"r{value}" if kind == "r" else str(value) for kind, value in zip(kinds, fields))
    return " ".join((name, *operands))


def format_trace(trace: Trace) -> str:
    """Render a materialized trace back to text (inline expectations)."""
    lines = []
    for i, op in enumerate(trace.ops):
        text = format_op(op)
        if i in trace.expects:
            expected = trace.expects[i]
            text += " !ok" if expected is None else f" !fault={expected.value}"
        lines.append(text)
    return "\n".join(lines) + "\n"
