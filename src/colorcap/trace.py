"""Replayable operation traces.

Text format: one operation per line, `#` starts a comment, blank lines are
skipped.  Registers are r0..r31; slots index the capability spill region
set up at trace start.

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
"""

from __future__ import annotations

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

_OP_NAMES: Final = (
    "malloc",
    "free",
    "read",
    "write",
    "copy",
    "spill",
    "reload",
    "derive",
    "scratch",
)

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
    without materializing it.  A stream of unknown length (None) has no
    len(), which makes the harness stream it."""

    __slots__ = ("_factory", "_length")

    def __init__(self, factory: Callable[[], Iterator[TraceOp]], length: Optional[int]) -> None:
        self._factory = factory
        self._length = length

    def __iter__(self) -> Iterator[TraceOp]:
        return self._factory()

    def __len__(self) -> int:
        if self._length is None:
            raise TypeError("operation stream of unknown length")
        return self._length


@dataclass
class Trace:
    ops: Iterable[TraceOp]
    #: op index -> expected outcome; None demands ok, a FaultKind demands
    #: that fault.  Absence means unconstrained.
    expects: dict[int, Optional[FaultKind]] = field(default_factory=dict)
    slots: int = 0
    name: str = ""

    @property
    def n_ops(self) -> Optional[int]:
        try:
            return len(self.ops)  # type: ignore[arg-type]
        except TypeError:
            return None


_FAULT_BY_NAME: Final = {kind.value: kind for kind in FaultKind}


def _parse_reg(token: str, line: int, col: int) -> int:
    if not token.startswith("r") or not token[1:].isdigit():
        raise ParseError(line, col, f"expected a register, got {token!r}")
    reg = int(token[1:])
    if reg >= NUM_REGISTERS:
        raise ParseError(line, col, f"register r{reg} out of range (0..{NUM_REGISTERS - 1})")
    return reg


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    try:
        value = int(token, 0)
    except ValueError:
        raise ParseError(line, col, f"expected {what}, got {token!r}") from None
    if value < 0:
        raise ParseError(line, col, f"{what} must be non-negative")
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
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue

        def col(tok: str) -> int:
            return raw.find(tok) + 1

        head = tokens[0]
        if head.startswith("!"):
            if not ops:
                raise ParseError(lineno, col(head), "expectation before any op")
            if len(tokens) > 1:
                raise ParseError(lineno, col(tokens[1]), "trailing tokens after expectation")
            expects[len(ops) - 1] = _parse_expect(head, lineno, col(head))
            continue

        expect_token: Optional[str] = None
        if tokens and tokens[-1].startswith("!"):
            expect_token = tokens[-1]
            tokens = tokens[:-1]
            head = tokens[0]

        args = tokens[1:]

        def need(n: int) -> None:
            if len(args) != n:
                raise ParseError(
                    lineno, col(head), f"{head} takes {n} argument(s), got {len(args)}"
                )

        if head == "malloc":
            need(2)
            reg = _parse_reg(args[0], lineno, col(args[0]))
            size = _parse_int(args[1], lineno, col(args[1]), "a size")
            ops.append((OP_MALLOC, reg, size, 0))
        elif head == "free":
            need(1)
            ops.append((OP_FREE, _parse_reg(args[0], lineno, col(args[0])), 0, 0))
        elif head in ("read", "write"):
            need(3)
            reg = _parse_reg(args[0], lineno, col(args[0]))
            off = _parse_int(args[1], lineno, col(args[1]), "an offset")
            width = _parse_int(args[2], lineno, col(args[2]), "a width")
            ops.append((OP_READ if head == "read" else OP_WRITE, reg, off, width))
        elif head == "copy":
            need(2)
            dst = _parse_reg(args[0], lineno, col(args[0]))
            src = _parse_reg(args[1], lineno, col(args[1]))
            ops.append((OP_COPY, dst, src, 0))
        elif head in ("spill", "reload"):
            need(2)
            reg = _parse_reg(args[0], lineno, col(args[0]))
            slot = _parse_int(args[1], lineno, col(args[1]), "a slot index")
            max_slot = max(max_slot, slot)
            ops.append((OP_SPILL if head == "spill" else OP_RELOAD, reg, slot, 0))
        elif head == "derive":
            need(3)
            dst = _parse_reg(args[0], lineno, col(args[0]))
            src = _parse_reg(args[1], lineno, col(args[1]))
            off = _parse_int(args[2], lineno, col(args[2]), "an offset")
            ops.append((OP_DERIVE, dst, src, off))
        elif head == "scratch":
            need(1)
            ops.append((OP_SCRATCH, _parse_reg(args[0], lineno, col(args[0])), 0, 0))
        else:
            raise ParseError(lineno, col(head), f"unknown op {head!r}")

        if expect_token is not None:
            expects[len(ops) - 1] = _parse_expect(expect_token, lineno, col(expect_token))

    return Trace(ops=ops, expects=expects, slots=max_slot + 1, name=name)


def format_op(op: TraceOp) -> str:
    code, a, b, c = op
    head = _OP_NAMES[code]
    if code == OP_MALLOC:
        return f"malloc r{a} {b}"
    if code in (OP_FREE, OP_SCRATCH):
        return f"{head} r{a}"
    if code in (OP_READ, OP_WRITE):
        return f"{head} r{a} {b} {c}"
    if code == OP_COPY:
        return f"copy r{a} r{b}"
    if code in (OP_SPILL, OP_RELOAD):
        return f"{head} r{a} {b}"
    return f"derive r{a} r{b} {c}"


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
