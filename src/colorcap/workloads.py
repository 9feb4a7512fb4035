"""Workload generators: seeded churn traces, a cache-locality trace, and
the hand-built use-after-free / double-free mini-corpus.

All randomness comes from SplitMix64, a fixed 64-bit generator defined by
its update recurrence (documented on the class), so traces reproduce
bit-for-bit across runs and platforms.  The generators yield shared op
tuples from small tables built once per iteration, so a materialised
trace costs one list pointer per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .machine import FaultKind
from .trace import (
    MAX_WIDTH,
    OP_COPY,
    OP_DERIVE,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_RELOAD,
    OP_SCRATCH,
    OP_SPILL,
    OP_WRITE,
    ReplayableOps,
    Trace,
    TraceOp,
)

_M64 = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """Deterministic 64-bit PRNG.

    state' = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state'; z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 mod 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB mod 2**64
    output = z ^ z >> 31
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) via multiply-shift."""
        return (self.next64() * bound) >> 64

    def chance(self, rate: float) -> bool:
        return self.next64() < int(rate * 2**64)


def gen_churn(
    n_pairs: int = 1000,
    live_set: int = 10,
    sizes: Sequence[int] = (32,),
    seed: int = 0,
    spill: bool = True,
    touch_rate: float = 0.0,
    inject: Optional[str] = None,  # "uaf" | "df" | "mixed"
    inject_rate: float = 0.0,
) -> Trace:
    """Steady-state alloc/free workload: a warmup fills the live set, then
    each pair frees the oldest allocation and allocates a replacement.

    With spill=True every live capability rests in a spill slot (so sweeps
    find memory-resident capabilities) and the live set may exceed the
    register file; without it, live_set is capped at 30 registers.  The
    generator writes each allocation before it ever reads it, so good
    churn traces read identical data under every scheme.

    touch_rate adds a write after malloc and a read before free;
    inject/inject_rate add temporal violations (stale reads/writes after
    the free, sometimes after the reallocation, and double frees).  These
    three need spill=True.

    Ops are shared tuples from tables built once per iteration (a malloc
    per size and register, a spill and a reload per slot, a free per
    register), so a materialised trace costs one pointer per op.
    """
    if n_pairs < live_set:
        raise ValueError("n_pairs must be >= live_set")
    if live_set < 1:
        raise ValueError("live_set must be >= 1")
    if not spill and live_set > 30:
        raise ValueError("register-only churn supports a live set up to 30")
    for option, value in (
        ("touch_rate", touch_rate), ("inject", inject), ("inject_rate", inject_rate)
    ):
        if value and not spill:
            raise ValueError(f"register-only churn (spill=False) does not support {option}")
    sizes = tuple(sizes)
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive")

    def ops() -> Iterator[TraceOp]:
        rng = SplitMix64(seed)
        many_sizes = len(sizes) > 1
        if spill:
            # r0 = fresh allocation, r1 = victim being freed.
            mallocs = [(OP_MALLOC, 0, size, 0) for size in sizes]
            spills = [(OP_SPILL, 0, slot, 0) for slot in range(live_set)]
            reloads = [(OP_RELOAD, 1, slot, 0) for slot in range(live_set)]
            free, write0 = (OP_FREE, 1, 0, 0), (OP_WRITE, 0, 0, 8)
            read1, write1 = (OP_READ, 1, 0, 8), (OP_WRITE, 1, 0, 8)
            for i in range(live_set):
                yield mallocs[rng.below(len(sizes)) if many_sizes else 0]
                if touch_rate and rng.chance(touch_rate):
                    yield write0
                yield spills[i]
            for i in range(live_set, n_pairs):
                slot = i % live_set
                yield reloads[slot]
                if touch_rate and rng.chance(touch_rate):
                    yield write1
                    yield read1
                yield free
                late = False
                if inject is not None and rng.chance(inject_rate):
                    kind = inject
                    if kind == "mixed":
                        kind = ("uaf", "df")[rng.below(2)]
                    if kind == "df":
                        yield free
                    elif rng.below(2):
                        yield (read1, write1)[rng.below(2)]
                    else:
                        late = True  # violate after the reallocation
                yield mallocs[rng.below(len(sizes)) if many_sizes else 0]
                if late:
                    yield (read1, write1)[rng.below(2)]
                if touch_rate and rng.chance(touch_rate):
                    yield write0
                yield spills[slot]
        else:
            frees = [(OP_FREE, 2 + r, 0, 0) for r in range(live_set)]
            mallocs_by_reg = [
                [(OP_MALLOC, 2 + r, size, 0) for size in sizes] for r in range(live_set)
            ]
            for i in range(n_pairs):
                r = i % live_set
                if i >= live_set:
                    yield frees[r]
                yield mallocs_by_reg[r][rng.below(len(sizes)) if many_sizes else 0]

    name = f"churn:n={n_pairs},live={live_set},seed={seed}"
    return Trace(
        ops=ReplayableOps(ops),
        slots=live_set if spill else 0,
        name=name,
    )


def gen_locality(
    n_allocs: int = 29,
    rounds: int = 40,
    size: int = 64,
    width: int = 8,
) -> Trace:
    """Compress/decompress-shaped trace: a small working set of allocations
    repeatedly written and read end to end.  All colors land in a handful
    of 128-bit table words, so nearly every provenance lookup after the
    first should hit the buffer.  One round's ops are built once per
    iteration and every round yields those shared tuples, so a materialised
    trace costs one pointer per op."""
    if not 1 <= n_allocs <= 30:
        raise ValueError("n_allocs must be in [1, 30]")
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_WIDTH}]")
    if size < width:
        raise ValueError("size must be >= width")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def ops() -> Iterator[TraceOp]:
        for reg in range(n_allocs):
            yield (OP_MALLOC, reg, size, 0)
        offsets = range(0, size - width + 1, width)
        round_ops = [
            (code, reg, off, width)
            for reg in range(n_allocs)
            for code in (OP_WRITE, OP_READ)
            for off in offsets
        ]
        for _ in range(rounds):
            yield from round_ops
        for reg in range(n_allocs):
            yield (OP_FREE, reg, 0, 0)

    name = f"locality:allocs={n_allocs},rounds={rounds}"
    return Trace(ops=ReplayableOps(ops), slots=0, name=name)


# -- mini-corpus -----------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    name: str
    category: str  # "UAF" | "DF"
    variant: str  # "good" | "bad"
    #: A bad variant's `expects` holds one entry: the offending op's index
    #: and the fault the colored-capability scheme must raise there.
    trace: Trace


def _pair(
    name: str,
    category: str,
    good_ops: list[TraceOp],
    bad_ops: list[TraceOp],
    expected: FaultKind,
    offending: int,
    slots: int = 0,
) -> list[CorpusCase]:
    good = Trace(ops=good_ops, slots=slots, name=f"{name}:good")
    bad = Trace(
        ops=bad_ops,
        expects={offending: expected},
        slots=slots,
        name=f"{name}:bad",
    )
    return [CorpusCase(name, category, "good", good), CorpusCase(name, category, "bad", bad)]


def gen_corpus() -> list[CorpusCase]:
    """Hand-built good/bad pairs covering UAF reads and writes (direct, via
    register copies, via spilled capabilities, after reallocation) and DF
    (direct, via copies, interior frees, frees of non-heap capabilities).

    Each bad variant extends its good twin with the offending operation(s)
    only.  These are behavioral analogues of the classic heap temporal
    defect patterns, not compiled test programs.
    """
    sizes = (16, 32, 64, 128)
    cases: list[CorpusCase] = []

    for size in sizes:
        # UAF read through the original register.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_WRITE, 0, 0, 8),
            (OP_READ, 0, 0, 8),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good + [(OP_READ, 0, 0, 8)]
        cases += _pair(
            f"uaf-read-direct-{size}", "UAF", good, bad,
            FaultKind.PROVENANCE_RETRACTED, len(bad) - 1,
        )

        # UAF write through the original register.
        bad = good + [(OP_WRITE, 0, 0, 8)]
        cases += _pair(
            f"uaf-write-direct-{size}", "UAF", good, bad,
            FaultKind.PROVENANCE_RETRACTED, len(bad) - 1,
        )

        # UAF through a copy that survived in another register.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_COPY, 1, 0, 0),
            (OP_WRITE, 1, 0, 8),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good + [(OP_READ, 1, 0, 8)]
        cases += _pair(
            f"uaf-copy-{size}", "UAF", good, bad,
            FaultKind.PROVENANCE_RETRACTED, len(bad) - 1,
        )

        # UAF through a stale capability reloaded from memory.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_SPILL, 0, 0, 0),
            (OP_WRITE, 0, 0, 8),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good + [(OP_RELOAD, 1, 0, 0), (OP_READ, 1, 0, 8)]
        cases += _pair(
            f"uaf-spilled-{size}", "UAF", good, bad,
            FaultKind.PROVENANCE_RETRACTED, len(bad) - 1, slots=1,
        )

        # Use after reallocation: the address is reused before the access.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_WRITE, 0, 0, 8),
            (OP_FREE, 0, 0, 0),
            (OP_MALLOC, 1, size, 0),
            (OP_WRITE, 1, 0, 8),
            (OP_FREE, 1, 0, 0),
        ]
        bad = good[:4] + [(OP_READ, 0, 0, 8)] + good[4:]
        cases += _pair(
            f"uar-read-{size}", "UAF", good, bad,
            FaultKind.PROVENANCE_RETRACTED, 4,
        )

        # Stale free after reallocation frees the new owner's block.
        bad = good[:4] + [(OP_FREE, 0, 0, 0)] + good[4:]
        cases += _pair(
            f"uar-free-stale-{size}", "UAF", good, bad,
            FaultKind.DOUBLE_FREE, 4,
        )

        # Plain double free.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_WRITE, 0, 0, 8),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good + [(OP_FREE, 0, 0, 0)]
        cases += _pair(
            f"df-direct-{size}", "DF", good, bad,
            FaultKind.DOUBLE_FREE, len(bad) - 1,
        )

        # Double free through a copy.
        good = [
            (OP_MALLOC, 0, size, 0),
            (OP_COPY, 1, 0, 0),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good + [(OP_FREE, 1, 0, 0)]
        cases += _pair(
            f"df-copy-{size}", "DF", good, bad,
            FaultKind.DOUBLE_FREE, len(bad) - 1,
        )

    for offset in (16, 32, 48, 64):
        # Freeing an interior capability is malformed input to free().
        good = [
            (OP_MALLOC, 0, 128, 0),
            (OP_DERIVE, 1, 0, offset),
            (OP_READ, 1, 0, 8),
            (OP_FREE, 0, 0, 0),
        ]
        bad = good[:3] + [(OP_FREE, 1, 0, 0)] + good[3:]
        cases += _pair(
            f"free-interior-{offset}", "DF", good, bad,
            FaultKind.MALFORMED_FREE, 3,
        )

    for variant, extra in (
        ("plain", []),
        ("copy", [(OP_COPY, 1, 0, 0)]),
        ("derived", [(OP_DERIVE, 1, 0, 16)]),
        ("reloaded", [(OP_SPILL, 0, 0, 0), (OP_RELOAD, 1, 0, 0)]),
    ):
        # Freeing a capability that never came from the allocator.
        good = [(OP_SCRATCH, 0, 0, 0)] + extra + [(OP_READ, 0, 0, 8)]
        reg = 0 if variant == "plain" else 1
        bad = good + [(OP_FREE, reg, 0, 0)]
        cases += _pair(
            f"free-uncolored-{variant}", "DF", good, bad,
            FaultKind.MALFORMED_FREE, len(bad) - 1,
            slots=1 if variant == "reloaded" else 0,
        )

    return cases
