"""The benchmark's workload matrix: four traces, each replayed under every
scheme, and the seeded random-victim churn generator two of them use.

Every trace is generated from the benchmark's seed and materialised as a
list before any timing, so `run_trace` receives only generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from colorcap import RunConfig, SplitMix64, Trace, gen_churn, gen_locality
from colorcap.trace import OP_FREE, OP_MALLOC, OP_RELOAD, OP_SPILL


def gen_random_churn(
    n_pairs: int, live_set: int, min_size: int, max_size: int, seed: int
) -> Trace:
    """Random-victim churn, materialised.

    A warm-up fills `live_set` spill slots with fresh allocations.  Each
    following pair reloads a uniformly drawn live slot, frees it, mallocs a
    size drawn uniformly from [min_size, max_size], and spills the result
    into the freed slot.  The trace reproduces bit for bit from `seed`.
    """
    if live_set < 1 or n_pairs < 0 or not 0 < min_size <= max_size:
        raise ValueError("need live_set >= 1, n_pairs >= 0, 0 < min_size <= max_size")
    rng = SplitMix64(seed)
    span = max_size - min_size + 1
    ops = []
    append = ops.append
    for slot in range(live_set):
        append((OP_MALLOC, 0, min_size + rng.below(span), 0))
        append((OP_SPILL, 0, slot, 0))
    for _ in range(n_pairs):
        slot = rng.below(live_set)
        append((OP_RELOAD, 1, slot, 0))
        append((OP_FREE, 1, 0, 0))
        append((OP_MALLOC, 0, min_size + rng.below(span), 0))
        append((OP_SPILL, 0, slot, 0))
    name = (
        f"random-churn:n={n_pairs},live={live_set},"
        f"sizes={min_size}-{max_size},seed={seed}"
    )
    return Trace(ops=ops, slots=live_set, name=name)


def materialise(trace: Trace) -> Trace:
    """The same trace with its ops held in a list."""
    return Trace(
        ops=list(trace.ops), expects=dict(trace.expects), slots=trace.slots, name=trace.name
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    build: Callable[[int], Trace]  # seed -> materialised trace
    #: cornucopia-rof sweeps the whole live set on every free, so it replays
    #: only the first `rof_ops` ops (None: the whole trace).
    rof_ops: int | None


# Sizes keep the slowest replay (versioning on the mixed trace) near two
# seconds, so a run holds several replays of every scheme.
FIFO_LIVE, FIFO_PAIRS = 1000, 66_000  # 65k claims at 2^16 colors: one picasso sweep
MIXED_LIVE, MIXED_PAIRS = 8000, 16_000  # free blocks reach ~3k
# One picasso sweep, at 16.4k pairs; the UNR pool is fragmented after it.
FIXED_LIVE, FIXED_PAIRS = 16_000, 30_000
LOCALITY_ROUNDS = 300  # more check_access calls than any churn workload

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "churn-fifo",
            RunConfig(color_bits=16),
            lambda seed: materialise(gen_churn(FIFO_PAIRS, FIFO_LIVE, (32,), seed)),
            2 * FIFO_LIVE + 4 * 300,
        ),
        Workload(
            "churn-random-mixed",
            RunConfig(color_bits=15, heap_size=64 << 20),
            lambda seed: gen_random_churn(MIXED_PAIRS, MIXED_LIVE, 16, 4096, seed),
            # A rof free here costs more the larger the victim: far fewer
            # pairs would let the seed swing its rate, far more would make
            # its sweeps, not heap.alloc, the traced run's largest cost.
            2 * MIXED_LIVE + 4 * 32,
        ),
        Workload(
            "churn-random-fixed",
            RunConfig(color_bits=15, heap_size=4 << 20),
            lambda seed: gen_random_churn(FIXED_PAIRS, FIXED_LIVE, 32, 32, seed),
            2 * FIXED_LIVE + 4 * 20,
        ),
        Workload(
            "locality",
            RunConfig(),
            lambda seed: materialise(gen_locality(29, LOCALITY_ROUNDS, 64, 8)),
            None,
        ),
    )
}


def prefix(trace: Trace, n_ops: int | None) -> Trace:
    """The first `n_ops` ops of a materialised trace (all of them when None)."""
    if n_ops is None or n_ops >= len(trace.ops):
        return trace
    return Trace(ops=trace.ops[:n_ops], slots=trace.slots, name=f"{trace.name}[:{n_ops}]")
