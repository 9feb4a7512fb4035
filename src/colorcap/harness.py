"""Trace interpreter: binds a trace to a scheme on a fresh machine, rules
on every op with a scheme-independent lifetime oracle, and collects
metrics.

The oracle is state in the replay loop: a binding per register and per
spill slot (allocation id * 2, bit 0 set for an interior capability, or
the scratch binding) plus the set of live ids.  A faulting derive or
reload leaves NULL_CAP in its register and unbinds it, as an empty
register is.  The oracle rules every access and free temporally legal or
violating without consulting the scheme, which makes escape and
false-positive counts meaningful: an escape is a violating operation the
scheme let through, a false positive is a legal operation it faulted.  A
fault is recorded once, by op index; the fault histogram, the expectation
mismatches and the per-op outcomes are built from that record after the
loop.

run_trace is a pure function of (trace, scheme, config): identical inputs
produce identical metrics and outcome sequences.  Its data digest is FNV-1a
over the bytes read: as h ^ b == h + ((l ^ b) - l) for l = h & 0xFF, and the
next low byte depends on l and b alone, FNV(h, data) is h * P**n + S(l, data)
mod 2**64.  A run memoises (P**n, S) by (l, data), up to `_STEP_MEMO_CAP` keys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Optional

from .capability import (
    NULL_CAP,
    PERMS_APP,
    UNSEALED,
    Capability,
    ConfigError,
    RunConfig,
    derive,
)
from .machine import NUM_REGISTERS, FaultKind, TaggedMachine
from .schemes import make_scheme
from .trace import (
    MAX_SLOTS,
    OP_COPY,
    OP_DERIVE,
    OP_FREE,
    OP_MALLOC,
    OP_READ,
    OP_RELOAD,
    OP_SCRATCH,
    OP_SPILL,
    OP_WRITE,
    Trace,
    op_problem,
)


@dataclass
class Metrics:
    """Flat, stable-schema counters harvested from one run."""

    scheme: str = ""
    trace: str = ""
    ops: int = 0
    allocations: int = 0
    frees: int = 0
    revocations: int = 0
    swept_tags: int = 0
    oracle_violations: int = 0
    uaf_escapes: int = 0
    false_positives: int = 0
    expect_mismatches: int = 0
    faults_total: int = 0
    fault_SpatialOutOfBounds: int = 0
    fault_UntaggedOperand: int = 0
    fault_PermissionDenied: int = 0
    fault_ProvenanceRetracted: int = 0
    fault_SealedDereference: int = 0
    fault_MalformedFree: int = 0
    fault_DoubleFree: int = 0
    fault_PvtUnmapped: int = 0  # no fault has this kind; kept for the schema
    peak_resident_bytes: int = 0
    peak_live_bytes: int = 0
    peak_quarantine_bytes: int = 0
    peak_unr_bytes: int = 0
    pvt_bytes: int = 0
    pvt_lookups: int = 0
    pvt_hits: int = 0
    pvt_misses: int = 0
    pvt_invalidations: int = 0
    data_digest: str = ""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


METRIC_FIELDS = tuple(f.name for f in fields(Metrics))

_SCRATCH_BINDING = -2
_FILL_SALT = 0x9E
_RAMP = bytes(range(256)) * 2  # any 256 consecutive byte values are one slice
_STEP_MEMO_CAP = 4096  # digest steps a run memoises, each for a read of at most 16 bytes


def _fnv_step(low: int, data: bytes) -> tuple[int, int]:
    """(mult, add): FNV-1a over `data` from any h with h & 0xFF == low is h * mult + add."""
    h = low
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    mult = pow(0x100000001B3, len(data), 1 << 64)
    return mult, (h - low * mult) & 0xFFFFFFFFFFFFFFFF


def _fill_bytes(index: int, width: int, cap: Capability) -> bytes:
    """Deterministic write payload counting up mod 256; a pure function of
    op index and width so every scheme writes identical data.

    A write wider than its capability's length fails the bounds check at
    any width, and every check before that one ignores the width.  So past
    256 bytes at most `cap.length + 1` bytes are built, one for an empty
    register's NULL_CAP, whose write faults UNTAGGED_OPERAND before it touches
    memory: the write faults exactly as it would with the full payload.
    A negative width builds `cap.length + 1` bytes too, so the write fails
    the bounds check as a read of that width does.
    """
    start = (index * _FILL_SALT + 0x35) & 0xFF
    if 0 <= width <= 256:
        return _RAMP[start : start + width]
    if not 0 <= width <= cap.length:
        width = cap.length + 1
    return (_RAMP[start : start + 256] * (width // 256 + 1))[:width]


@dataclass
class RunResult:
    metrics: Metrics
    #: Per-op fault kinds (None = ok); None unless collect_outcomes is set.
    outcomes: Optional[list[Optional[FaultKind]]]
    #: (op index, expected, actual) triples, capped at 25 entries.
    mismatches: list[tuple[int, Optional[FaultKind], Optional[FaultKind]]]


def run_trace(
    trace: Trace,
    scheme: str,
    config: Optional[RunConfig] = None,
    collect_outcomes: bool = False,
) -> RunResult:
    """Replay a trace under one scheme on a fresh machine, which validates
    `config`."""
    if trace.slots > MAX_SLOTS:
        raise ConfigError(f"trace has {trace.slots} spill slots, more than {MAX_SLOTS}")
    config = config if config is not None else RunConfig()
    machine = TaggedMachine(config)
    adapter = make_scheme(scheme, machine)
    scratch_base = config.scratch_base
    scratch_auth = Capability(
        scratch_base, scratch_base, 16 * max(trace.slots, 1), PERMS_APP, UNSEALED, True
    )
    otypeth = config.color_count
    regs = machine.regs
    load, store, malloc, free = adapter.load, adapter.store, adapter.malloc, adapter.free
    store_cap, load_cap = machine.store_cap, machine.load_cap

    # The lifetime oracle: a binding per register and per spill slot (None
    # when unbound), and the set of live allocation ids.
    next_id = 0
    live: set[int] = set()
    bound: list[Optional[int]] = [None] * NUM_REGISTERS
    slots: dict[int, Optional[int]] = {}
    violations = escapes = false_positives = 0
    faults: dict[int, FaultKind] = {}  # op index -> fault, for faulting ops only
    digest = 0xCBF29CE484222325  # FNV-1a over read results (good-trace identity)
    steps: dict[tuple[int, bytes], tuple[int, int]] = {}  # (low byte, read) -> _fnv_step
    index = -1

    try:
        for index, op in enumerate(trace.ops):
            code, a, b, c = op
            # READ, WRITE and FREE end in the verdict tail below, with `legal`
            # the oracle's ruling and `outcome` the scheme's; every other op
            # records its own fault and continues.
            if code == OP_READ:
                outcome = load(regs[a], b, c)
                if type(outcome) is not FaultKind:
                    step = steps.get(key := (digest & 0xFF, outcome))
                    if step is None:
                        step = _fnv_step(*key)
                        if len(outcome) <= 16 and len(steps) < _STEP_MEMO_CAP:
                            steps[key] = step
                    digest = (digest * step[0] + step[1]) & 0xFFFFFFFFFFFFFFFF
                    outcome = None
                binding = bound[a]
                legal = binding is not None and (
                    binding >> 1 in live or binding == _SCRATCH_BINDING
                )
            elif code == OP_WRITE:
                cap = regs[a]
                outcome = store(cap, b, _fill_bytes(index, c, cap))
                binding = bound[a]
                if binding == _SCRATCH_BINDING:
                    legal = True
                    if outcome is None and c > 0:
                        # The write clears the tag, and so the binding, of
                        # every spill slot it overlaps.
                        offset = cap.address + b - scratch_base
                        for slot in range(offset >> 4, (offset + c + 15) >> 4):
                            slots.pop(slot, None)
                else:
                    legal = binding is not None and binding >> 1 in live
            elif code == OP_MALLOC:
                regs[a] = malloc(b)
                live.add(next_id)
                bound[a] = next_id * 2
                next_id += 1
                continue
            elif code == OP_FREE:
                outcome = free(regs[a])
                binding = bound[a]
                # Only a live allocation's own capability, not an interior
                # one (bit 0) nor scratch, frees it.
                legal = (
                    binding not in (None, _SCRATCH_BINDING)
                    and not binding & 1
                    and binding >> 1 in live
                )
                if legal:
                    live.discard(binding >> 1)
            elif code == OP_SPILL:
                outcome = store_cap(scratch_auth, b * 16, regs[a])
                if outcome is not None:  # nothing stored: the slot keeps its binding
                    faults[index] = outcome
                    continue
                slots[b] = bound[a]
                continue
            elif code == OP_RELOAD:
                result = load_cap(scratch_auth, b * 16)
                if type(result) is FaultKind:
                    faults[index] = result
                    regs[a], bound[a] = NULL_CAP, None
                else:
                    regs[a], bound[a] = result, slots.get(b)
                continue
            elif code == OP_COPY:
                regs[a] = regs[b]
                bound[a] = bound[b]
                continue
            elif code == OP_DERIVE:
                result = derive(regs[b], c, otypeth)
                if type(result) is FaultKind:
                    faults[index] = result
                    regs[a], bound[a] = NULL_CAP, None
                    continue
                binding = bound[b]
                if binding is not None and binding != _SCRATCH_BINDING and c > 0:
                    binding |= 1  # interior: freeing it is malformed
                regs[a], bound[a] = result, binding
                continue
            elif code == OP_SCRATCH:
                regs[a] = scratch_auth
                bound[a] = _SCRATCH_BINDING
                continue
            else:
                raise ConfigError(f"op {index}: {op_problem(op)}")

            if not legal:
                violations += 1
                if outcome is None:
                    escapes += 1
            if outcome is not None:
                faults[index] = outcome
                # The oracle judges lifetimes, not bounds: a spatial fault on a
                # live allocation is a bug in the trace, not a misfire.
                if legal and outcome is not FaultKind.SPATIAL_OUT_OF_BOUNDS:
                    false_positives += 1
    except (IndexError, TypeError, ValueError):
        # Checked only on failure, so the loop pays nothing per op; a
        # well-formed op's failure propagates.
        problem = index >= 0 and op_problem(op)
        if not problem:
            raise
        raise ConfigError(f"op {index}: {problem}") from None

    ops = index + 1
    mismatches = [
        (i, expected, faults.get(i))
        for i, expected in sorted(trace.expects.items())
        if 0 <= i < ops and faults.get(i) != expected
    ]
    buffer = machine.pvt_buffer
    metrics = Metrics(
        scheme=scheme,
        trace=trace.name,
        ops=ops,
        allocations=adapter.allocations,
        frees=adapter.frees,
        revocations=adapter.revocations,
        swept_tags=adapter.swept_tags,
        oracle_violations=violations,
        uaf_escapes=escapes,
        false_positives=false_positives,
        expect_mismatches=len(mismatches),
        faults_total=len(faults),
        peak_resident_bytes=adapter.peak_resident_bytes,
        peak_live_bytes=adapter.peak_live_bytes,
        peak_quarantine_bytes=adapter.peak_quarantine_bytes,
        peak_unr_bytes=adapter.peak_unr_bytes,
        pvt_bytes=adapter.pvt_bytes,
        pvt_lookups=buffer.hits + buffer.misses,  # one hit or miss per lookup
        pvt_hits=buffer.hits,
        pvt_misses=buffer.misses,
        pvt_invalidations=buffer.invalidations,
        data_digest=f"{digest:016x}",
    )
    for kind, count in Counter(faults.values()).items():
        setattr(metrics, f"fault_{kind.value}", count)
    outcomes = list(map(faults.get, range(ops))) if collect_outcomes else None
    return RunResult(metrics=metrics, outcomes=outcomes, mismatches=mismatches[:25])


# -- corpus evaluation --------------------------------------------------


def classify_case(variant: str, metrics: Metrics) -> str:
    """Detection-matrix cell for one (case, scheme) run.

    Good cases are `clean` unless any fault fired (`false-positive`); bad
    cases are `detected` when every oracle violation faulted, else
    `escaped`.
    """
    if variant == "good":
        return "clean" if metrics.faults_total == 0 else "false-positive"
    if metrics.oracle_violations > 0 and metrics.uaf_escapes == 0:
        return "detected"
    return "escaped"


def run_corpus(cases, schemes, config: Optional[RunConfig] = None):
    """Run every corpus case under every scheme.

    Returns (rows, summary): rows are (case, category, variant, scheme,
    result) sorted by case then scheme; summary maps scheme ->
    {bad_total, bad_detected, uaf_total, uaf_detected, df_total,
    df_detected, good_total, good_false_positives}.
    """
    rows = []
    summary = {scheme: Counter() for scheme in schemes}
    for case in cases:
        for scheme in schemes:
            result = run_trace(case.trace, scheme, config)
            cell = classify_case(case.variant, result.metrics)
            rows.append((case.name, case.category, case.variant, scheme, cell))
            if case.variant == "good":
                summary[scheme].update(
                    good_total=1, good_false_positives=cell == "false-positive"
                )
            else:
                key, detected = case.category.lower(), cell == "detected"
                summary[scheme].update({
                    "bad_total": 1, f"{key}_total": 1,
                    "bad_detected": detected, f"{key}_detected": detected,
                })
    rows.sort(key=lambda row: (row[0], row[3]))
    return rows, summary


def corpus_gate(summary) -> bool:
    """Pass iff the picasso row detects every bad case with no false
    positives on good cases."""
    tally = summary.get("picasso")
    if tally is None:
        return False
    return (
        tally["bad_detected"] == tally["bad_total"]
        and tally["bad_total"] > 0
        and tally["good_false_positives"] == 0
    )
