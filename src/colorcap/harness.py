"""Trace interpreter: binds a trace to a scheme on a fresh machine, runs a
scheme-independent lifetime oracle alongside, and collects metrics.

The oracle is a pure map from registers/slots to allocation identities plus
a live set.  It classifies every access and free as temporally legal or
violating without consulting the scheme, which makes escape and
false-positive counts meaningful: an escape is a violating operation the
scheme let through, a false positive is a legal operation it faulted.

run_trace is a pure function of (trace, scheme, config): identical inputs
produce identical metrics and outcome sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .capability import (
    NULL_CAP,
    PERMS_APP,
    UNSEALED,
    Capability,
    CapabilityError,
    MachineConfig,
    UntaggedOperand,
    derive,
)
from .machine import NUM_REGISTERS, FaultKind, TaggedMachine
from .schemes import SCHEME_NAMES, make_scheme
from .trace import (
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
)

class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run tunables; defaults follow the scheme's stock settings
    (21 color bits, 1% revocation threshold, 1/4 quarantine limit)."""

    color_bits: int = 21
    threshold_fraction: float = 0.01
    quarantine_fraction: float = 0.25
    heap_size: int = 1 << 20
    pvt_buffer: bool = True
    sweep_window: Optional[int] = None  # None = sweep to completion at trigger
    versioning_fallback: bool = True

    def validate(self) -> None:
        if not 4 <= self.color_bits <= 24:
            raise ConfigError("color_bits must be in [4, 24]")
        if not 0 < self.threshold_fraction < 1:
            raise ConfigError("threshold_fraction must be in (0, 1)")
        if not 0 < self.quarantine_fraction < 1:
            raise ConfigError("quarantine_fraction must be in (0, 1)")
        if self.heap_size <= 0 or self.heap_size % 16:
            raise ConfigError("heap_size must be a positive multiple of 16")
        if self.sweep_window is not None and self.sweep_window < 1:
            raise ConfigError("sweep window must be >= 1")

    def machine_config(self, slots_needed: int = 0) -> MachineConfig:
        return MachineConfig(
            color_bits=self.color_bits,
            heap_size=self.heap_size,
            scratch_slots=max(slots_needed, 1),
            pvt_buffer_enabled=self.pvt_buffer,
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
    fault_PvtUnmapped: int = 0
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


def _fill_bytes(index: int, width: int) -> bytes:
    """Deterministic write payload counting up mod 256; a pure function of
    op index and width so every scheme writes identical data."""
    start = (index * _FILL_SALT + 0x35) & 0xFF
    if 0 <= width <= 256:
        return _RAMP[start : start + width]
    return (_RAMP[start : start + 256] * (width // 256 + 1))[:width]


class LifetimeOracle:
    """Pure allocation-lifetime tracker, independent of any scheme.

    Bindings encode (allocation id * 2) with bit 0 marking interior-derived
    capabilities; -2 marks the scratch authority; None marks an unbound
    register or slot.
    """

    __slots__ = ("next_id", "live", "regs", "slots", "violations")

    def __init__(self) -> None:
        self.next_id = 0
        self.live: set[int] = set()
        self.regs: list[Optional[int]] = [None] * NUM_REGISTERS
        self.slots: dict[int, Optional[int]] = {}
        self.violations = 0

    def malloc(self, reg: int) -> None:
        ident = self.next_id
        self.next_id = ident + 1
        self.live.add(ident)
        self.regs[reg] = ident * 2

    def free(self, reg: int) -> bool:
        """True iff the free is legal; legal frees update the live set."""
        binding = self.regs[reg]
        if binding is None or binding == _SCRATCH_BINDING or binding & 1:
            self.violations += 1
            return False
        ident = binding >> 1
        if ident not in self.live:
            self.violations += 1
            return False
        self.live.discard(ident)
        return True

    def access(self, reg: int) -> bool:
        binding = self.regs[reg]
        if binding == _SCRATCH_BINDING:
            return True
        if binding is None or (binding >> 1) not in self.live:
            self.violations += 1
            return False
        return True

    def copy(self, dst: int, src: int) -> None:
        self.regs[dst] = self.regs[src]

    def spill(self, reg: int, slot: int) -> None:
        self.slots[slot] = self.regs[reg]

    def overwrite(self, offset: int, width: int) -> None:
        """A data write of `width` bytes at `offset` from the scratch base
        clears the tag, and so the binding, of every slot it overlaps; an
        empty write overlaps none."""
        if width <= 0:
            return
        for slot in range(offset >> 4, (offset + width + 15) >> 4):
            self.slots.pop(slot, None)

    def reload(self, reg: int, slot: int) -> None:
        self.regs[reg] = self.slots.get(slot)

    def derive(self, dst: int, src: int, offset: int) -> None:
        binding = self.regs[src]
        if binding is not None and binding != _SCRATCH_BINDING and offset > 0:
            binding |= 1  # interior: freeing it is malformed
        self.regs[dst] = binding

    def scratch(self, reg: int) -> None:
        self.regs[reg] = _SCRATCH_BINDING


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
    """Replay a trace under one scheme on a fresh machine."""
    if scheme not in SCHEME_NAMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEME_NAMES}")
    config = config if config is not None else RunConfig()
    config.validate()
    machine_config = config.machine_config(trace.slots)
    machine = TaggedMachine(machine_config)
    adapter = make_scheme(
        scheme,
        machine,
        threshold_fraction=config.threshold_fraction,
        quarantine_fraction=config.quarantine_fraction,
        sweep_window=config.sweep_window,
        versioning_fallback=config.versioning_fallback,
    )
    scratch_auth = Capability(
        address=machine_config.scratch_base,
        base=machine_config.scratch_base,
        length=machine_config.scratch_size,
        perms=PERMS_APP,
        otype=UNSEALED,
        tag=True,
    )
    oracle = LifetimeOracle()
    otypeth = machine_config.otypeth
    outcomes: Optional[list] = [] if collect_outcomes else None

    expects = trace.expects
    regs = machine.regs
    fault_hist: dict[FaultKind, int] = {}
    escapes = 0
    false_positives = 0
    mismatches: list = []
    mismatch_count = 0
    digest = 0xCBF29CE484222325  # FNV-1a over read results (good-trace identity)
    index = 0

    load, store, malloc, free = adapter.load, adapter.store, adapter.malloc, adapter.free
    store_cap, load_cap, oracle_regs = machine.store_cap, machine.load_cap, oracle.regs

    for op in trace.ops:
        code = op[0]
        outcome = None
        verdict = None  # the oracle's ruling on an access or free: legal or not
        if code == OP_READ:
            result = load(regs[op[1]], op[2], op[3])
            if type(result) is FaultKind:
                outcome = result
            else:
                for byte in result:
                    digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            verdict = oracle.access(op[1])
        elif code == OP_WRITE:
            cap = regs[op[1]]
            outcome = store(cap, op[2], _fill_bytes(index, op[3]))
            verdict = oracle.access(op[1])
            if oracle_regs[op[1]] == _SCRATCH_BINDING and outcome is None:
                oracle.overwrite(cap.address + op[2] - machine_config.scratch_base, op[3])
        elif code == OP_MALLOC:
            regs[op[1]] = malloc(op[2])
            oracle.malloc(op[1])
        elif code == OP_FREE:
            outcome = free(regs[op[1]])
            verdict = oracle.free(op[1])
        elif code == OP_COPY:
            regs[op[1]] = regs[op[2]]
            oracle.copy(op[1], op[2])
        elif code == OP_SPILL:
            outcome = store_cap(scratch_auth, op[2] * 16, regs[op[1]] or NULL_CAP)
            oracle.spill(op[1], op[2])
        elif code == OP_RELOAD:
            result = load_cap(scratch_auth, op[2] * 16)
            if type(result) is FaultKind:
                outcome = result
                regs[op[1]] = None
            else:
                regs[op[1]] = result
            oracle.reload(op[1], op[2])
        elif code == OP_DERIVE:
            parent = regs[op[2]]
            offset = op[3]
            if parent is None:
                outcome = FaultKind.UNTAGGED_OPERAND
                regs[op[1]] = None
            else:
                try:
                    regs[op[1]] = derive(
                        parent,
                        parent.base + offset,
                        parent.length - offset,
                        parent.perms,
                        otypeth,
                    )
                except UntaggedOperand:
                    outcome = FaultKind.UNTAGGED_OPERAND
                    regs[op[1]] = None
                except CapabilityError:
                    outcome = FaultKind.SPATIAL_OUT_OF_BOUNDS
                    regs[op[1]] = None
            oracle.derive(op[1], op[2], offset)
        elif code == OP_SCRATCH:
            regs[op[1]] = scratch_auth
            oracle.scratch(op[1])
        else:
            raise ConfigError(f"unknown opcode {code}")

        if outcome is not None:
            fault_hist[outcome] = fault_hist.get(outcome, 0) + 1
        if verdict is not None:
            if outcome is None:
                if not verdict:
                    escapes += 1
            # The oracle judges lifetimes, not bounds: a spatial fault on a
            # live allocation is a bug in the trace, not a misfire.
            elif verdict and outcome is not FaultKind.SPATIAL_OUT_OF_BOUNDS:
                false_positives += 1
        if index in expects and outcome != expects[index]:
            mismatch_count += 1
            if len(mismatches) < 25:
                mismatches.append((index, expects[index], outcome))
        if outcomes is not None:
            outcomes.append(outcome)
        index += 1

    buffer = machine.pvt_buffer
    metrics = Metrics(
        scheme=scheme,
        trace=trace.name,
        ops=index,
        allocations=adapter.allocations,
        frees=adapter.frees,
        revocations=adapter.revocations,
        swept_tags=adapter.swept_tags,
        oracle_violations=oracle.violations,
        uaf_escapes=escapes,
        false_positives=false_positives,
        expect_mismatches=mismatch_count,
        faults_total=sum(fault_hist.values()),
        peak_resident_bytes=adapter.peak_resident_bytes,
        peak_live_bytes=adapter.peak_live_bytes,
        peak_quarantine_bytes=adapter.peak_quarantine_bytes,
        peak_unr_bytes=adapter.peak_unr_bytes,
        pvt_bytes=machine_config.pvt_bytes if scheme == "picasso" else 0,
        pvt_lookups=machine.pvt_lookups,
        pvt_hits=buffer.hits if buffer else 0,
        pvt_misses=buffer.misses if buffer else 0,
        pvt_invalidations=buffer.invalidations if buffer else 0,
        data_digest=f"{digest:016x}",
    )
    for kind, count in fault_hist.items():
        setattr(metrics, f"fault_{kind.value}", count)
    return RunResult(metrics=metrics, outcomes=outcomes, mismatches=mismatches)


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
    summary = {
        scheme: {
            "bad_total": 0,
            "bad_detected": 0,
            "uaf_total": 0,
            "uaf_detected": 0,
            "df_total": 0,
            "df_detected": 0,
            "good_total": 0,
            "good_false_positives": 0,
        }
        for scheme in schemes
    }
    for case in cases:
        for scheme in schemes:
            result = run_trace(case.trace, scheme, config)
            cell = classify_case(case.variant, result.metrics)
            rows.append((case.name, case.category, case.variant, scheme, cell))
            tally = summary[scheme]
            if case.variant == "good":
                tally["good_total"] += 1
                if cell == "false-positive":
                    tally["good_false_positives"] += 1
            else:
                tally["bad_total"] += 1
                key = "uaf" if case.category == "UAF" else "df"
                tally[f"{key}_total"] += 1
                if cell == "detected":
                    tally["bad_detected"] += 1
                    tally[f"{key}_detected"] += 1
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
