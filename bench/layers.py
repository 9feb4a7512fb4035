"""Per-layer metrics of the traced run.

Each simulator layer is a colorcap module; the spans below wrap its public
methods at class level for one replay.  `capability.derive` and `set_color`
are imported by name into their callers, so their time counts in the
callers' self time.  Which end-to-end metric each layer should move, and on
which workload, is tabled in bench/README.md.
"""

from __future__ import annotations

from collections import defaultdict

from colorcap.harness import run_trace
from colorcap.heap import FreeListHeap
from colorcap.machine import NUM_REGISTERS, TaggedMachine
from colorcap.mrs import MallocRevocationShim
from colorcap.schemes import CornucopiaScheme, NoneScheme, PicassoScheme, VersioningScheme
from colorcap.unr import UnrState
from spans import Tracer


def _free_blocks(counters, heap, size):
    counters["heap.free_blocks"] += len(heap.free_blocks)


def _unr_nodes(counters, unr):
    counters["unr.nodes"] += len(unr.nodes)


def _revoke_words(counters, scheme):
    counters["schemes.revoke.words"] += len(scheme.machine.caps) + NUM_REGISTERS


def _sweep_words(counters, machine, colors, addresses=None, include_registers=True):
    words = len(machine.caps) if addresses is None else len(addresses)
    counters["machine.sweep_scan.words"] += words + (NUM_REGISTERS if include_registers else 0)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced method; `tracer.restore()` undoes it."""
    wrap = tracer.wrap
    wrap(FreeListHeap, "alloc", "heap.alloc", _free_blocks)
    wrap(FreeListHeap, "free", "heap.free")
    wrap(UnrState, "alloc_first_free", "unr.alloc_first_free")
    wrap(UnrState, "batch_release", "unr.batch_release")
    wrap(UnrState, "node_memory", "unr.node_memory", _unr_nodes)
    wrap(MallocRevocationShim, "m_malloc", "mrs.m_malloc")
    wrap(MallocRevocationShim, "m_free", "mrs.m_free")
    wrap(MallocRevocationShim, "revocation_step", "mrs.revocation")
    wrap(MallocRevocationShim, "revocation_finalize", "mrs.revocation")
    for scheme in (PicassoScheme, CornucopiaScheme, VersioningScheme, NoneScheme):
        wrap(scheme, "malloc", "schemes.malloc")
        wrap(scheme, "free", "schemes.free")
        wrap(scheme, "load", "schemes.access")
        wrap(scheme, "store", "schemes.access")
    for scheme in (CornucopiaScheme, VersioningScheme):
        wrap(scheme, "revoke", "schemes.revoke", _revoke_words)
    wrap(TaggedMachine, "check_access", "machine.check_access")
    wrap(TaggedMachine, "read_bytes", "machine.rw_bytes")
    wrap(TaggedMachine, "write_bytes", "machine.rw_bytes")
    wrap(TaggedMachine, "store_cap", "machine.store_cap")
    wrap(TaggedMachine, "load_cap", "machine.load_cap")
    wrap(TaggedMachine, "pvt_set", "machine.pvt_set")
    wrap(TaggedMachine, "pvt_set_many", "machine.pvt_set")
    wrap(TaggedMachine, "sweep_scan", "machine.sweep_scan", _sweep_words)


def round_totals(replayer):
    """Replay every scheme once plainly and once traced; returns the traced
    spans and counters summed over the schemes, or None if a replay failed."""
    totals = {
        "spans": defaultdict(lambda: [0, 0.0]),  # name -> [calls, self seconds]
        "counters": defaultdict(float),
        "plain_s": 0.0,
        "traced_s": 0.0,
    }
    counters = totals["counters"]
    for scheme in replayer.traces:
        plain = replayer.replay(scheme)
        with Tracer() as tracer:
            instrument(tracer)
            traced = replayer.replay(
                scheme, run=lambda *args: tracer.call("harness", run_trace, *args)
            )
        if plain is None or traced is None:
            return None
        for name, (calls, _, self_s) in tracer.fold().items():
            row = totals["spans"][name]
            row[0] += calls
            row[1] += self_s
        for name, value in tracer.counters.items():
            counters[name] += value
        metrics = traced[1]
        counters["pvt_hits"] += metrics.pvt_hits
        counters["pvt_lookups"] += metrics.pvt_lookups
        counters["pvt_invalidations"] += metrics.pvt_invalidations
        totals["plain_s"] += plain[0]
        totals["traced_s"] += traced[0]
    return totals


#: Span metrics: (metric, span name, 0 for calls or 1 for self seconds).
SPAN_METRICS = (
    ("harness.self_s", "harness", 1),
    ("heap.alloc.calls", "heap.alloc", 0),
    ("heap.alloc.self_s", "heap.alloc", 1),
    ("heap.free.self_s", "heap.free", 1),
    ("unr.alloc_first_free.self_s", "unr.alloc_first_free", 1),
    ("unr.batch_release.self_s", "unr.batch_release", 1),
    ("unr.node_memory.calls", "unr.node_memory", 0),
    ("unr.node_memory.self_s", "unr.node_memory", 1),
    ("mrs.m_malloc.self_s", "mrs.m_malloc", 1),
    ("mrs.m_free.self_s", "mrs.m_free", 1),
    ("mrs.revocation.calls", "mrs.revocation", 0),
    ("mrs.revocation.self_s", "mrs.revocation", 1),
    ("schemes.malloc.self_s", "schemes.malloc", 1),
    ("schemes.free.self_s", "schemes.free", 1),
    ("schemes.access.self_s", "schemes.access", 1),
    ("schemes.revoke.calls", "schemes.revoke", 0),
    ("schemes.revoke.self_s", "schemes.revoke", 1),
    ("machine.check_access.calls", "machine.check_access", 0),
    ("machine.check_access.self_s", "machine.check_access", 1),
    ("machine.rw_bytes.self_s", "machine.rw_bytes", 1),
    ("machine.store_cap.calls", "machine.store_cap", 0),
    ("machine.store_cap.self_s", "machine.store_cap", 1),
    ("machine.load_cap.self_s", "machine.load_cap", 1),
    ("machine.pvt_set.calls", "machine.pvt_set", 0),
    ("machine.pvt_set.self_s", "machine.pvt_set", 1),
    ("machine.sweep_scan.self_s", "machine.sweep_scan", 1),
)


def layer_metrics(totals, gen_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit), from one round's totals."""
    spans, counters = totals["spans"], totals["counters"]

    def per_call(counter: str, span: str) -> float:
        calls = spans[span][0]
        return counters[counter] / calls if calls else 0.0

    out = {}
    for metric, span, field in SPAN_METRICS:
        out[metric] = (spans[span][field], "s" if field else "count")
    out["heap.free_blocks.mean"] = (per_call("heap.free_blocks", "heap.alloc"), "count")
    out["unr.nodes.mean"] = (per_call("unr.nodes", "unr.node_memory"), "count")
    out["schemes.revoke.words"] = (counters["schemes.revoke.words"], "count")
    lookups = counters["pvt_lookups"]
    out["machine.pvt_hit_ratio"] = (counters["pvt_hits"] / lookups if lookups else 0.0, "ratio")
    out["machine.pvt_invalidations"] = (counters["pvt_invalidations"], "count")
    out["machine.sweep_scan.words"] = (counters["machine.sweep_scan.words"], "count")
    out["workloads.gen_s"] = (gen_s, "s")
    out["tracing.overhead"] = (totals["traced_s"] / totals["plain_s"], "ratio")
    return out
