"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Criterion 2 runs a pool-scaled variant by default; set
COLORCAP_DESK=1 for the full-size run."""

import os
import sys
from pathlib import Path

import pytest

from colorcap.harness import RunConfig, run_corpus, run_trace
from colorcap.trace import OP_COPY, OP_FREE, OP_MALLOC, OP_READ, Trace
from colorcap.unr import UnrState
from colorcap.workloads import SplitMix64, gen_churn, gen_corpus, gen_locality
from helpers import claimed_ids, oracle_min_free, release_passes, runs_of, unbuffered

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

# Picasso's revocation count on FIFO churn, from counter arithmetic alone:
# the bench checks its replays against the same oracle.
from run import predicted_revocations  # noqa: E402


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


# -- criterion 1: corpus detection ----------------------------------------


def test_criterion_1_corpus_detection():
    cases = gen_corpus()
    assert len({c.name for c in cases}) >= 40
    _, summary = run_corpus(cases, ["picasso", "cornucopia", "cornucopia-rof"])
    pic = summary["picasso"]
    corn = summary["cornucopia"]
    rof = summary["cornucopia-rof"]
    ok = (
        pic["bad_detected"] == pic["bad_total"]
        and pic["good_false_positives"] == 0
        and corn["df_detected"] == corn["df_total"]
        and corn["uaf_detected"] < corn["uaf_total"]
        and rof["bad_detected"] == rof["bad_total"]
    )
    _report(
        1,
        f"picasso {pic['bad_detected']}/{pic['bad_total']} bad, "
        f"{pic['good_false_positives']} FP; cornucopia DF "
        f"{corn['df_detected']}/{corn['df_total']}, UAF "
        f"{corn['uaf_detected']}/{corn['uaf_total']}; rof "
        f"{rof['bad_detected']}/{rof['bad_total']}",
        ok,
    )


# -- criterion 2: revocation frequency -------------------------------------


def _churn_revocations(n_pairs, live, color_bits, scheme):
    trace = gen_churn(n_pairs, live, (32,), seed=1)
    config = RunConfig(color_bits=color_bits)
    return run_trace(trace, scheme, config).metrics


def test_criterion_2_revocation_frequency_scaled():
    n_pairs, live, color_bits = 200_000, 1000, 16
    pool = (1 << color_bits) - 1
    predicted = predicted_revocations(n_pairs, live, pool, 0.01)
    pic = _churn_revocations(n_pairs, live, color_bits, "picasso")
    corn = _churn_revocations(n_pairs, live, color_bits, "cornucopia")
    ok = (
        pic.revocations == predicted
        and pic.uaf_escapes == 0
        and corn.revocations >= 100 * pic.revocations
    )
    _report(
        2,
        f"scaled pool 2^{color_bits}-1: picasso {pic.revocations} revocations "
        f"(oracle {predicted}), cornucopia {corn.revocations} "
        f"({corn.revocations / max(pic.revocations, 1):.0f}x)",
        ok,
    )


@pytest.mark.desk
@pytest.mark.skipif(
    not os.environ.get("COLORCAP_DESK"),
    reason="desk-scale run: set COLORCAP_DESK=1 (about three minutes)",
)
def test_criterion_2_revocation_frequency_desk_scale():
    n_pairs, live, color_bits = 8_000_000, 1000, 21
    pool = (1 << color_bits) - 1
    predicted = predicted_revocations(n_pairs, live, pool, 0.01)
    metrics = _churn_revocations(n_pairs, live, color_bits, "picasso")
    ok = (
        metrics.revocations == predicted
        and abs(metrics.revocations - 4) <= 1  # reported long-run figure
        and metrics.uaf_escapes == 0
    )
    _report(
        2,
        f"8e6 pairs at 2^21-1 colors: {metrics.revocations} revocations "
        f"(oracle {predicted}, reported 4 +- 1)",
        ok,
    )


# -- criterion 3: unr equivalence ------------------------------------------


def test_criterion_3_unr_oracle_equivalence():
    rng = SplitMix64(0xC01)
    runs = 10_000
    mismatches = 0
    for _ in range(runs):
        total = 8 + rng.below(100_000)
        state = UnrState(total)
        claimed = set()
        for _ in range(12 + rng.below(12)):
            roll = rng.below(10)
            if roll < 5:
                expected = oracle_min_free(claimed, total)
                if expected is not None:
                    got = state.alloc_first_free()
                    assert got == expected, "alloc deviated from oracle minimum"
                    claimed.add(got)
            elif roll < 8 and claimed:
                victim = sorted(claimed)[rng.below(len(claimed))]
                state.free_one(victim)
                claimed.discard(victim)
            elif claimed:
                ids = sorted(claimed)
                picks = sorted({ids[rng.below(len(ids))] for _ in range(rng.below(6) + 1)})
                assert release_passes(state, runs_of(picks)) == 1, "batch not single-pass"
                claimed.difference_update(picks)
        if claimed_ids(state) != claimed:
            mismatches += 1
    # Large-pool batch shape: claim 1e5, release every even id.
    state = UnrState(100_000)
    for _ in range(100_000):
        state.alloc_first_free()
    single_pass = release_passes(state, [(i, i + 1) for i in range(2, 100_001, 2)]) == 1
    big_ok = claimed_ids(state) == set(range(1, 100_001, 2)) and state.population == 50_000
    ok = mismatches == 0 and big_ok and single_pass
    _report(
        3,
        f"{runs} interleavings, {mismatches} mismatches; 1e5-id batch "
        f"membership {'ok' if big_ok else 'WRONG'}, single forward pass",
        ok,
    )


# -- criterion 4: PVT buffer transparency and efficacy ----------------------


def test_criterion_4_buffer_transparency_and_hit_rate():
    transparent = True
    traces = [case.trace for case in gen_corpus() if case.variant == "bad"]
    traces.append(gen_churn(600, 24, (32, 64), seed=13, touch_rate=0.6,
                            inject="mixed", inject_rate=0.08))
    traces.append(gen_locality(29, 10, 64, 8))
    for trace in traces:
        on = run_trace(trace, "picasso", collect_outcomes=True)
        with unbuffered():
            off = run_trace(trace, "picasso", collect_outcomes=True)
        if (
            len(on.outcomes) != on.metrics.ops  # one outcome per op
            or on.outcomes != off.outcomes
            or on.metrics.data_digest != off.metrics.data_digest
            or on.metrics.faults_total != off.metrics.faults_total
            or on.metrics.pvt_lookups != off.metrics.pvt_lookups
            or off.metrics.pvt_hits
        ):
            transparent = False
            break
    locality = run_trace(gen_locality(29, 40, 64, 8), "picasso").metrics
    lookups = locality.pvt_lookups
    hit_rate = locality.pvt_hits / lookups if lookups else 0.0
    ok = transparent and hit_rate > 0.90
    _report(
        4,
        f"buffer transparent over {len(traces)} traces; locality hit rate "
        f"{hit_rate:.4f} ({locality.pvt_hits}/{lookups})",
        ok,
    )


# -- criterion 5: quarantine vs immediate-reuse memory ----------------------


def test_criterion_5_memory_accounting():
    n_pairs, live, color_bits = 80_000, 1000, 16
    trace = gen_churn(n_pairs, live, (32,), seed=21)
    config = RunConfig(color_bits=color_bits)
    none = run_trace(trace, "none", config).metrics
    corn = run_trace(trace, "cornucopia", config).metrics
    pic = run_trace(trace, "picasso", config).metrics
    pvt = 1 << color_bits - 3  # one bit per color
    quarantine_excess = corn.peak_resident_bytes - none.peak_resident_bytes
    ok = (
        # Quarantine holds at least the configured fraction of allocated bytes.
        quarantine_excess >= 0.25 * none.peak_resident_bytes
        and corn.peak_quarantine_bytes >= 0.25 * none.peak_resident_bytes
        # Immediate reuse: the only overhead is the table (doubled during the
        # in-flight sweep) plus the ID-allocator nodes.
        and pic.peak_resident_bytes >= none.peak_resident_bytes + 2 * pvt
        and pic.peak_resident_bytes
        <= none.peak_resident_bytes + 2 * pvt + pic.peak_unr_bytes
        and pic.revocations >= 1  # the transient was actually exercised
        and pic.peak_live_bytes == none.peak_live_bytes
    )
    _report(
        5,
        f"cornucopia +{quarantine_excess}B over none ({none.peak_resident_bytes}B); "
        f"picasso sandwiched by 2xPVT+unr ({pic.peak_resident_bytes}B, "
        f"unr {pic.peak_unr_bytes}B)",
        ok,
    )


# -- criterion 6: temporal-safety soundness ---------------------------------


def test_criterion_6_soundness_and_versioning_gap():
    seeds = range(1000)
    violations = escapes = false_positives = 0
    for seed in seeds:
        trace = gen_churn(
            120, 8, (16, 32), seed=seed, touch_rate=0.5,
            inject="mixed", inject_rate=0.12,
        )
        metrics = run_trace(trace, "picasso").metrics
        violations += metrics.oracle_violations
        escapes += metrics.uaf_escapes
        false_positives += metrics.false_positives
    # Forced wrap: 16 recolorings bring the granule back to the stale
    # capability's version; the collision must slip through undetected.
    ops = [(OP_MALLOC, 0, 16, 0), (OP_COPY, 1, 0, 0), (OP_FREE, 0, 0, 0)]
    for _ in range(15):
        ops += [(OP_MALLOC, 0, 16, 0), (OP_FREE, 0, 0, 0)]
    ops += [(OP_MALLOC, 0, 16, 0), (OP_READ, 1, 0, 8)]
    wrap_trace = Trace(ops=ops, name="forced-wrap")
    ver = run_trace(
        wrap_trace, "versioning", RunConfig(versioning_fallback=False)
    ).metrics
    pic = run_trace(wrap_trace, "picasso").metrics
    ok = (
        violations > 1000
        and escapes == 0
        and false_positives == 0
        and ver.uaf_escapes >= 1
        and pic.uaf_escapes == 0
    )
    _report(
        6,
        f"{len(seeds)} traces, {violations} injected violations: picasso "
        f"0 escapes/0 FP; versioning wrap escapes {ver.uaf_escapes}",
        ok,
    )


# -- criterion 7: revoke-on-free cost proxy ----------------------------------


def test_criterion_7_revoke_on_free_cost():
    trace = gen_churn(2000, 100, (32,), seed=2)
    config = RunConfig(color_bits=10)
    pic = run_trace(trace, "picasso", config).metrics
    rof = run_trace(trace, "cornucopia-rof", config).metrics
    ratio = rof.swept_tags / max(pic.swept_tags, 1)
    ok = ratio >= 100 and pic.revocations >= 1 and rof.swept_tags > 0
    _report(
        7,
        f"sweep work proxy: rof {rof.swept_tags} tags vs picasso "
        f"{pic.swept_tags} ({ratio:.0f}x over {pic.revocations} sweeps)",
        ok,
    )
