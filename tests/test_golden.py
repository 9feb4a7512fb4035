"""Golden results: the SHA-256 (first 16 hex digits) of every scheme's
`Metrics.to_dict()` and per-op outcome list on fixed traces and
configurations.

A behaviour-preserving change (a refactor, a speed-up) must leave every
digest as it is.  A change that means to alter results updates the table
and says why.  Regenerate it with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json

import pytest

from colorcap.harness import RunConfig, run_trace
from colorcap.schemes import SCHEME_NAMES
from colorcap.trace import parse_trace
from colorcap.workloads import gen_churn, gen_corpus, gen_locality


def _churn():
    # Mixed sizes and injected violations; at 8 color bits picasso sweeps,
    # cornucopia drains its quarantine and versioning wraps.
    return gen_churn(1500, 40, (16, 48, 128, 256), seed=11, touch_rate=0.5,
                     inject="mixed", inject_rate=0.05)


def _spill_sweep():
    # Tagged capabilities spilled to six scratch slots outlive their blocks;
    # at 5 color bits picasso sweeps them.  Reading the slots as data
    # through `scratch` (partial, whole-word and word-spanning reads, after
    # data writes into slots 4-5 and after sweeps) lets `data_digest` pin
    # their packed images; reloads of stale slots 1 and 3 follow the tags.
    lines = ["scratch r9"]
    for i in range(240):
        reg = i % 4
        if i >= 4:
            lines.append(f"free r{reg}")
        lines += [f"malloc r{reg} {16 * (1 + i % 5)}", f"spill r{reg} {i % 6}"]
        if i % 5 == 2:
            lines.append(f"write r9 {64 + (i * 11) % 26} {1 + i % 6}")
        offset = (i * 13) % 80
        lines.append(f"read r9 {offset} {1 + (i * 7) % (96 - offset)}")
        if i % 6 in (2, 5):
            lines += [f"reload r5 {3 if i % 6 == 2 else 1}", "read r5 0 8"]
    return parse_trace("\n".join(lines), name="spill-sweep")


def _locality():
    # The bench's locality shape, shortened.  Its 29 colors share one PVT
    # word, so the row pins the buffer's counts (picasso: 1,856 lookups,
    # 1,855 hits, 1 miss) and the digest of the bytes read back.
    return gen_locality(29, 4, 64, 8)


TRACES = {"spill-sweep": _spill_sweep, "locality": _locality}


CASES = {
    "churn": RunConfig(color_bits=8),
    # Picasso's, cornucopia's and versioning's fallback sweeps scan 7 words
    # per malloc; cornucopia-rof sweeps at once.
    "churn-window7": RunConfig(color_bits=8, sweep_window=7),
    "churn-nobuffer": RunConfig(color_bits=8, pvt_buffer=False),
    "churn-nofallback": RunConfig(color_bits=8, versioning_fallback=False),
    # Out of heap with blocks in quarantine: cornucopia and versioning
    # revoke early and retry (43 and 2 revocations against 37 and 1).
    "churn-heap8k": RunConfig(color_bits=8, heap_size=8192),
    "spill-sweep": RunConfig(color_bits=5),
    "locality": RunConfig(),
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _outcomes(result):
    return [None if kind is None else kind.value for kind in result.outcomes]


def digests(case: str, scheme: str) -> tuple[str, str]:
    """(metrics digest, outcomes digest) of one (case, scheme) row; the
    corpus row hashes the lists over every corpus case in order."""
    if case == "corpus":
        results = [run_trace(c.trace, scheme, collect_outcomes=True) for c in gen_corpus()]
        return (
            _sha([r.metrics.to_dict() for r in results]),
            _sha([_outcomes(r) for r in results]),
        )
    trace = TRACES.get(case, _churn)()
    result = run_trace(trace, scheme, CASES[case], collect_outcomes=True)
    return _sha(result.metrics.to_dict()), _sha(_outcomes(result))


GOLDEN = {
    "churn/picasso": ("ea4ce8ff48294851", "5b1115ab667eb044"),
    "churn/cornucopia": ("f59a81555a0eea50", "eeb7df1a13f0a768"),
    "churn/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn/versioning": ("9d658485b641afa2", "5b1115ab667eb044"),
    "churn/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "churn-window7/picasso": ("8b0b0a3c2b997160", "5b1115ab667eb044"),
    "churn-window7/cornucopia": ("0f47d7dc90e9ae4e", "eeb7df1a13f0a768"),
    "churn-window7/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn-window7/versioning": ("7a7387517e1b8d92", "5b1115ab667eb044"),
    "churn-window7/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "churn-nobuffer/picasso": ("bf85ef4152c5331e", "5b1115ab667eb044"),
    "churn-nobuffer/cornucopia": ("f59a81555a0eea50", "eeb7df1a13f0a768"),
    "churn-nobuffer/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn-nobuffer/versioning": ("9d658485b641afa2", "5b1115ab667eb044"),
    "churn-nobuffer/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "churn-nofallback/picasso": ("ea4ce8ff48294851", "5b1115ab667eb044"),
    "churn-nofallback/cornucopia": ("f59a81555a0eea50", "eeb7df1a13f0a768"),
    "churn-nofallback/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn-nofallback/versioning": ("c79414c6ad54badf", "5b1115ab667eb044"),
    "churn-nofallback/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "churn-heap8k/picasso": ("ea4ce8ff48294851", "5b1115ab667eb044"),
    "churn-heap8k/cornucopia": ("d07e18bcab003d14", "47e123545cd27ea4"),
    "churn-heap8k/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn-heap8k/versioning": ("b906af5f3cebfdbc", "5b1115ab667eb044"),
    "churn-heap8k/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "spill-sweep/picasso": ("57a75fbe55aa17cd", "031c6075f3242d39"),
    "spill-sweep/cornucopia": ("6ad23be36e703ebf", "5c4795092df6b6f1"),
    "spill-sweep/cornucopia-rof": ("f8d56c819d800e55", "889a0c60cdebf6b2"),
    "spill-sweep/versioning": ("8b591a15250eb16f", "3b19d7dac2f8ee01"),
    "spill-sweep/none": ("d998ff6883debe80", "ab1b63de03209929"),
    "locality/picasso": ("9145d3069167bfd3", "2fed9c05cf9b47ef"),
    "locality/cornucopia": ("e51bd85f03cb7ba0", "2fed9c05cf9b47ef"),
    "locality/cornucopia-rof": ("9f218ed3967d2124", "2fed9c05cf9b47ef"),
    "locality/versioning": ("b6b0ec4266814553", "2fed9c05cf9b47ef"),
    "locality/none": ("96037fa23fd5a9c5", "2fed9c05cf9b47ef"),
    "corpus/picasso": ("e4b4f882e8f20c8e", "59fc615c2e4e1bf8"),
    "corpus/cornucopia": ("8c042ad965e97f6a", "a4a3eef6ce713a02"),
    "corpus/cornucopia-rof": ("9763684bbf7a6db1", "a9e2b8d3a8f128d8"),
    "corpus/versioning": ("592a9c676475595b", "59fc615c2e4e1bf8"),
    "corpus/none": ("5bc141b8a73e6d78", "caeb09b5c99b541d"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_results_match_golden(key):
    case, scheme = key.split("/")
    assert digests(case, scheme) == GOLDEN[key]


def test_table_covers_every_case_and_scheme():
    assert set(GOLDEN) == {
        f"{case}/{scheme}" for case in (*CASES, "corpus") for scheme in SCHEME_NAMES
    }


if __name__ == "__main__":
    for case in (*CASES, "corpus"):
        for scheme in SCHEME_NAMES:
            metrics, outcomes = digests(case, scheme)
            print(f'    "{case}/{scheme}": ("{metrics}", "{outcomes}"),')
