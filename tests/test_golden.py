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
from colorcap.workloads import gen_churn, gen_corpus


def _churn():
    # Mixed sizes and injected violations; at 8 color bits picasso sweeps,
    # cornucopia drains its quarantine and versioning wraps.
    return gen_churn(1500, 40, (16, 48, 128, 256), seed=11, touch_rate=0.5,
                     inject="mixed", inject_rate=0.05)


CASES = {
    "churn": RunConfig(color_bits=8),
    "churn-window7": RunConfig(color_bits=8, sweep_window=7),
    "churn-nobuffer": RunConfig(color_bits=8, pvt_buffer=False),
    "churn-nofallback": RunConfig(color_bits=8, versioning_fallback=False),
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
    result = run_trace(_churn(), scheme, CASES[case], collect_outcomes=True)
    return _sha(result.metrics.to_dict()), _sha(_outcomes(result))


GOLDEN = {
    "churn/picasso": ("ea4ce8ff48294851", "5b1115ab667eb044"),
    "churn/cornucopia": ("f59a81555a0eea50", "eeb7df1a13f0a768"),
    "churn/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn/versioning": ("9d658485b641afa2", "5b1115ab667eb044"),
    "churn/none": ("9f091406a243f055", "6e79ebf36a0ecc15"),
    "churn-window7/picasso": ("8b0b0a3c2b997160", "5b1115ab667eb044"),
    "churn-window7/cornucopia": ("f59a81555a0eea50", "eeb7df1a13f0a768"),
    "churn-window7/cornucopia-rof": ("7131189e72afa7ef", "6569fc8f57c691a7"),
    "churn-window7/versioning": ("9d658485b641afa2", "5b1115ab667eb044"),
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
