"""The paper's trade-off, axis 1: the color pool against the live set.

Prior revocation sweeps periodically; picasso trades PVT memory for rare
sweeps.  One random-victim churn trace of LIVE blocks of 32 B, with a
read through the freed capability after every STALE_EVERY-th free, is
replayed with picasso's pool at each of POOL_PER_LIVE times the live set,
and under cornucopia, whose quarantine sweeps do not depend on the pool:

* picasso's revocations do not increase as the pool grows, and the
  smallest pool sweeps while the largest never does;
* cornucopia's revocations are the same at every point;
* picasso faults every stale read, and nothing else, at every point;
* picasso's resident bytes above the live peak are at most the PVT,
  doubled while a sweep holds its snapshot, plus the UNR's peak.

`RunConfig` sizes the pool only as 2**color_bits - 1, so every point runs
at one color width and `make_scheme` cuts the shim's pool to the point's
size, as if the allocator handed out only its lowest colors.  Words
scanned per free waits for a sweep-words gauge in `Metrics`.
"""

import math
import sys
from pathlib import Path
from unittest import mock

import pytest

from colorcap import harness
from colorcap.harness import RunConfig, run_trace
from colorcap.mrs import MallocRevocationShim
from colorcap.schemes import make_scheme
from colorcap.trace import OP_FREE, OP_READ, Trace
from colorcap.unr import UnrState

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from matrix import gen_random_churn  # noqa: E402

LIVE = 1000
PAIRS = 6000
POOL_PER_LIVE = (1.02, 1.1, 2, 8, 64)
STALE_EVERY = 100
CONFIG = RunConfig(color_bits=16)  # 65,535 colors, above the largest pool


def pool_of(pool: int):
    """Patch `run_trace`'s `make_scheme` so that a colored scheme claims
    only colors 1 .. `pool`, with the revocation threshold of that pool."""

    def make(name, machine):
        scheme = make_scheme(name, machine)
        if isinstance(scheme, MallocRevocationShim):
            scheme.pool = pool
            scheme.unr = UnrState(pool)
            scheme.threshold_count = math.ceil(machine.config.threshold_fraction * pool)
        return scheme

    return mock.patch.object(harness, "make_scheme", make)


@pytest.fixture(scope="module")
def points():
    """Per ratio, the `Metrics` of picasso and cornucopia."""
    churn = gen_random_churn(PAIRS, LIVE, 32, 32, seed=1)
    ops = []
    frees = 0
    for op in churn.ops:
        ops.append(op)
        if op[0] == OP_FREE:
            frees += 1
            if frees % STALE_EVERY == 0:
                ops.append((OP_READ, op[1], 0, 8))
    trace = Trace(ops=ops, slots=churn.slots, name="stale-random-churn")
    rows = []
    for ratio in POOL_PER_LIVE:
        with pool_of(round(ratio * LIVE)):
            rows.append({scheme: run_trace(trace, scheme, CONFIG).metrics
                         for scheme in ("picasso", "cornucopia")})
    print("pool/live, picasso and cornucopia revocations:",
          [(ratio, row["picasso"].revocations, row["cornucopia"].revocations)
           for ratio, row in zip(POOL_PER_LIVE, rows)])
    return rows


def test_picasso_sweeps_less_as_the_pool_grows(points):
    revocations = [row["picasso"].revocations for row in points]
    assert revocations == sorted(revocations, reverse=True)
    assert revocations[0] > 0 and revocations[-1] == 0


def test_cornucopia_sweeps_do_not_depend_on_the_pool(points):
    revocations = {row["cornucopia"].revocations for row in points}
    assert len(revocations) == 1 and revocations.pop() > 0


def test_picasso_faults_every_stale_read_and_nothing_else(points):
    for row in points:
        pic = row["picasso"]
        assert pic.oracle_violations > 0
        assert pic.uaf_escapes == pic.false_positives == 0
        assert pic.faults_total == pic.oracle_violations


def test_picasso_overhead_is_the_table_and_the_unr(points):
    for row in points:
        pic = row["picasso"]
        overhead = pic.peak_resident_bytes - pic.peak_live_bytes
        assert 0 < overhead <= 2 * pic.pvt_bytes + pic.peak_unr_bytes
