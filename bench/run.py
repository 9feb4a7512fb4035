"""colorcap benchmark: host throughput of every scheme on four workloads.

    python3 bench/run.py --workload churn-fifo --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                # every workload, one after another

Each workload's trace is generated from --seed and materialised before any
timing.  With --trace 0 the run replays the trace under all five schemes in
turn through `run_trace(trace, scheme, config)` for --seconds and reports
the end-to-end metrics: trace ops replayed per second of idle-host time for
each scheme (the median over that scheme's replays; see hostspeed.py),
set-up time and peak host memory.  With --trace 1 it instead replays each
scheme once plainly and once with the simulator's public methods wrapped in
spans, and reports the per-layer metrics (medians over such rounds, each
summed over the schemes).

Every replay is checked: no operation faults and picasso lets no
use-after-free escape, the `Metrics` of a (workload, scheme) pair are
identical on every replay, traced or not, picasso's revocation count on
churn-fifo matches the counter arithmetic, and the mini-corpus gate
passes.  The SHA-256 of each pair's `Metrics.to_dict()` is printed so two
commits can be compared.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where an attempt is
one replay and a failure is a replay that raised or failed a check.

All times are host time (the simulator's own run time), never simulated
time; the simulated model itself is not validated against hardware.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def import_colorcap(host: HostSpeed) -> float:
    """Import colorcap afresh from this checkout's src/ SETUP_REPEATS times
    and return the median seconds; exits without a result if the checkout
    holds no simulator."""
    sys.path.insert(0, str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [name for name in sys.modules if name.partition(".")[0] == "colorcap"]:
            del sys.modules[name]
        colorcap, seconds = host.timed(importlib.import_module, "colorcap")
        times.append(seconds)
    if Path(colorcap.__file__).resolve().parent != ROOT / "src" / "colorcap":
        raise SystemExit(f"colorcap imported from {colorcap.__file__}, not from src/")
    return statistics.median(times)


def metrics_digest(metrics) -> str:
    return hashlib.sha256(
        json.dumps(metrics.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def predicted_revocations(n_pairs: int, live: int, pool: int, threshold_fraction: float) -> int:
    """Picasso's revocation count on FIFO churn, from counter arithmetic
    alone: warm-up claims, then free-oldest/claim pairs with the threshold
    checked before every claim."""
    threshold = math.ceil(threshold_fraction * pool)
    claimed = pending = revocations = 0
    for i in range(n_pairs):
        if i >= live:
            pending += 1
        if pool - claimed < threshold and pending:
            revocations += 1
            claimed -= pending
            pending = 0
        claimed += 1
    return revocations


def plain_timed(fn, *args):
    """Return (fn(*args), the seconds it took)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Replayer:
    """Replays one workload's traces, checking every result.  `timed` times
    each replay: HostSpeed.timed for idle-host seconds, or plain_timed."""

    def __init__(self, workload, trace, timed=plain_timed) -> None:
        from colorcap import SCHEME_NAMES
        from matrix import FIFO_LIVE, FIFO_PAIRS, prefix

        self.workload = workload
        self.timed = timed
        self.traces = {
            scheme: prefix(trace, workload.rof_ops) if scheme == "cornucopia-rof" else trace
            for scheme in SCHEME_NAMES
        }
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_revocations = None
        if workload.name == "churn-fifo":
            config = workload.config
            self.expected_revocations = predicted_revocations(
                FIFO_PAIRS, FIFO_LIVE, (1 << config.color_bits) - 1, config.threshold_fraction
            )

    def replay(self, scheme: str, run=None):
        """One checked replay; returns (seconds, Metrics) or None if it
        failed.  `run` stands in for run_trace (the traced run wraps it)."""
        from colorcap import OutOfMemory, PoolExhausted, run_trace

        self.attempted += 1
        try:
            result, elapsed = self.timed(
                run or run_trace, self.traces[scheme], scheme, self.workload.config
            )
        except (OutOfMemory, PoolExhausted) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = self.check(scheme, result.metrics)
        if problems:
            self.failed += 1
            self.problems += [f"{scheme}: {problem}" for problem in problems]
            return None
        return elapsed, result.metrics

    def check(self, scheme: str, m) -> list[str]:
        problems = []
        if m.ops != len(self.traces[scheme].ops):
            problems.append(f"replayed {m.ops} of {len(self.traces[scheme].ops)} ops")
        # Every trace is well formed: no scheme may fault, and none may see
        # (let alone let through) a temporal violation.
        if m.faults_total or m.oracle_violations or m.uaf_escapes or m.false_positives:
            problems.append(
                f"faults={m.faults_total} violations={m.oracle_violations} "
                f"escapes={m.uaf_escapes} false_positives={m.false_positives}"
            )
        if (
            scheme == "picasso"
            and self.expected_revocations is not None
            and m.revocations != self.expected_revocations
        ):
            problems.append(
                f"{m.revocations} revocations, counter arithmetic says "
                f"{self.expected_revocations}"
            )
        digest = metrics_digest(m)
        if self.digests.setdefault(scheme, digest) != digest:
            problems.append("Metrics differ from the first replay")
        return problems


def set_up(workload, seed: int, host: HostSpeed) -> tuple[object, float, float]:
    """Validate the config and build the trace SETUP_REPEATS times; returns
    the last trace and the median seconds, at idle host speed, of the whole
    step and of trace generation alone."""
    totals, gens = [], []
    for _ in range(SETUP_REPEATS):
        _, validate_s = host.timed(workload.config.validate)
        trace, gen_s = host.timed(workload.build, seed)
        totals.append(validate_s + gen_s)
        gens.append(gen_s)
    return trace, statistics.median(totals), statistics.median(gens)


def measure(replayer: Replayer, seconds: float) -> dict[str, list[float]]:
    """Replay the schemes for `seconds`, each time picking the scheme with
    the least host time so far, so every scheme gets an equal share.
    Returns, per scheme, the ops per idle-host second of each replay."""
    rates: dict[str, list[float]] = {scheme: [] for scheme in replayer.traces}
    spent = dict.fromkeys(replayer.traces, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        scheme = min(spent, key=spent.get)
        outcome = replayer.replay(scheme)
        if outcome is None:
            return rates
        elapsed, metrics = outcome
        spent[scheme] += elapsed
        rates[scheme].append(metrics.ops / elapsed)
        if time.perf_counter() >= deadline and all(rates.values()):
            return rates


def run_plain(workload, seed: int, seconds: float, host: HostSpeed, import_s: float):
    trace, setup_s, _ = set_up(workload, seed, host)
    replayer = Replayer(workload, trace, host.timed)
    rates = measure(replayer, seconds)
    metrics = {
        f"ops_per_s.{scheme}": (statistics.median(values) if values else 0.0, "ops/s")
        for scheme, values in rates.items()
    }
    metrics["setup_s"] = (import_s + setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [f"{scheme}: {len(values)} replays" for scheme, values in rates.items()]
    return replayer, metrics, notes


def run_traced(workload, seed: int, seconds: float, host: HostSpeed):
    from layers import layer_metrics, round_totals

    trace, _, gen_s = set_up(workload, seed, host)
    replayer = Replayer(workload, trace)
    rounds = []
    start = time.perf_counter()
    while (outcome := round_totals(replayer)) is not None:
        rounds.append(outcome)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:  # the next round would overrun
            break
    metrics = {}
    if rounds:
        per_round = [layer_metrics(totals, gen_s) for totals in rounds]
        for name, (_, unit) in per_round[0].items():
            metrics[name] = (statistics.median(r[name][0] for r in per_round), unit)
    return replayer, metrics, [f"{len(rounds)} traced rounds"]


def corpus_problems() -> list[str]:
    from colorcap import SCHEME_NAMES, corpus_gate, gen_corpus, run_corpus

    _, summary = run_corpus(gen_corpus(), SCHEME_NAMES)
    return [] if corpus_gate(summary) else [f"mini-corpus gate failed: {summary['picasso']}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = HostSpeed()
    import_s = import_colorcap(host)
    from matrix import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; expected all or one of {*WORKLOADS,}")

    problems = corpus_problems()
    attempted = failed = 0
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            replayer, metrics, notes = run_traced(workload, args.seed, args.seconds, host)
        else:
            replayer, metrics, notes = run_plain(workload, args.seed, args.seconds, host, import_s)
        attempted += replayer.attempted
        failed += replayer.failed
        problems += [f"{name}: {p}" for p in replayer.problems]
        rof_ops = len(replayer.traces["cornucopia-rof"].ops)
        print(
            f"{name} seed={args.seed}: {len(replayer.traces['picasso'].ops)} ops, "
            f"cornucopia-rof replays the first {rof_ops}; {'; '.join(notes)}"
        )
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:32s} {value:16.6f} {unit}")
            results[metric if len(names) == 1 else f"{name}.{metric}"] = {
                "value": value,
                "unit": unit,
            }
        for scheme, digest in replayer.digests.items():
            print(f"  digest {scheme:15s} {digest}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": results,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
