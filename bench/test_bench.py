"""Tests of the benchmark itself.  Run with `PYTHONPATH=src python -m pytest bench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from colorcap import RunConfig, run_trace
from colorcap.heap import FreeListHeap
from colorcap.schemes import CornucopiaScheme
from colorcap.workloads import gen_churn

import run
from layers import instrument, layer_metrics, round_totals
from matrix import Workload, gen_random_churn
from spans import Tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    RunConfig(color_bits=8, heap_size=1 << 16),
    lambda seed: gen_random_churn(300, 40, 16, 256, seed),
    None,
)


def test_generator_is_deterministic_per_seed():
    first = gen_random_churn(200, 20, 16, 4096, seed=7)
    again = gen_random_churn(200, 20, 16, 4096, seed=7)
    other = gen_random_churn(200, 20, 16, 4096, seed=8)
    assert first.ops == again.ops
    assert first.ops != other.ops
    assert len(first.ops) == 2 * 20 + 4 * 200
    sizes = {op[2] for op in first.ops if op[0] == 0}
    assert min(sizes) >= 16 and max(sizes) <= 4096 and len(sizes) > 100
    fixed = gen_random_churn(50, 10, 32, 32, seed=7)
    assert {op[2] for op in fixed.ops if op[0] == 0} == {32}


def test_wrappers_are_restored_even_on_error():
    own = FreeListHeap.__dict__["alloc"]
    assert "load" not in CornucopiaScheme.__dict__  # inherited
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            instrument(tracer)
            assert FreeListHeap.alloc is not own
            assert "load" in CornucopiaScheme.__dict__
            raise RuntimeError("boom")
    assert FreeListHeap.__dict__["alloc"] is own
    assert "load" not in CornucopiaScheme.__dict__


def test_self_time_excludes_children():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(20_000))

    with Tracer() as tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        tracer.call("root", Layer().outer)
    rows = tracer.fold()
    assert rows["inner"][0] == 2 and rows["outer"][0] == 1
    _, outer_total, outer_self = rows["outer"]
    assert outer_self == pytest.approx(outer_total - rows["inner"][1])
    assert rows["root"][2] == pytest.approx(rows["root"][1] - outer_total)
    assert not tracer.start  # spans are dropped once folded


def test_traced_digests_equal_untraced_and_every_layer_metric_is_emitted():
    replayer = run.Replayer(TINY, TINY.build(3))
    totals = round_totals(replayer)
    assert totals is not None and not replayer.problems
    assert replayer.attempted == 10  # five schemes, plain then traced
    metrics = layer_metrics(totals, gen_s=0.01)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]
    assert metrics["mrs.revocation.calls"][0] > 0
    assert metrics["machine.sweep_scan.words"][0] > 0


def test_plain_run_emits_every_end_to_end_metric():
    replayer, metrics, _ = run.run_plain(TINY, 3, 0.0, run.HostSpeed(), import_s=0.01)
    assert not replayer.problems and replayer.failed == 0
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(value > 0 for value, _ in metrics.values())


def test_a_changed_result_is_a_failed_replay():
    replayer = run.Replayer(TINY, TINY.build(3))
    assert replayer.replay("none") is not None
    other = gen_random_churn(300, 40, 16, 256, seed=4)
    replayer.traces["none"] = other
    assert replayer.replay("none") is None
    assert replayer.failed == 1 and "differ" in replayer.problems[0]


def test_out_of_memory_is_a_failed_replay():
    tight = Workload(
        "tight",
        RunConfig(heap_size=1 << 12),
        lambda seed: gen_random_churn(0, 80, 64, 64, seed),  # 5 KiB live in a 4 KiB heap
        None,
    )
    replayer = run.Replayer(tight, tight.build(1))
    assert replayer.replay("none") is None
    assert replayer.failed == 1 and "OutOfMemory" in replayer.problems[0]


def test_revocation_arithmetic_matches_picasso():
    config = RunConfig(color_bits=10)
    metrics = run_trace(gen_churn(3000, 100, (32,), seed=1), "picasso", config).metrics
    predicted = run.predicted_revocations(3000, 100, (1 << 10) - 1, config.threshold_fraction)
    assert predicted >= 3
    assert metrics.revocations == predicted


def test_fails_without_a_result_when_the_simulator_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "locality", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
