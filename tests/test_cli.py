import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from colorcap.cli import CORPUS_FIELDS, main
from colorcap.harness import METRIC_FIELDS, RunConfig, run_trace
from colorcap.machine import NUM_REGISTERS
from colorcap.schemes import SCHEME_NAMES
from colorcap.trace import MAX_SLOTS, MAX_WIDTH, OP_TABLE
from colorcap.workloads import gen_churn


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_churn_generator_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "picasso",
            "--gen", "churn:n=1000,live=10,seed=1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "picasso"
        assert payload["allocations"] == 1000
        assert payload["uaf_escapes"] == 0

    def test_trace_file_with_expected_fault(self, capsys, tmp_path):
        trace = tmp_path / "bad_uaf.trace"
        trace.write_text(
            "malloc r0 64\nwrite r0 0 8\nfree r0\n"
            "read r0 0 8 !fault=ProvenanceRetracted\n"
        )
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "picasso", "--trace", str(trace)
        )
        assert code == 0  # the expected fault was recorded
        payload = json.loads(out)
        assert payload["fault_ProvenanceRetracted"] == 1

    def test_write_wider_than_memory_faults(self, capsys, tmp_path):
        trace = tmp_path / "wide.trace"
        trace.write_text(f"malloc r0 64\nwrite r0 0 {MAX_WIDTH} !fault=SpatialOutOfBounds\n")
        code, out, _ = run_cli(capsys, "run", "--scheme", "picasso", "--trace", str(trace))
        assert code == 0
        assert json.loads(out)["fault_SpatialOutOfBounds"] == 1

    def test_expectation_mismatch_exits_one(self, capsys, tmp_path):
        trace = tmp_path / "wrong.trace"
        trace.write_text("malloc r0 64\nfree r0 !fault=DoubleFree\n")
        code, _, err = run_cli(
            capsys, "run", "--scheme", "picasso", "--trace", str(trace)
        )
        assert code == 1
        assert "mismatch" in err

    def test_malformed_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--scheme", "picasso", "--frobnicate")
        assert code == 2

    def test_missing_input_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scheme", "picasso")
        assert code == 2

    def test_bad_generator_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen", "chaos:n=1")
        assert code == 2
        assert "error" in err

    def test_locality_zero_width_exits_two_by_name(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen", "locality:width=0", "--scheme", "none")
        assert code == 2
        assert "width" in err
        assert "range()" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("size=0", "size must be >= width"),
            ("size=4", "size must be >= width"),
            ("rounds=0", "rounds must be >= 1"),
            ("rounds=-1", "rounds must be >= 1"),
            (f"width={MAX_WIDTH + 1},size={MAX_WIDTH + 1}", f"width must be in [1, {MAX_WIDTH}]"),
        ],
    )
    def test_locality_bad_field_exits_two_by_name(self, capsys, spec, message):
        code, _, err = run_cli(capsys, "run", "--gen", f"locality:{spec}", "--scheme", "picasso")
        assert code == 2
        assert message in err

    def test_oversized_heap_exits_two_by_name(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--gen", "churn:n=10,live=2", "--scheme", "picasso",
            "--heap-size", "1099511627776",
        )
        assert code == 2
        assert "heap_size" in err

    def test_unreadable_trace_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--trace", str(tmp_path / "missing.trace")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, exception",
        [
            # The live set (204,800 B) outgrows the heap, so even a forced
            # revocation cannot make room.
            (["--scheme", "cornucopia", "--gen", "churn:n=2000,live=100,size=2048",
              "--heap-size", "131072"], "OutOfMemory"),
            (["--scheme", "picasso", "--gen", "churn:n=2000,live=100",
              "--color-bits", "4"], "PoolExhausted"),
        ],
    )
    def test_exhaustion_exits_three_with_one_line(self, capsys, argv, exception):
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"colorcap: error: {exception}: ")
        assert err.count("\n") == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--gen", "churn:n=50,live=5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(METRIC_FIELDS)
        assert len(rows) == 2

    def test_human_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--gen", "churn:n=50,live=5", "--format", "human"
        )
        assert code == 0
        assert "allocations" in out

    def test_output_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, _ = run_cli(
            capsys, "run", "--gen", "churn:n=50,live=5", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "run.json").exists()

    def test_output_directory_env_override(self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "env_reports"
        monkeypatch.setenv("COLORCAP_OUTPUT_DIR", str(out_dir))
        code, _, _ = run_cli(capsys, "run", "--gen", "churn:n=50,live=5")
        assert code == 0
        assert (out_dir / "run.json").exists()

    def test_locality_generator(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--gen", "locality:allocs=8,rounds=2"
        )
        assert code == 0
        assert json.loads(out)["pvt_misses"] == 1


class TestCompare:
    def test_rows_per_scheme(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--schemes", "picasso,cornucopia",
            "--gen", "churn:n=200,live=10", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["scheme"] for r in rows] == ["cornucopia", "picasso"]

    def test_single_scheme_matches_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--schemes", "picasso",
            "--gen", "churn:n=100,live=10,seed=4", "--format", "csv",
        )
        (row,) = list(csv.DictReader(io.StringIO(out)))
        code2, out2, _ = run_cli(
            capsys, "run", "--scheme", "picasso",
            "--gen", "churn:n=100,live=10,seed=4",
        )
        single = json.loads(out2)
        assert int(row["allocations"]) == single["allocations"]
        assert row["data_digest"] == single["data_digest"]

    def test_trivial_trace_all_zero(self, capsys, tmp_path):
        trace = tmp_path / "empty.trace"
        trace.write_text("# nothing happens\n")
        code, out, _ = run_cli(
            capsys, "compare", "--schemes", "picasso,none",
            "--trace", str(trace), "--format", "csv",
        )
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert int(row["allocations"]) == 0
            assert int(row["faults_total"]) == 0

    def test_duplicate_scheme_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "compare", "--schemes", "picasso,picasso",
            "--gen", "churn:n=10,live=2",
        )
        assert code == 2


class TestCorpus:
    def test_default_gate_passes(self, capsys):
        code, out, err = run_cli(capsys, "corpus")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CORPUS_FIELDS)
        assert "picasso" in err

    def test_matrix_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "--schemes", "picasso,cornucopia-rof"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"picasso", "cornucopia-rof"}
        picasso_bad = [
            r for r in rows if r["scheme"] == "picasso" and r["variant"] == "bad"
        ]
        assert all(r["result"] == "detected" for r in picasso_bad)

    def test_gate_fails_without_picasso(self, capsys):
        code, _, _ = run_cli(capsys, "corpus", "--schemes", "cornucopia")
        assert code == 1


class TestSweepAndBufferFlags:
    def test_windowed_sweep_matches_run_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--gen", "churn:n=1500,live=40,seed=11",
            "--color-bits", "8", "--sweep", "windowed:7",
        )
        assert code == 0
        config = RunConfig(color_bits=8, sweep_window=7)
        expected = run_trace(gen_churn(1500, 40, seed=11), "picasso", config).metrics
        assert expected.revocations > 0
        assert json.loads(out) == expected.to_dict()

    def test_pvt_buffer_off(self, capsys):
        hits = {}
        for flag in ("on", "off"):
            code, out, _ = run_cli(
                capsys, "run", "--gen", "locality:allocs=8,rounds=2", "--pvt-buffer", flag
            )
            assert code == 0
            hits[flag] = json.loads(out)["pvt_hits"]
        assert hits["on"] > 0
        assert hits["off"] == 0

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("windowed:x", "sweep window must be an integer"),
            ("windowed:0", "sweep window must be >= 1"),
            ("bogus", "--sweep must be `sync` or `windowed:<N>`"),
        ],
    )
    def test_bad_sweep_exits_two(self, capsys, sweep, message):
        code, out, err = run_cli(capsys, "run", "--gen", "churn", "--sweep", sweep)
        assert code == 2
        assert out == ""
        assert err == f"colorcap: error: {message}\n"


class TestHostLimits:
    @pytest.mark.parametrize("slot", [MAX_SLOTS, 2**40, 2**63])
    def test_spill_slot_past_the_bound_exits_two(self, capsys, tmp_path, slot):
        # Without the bound, a spill to slot 2**63 makes the scratch
        # capability 2**67 bytes long, and the read walks it word by word.
        trace = tmp_path / "huge.trace"
        trace.write_text(
            f"scratch r31\nmalloc r0 16\nspill r0 {slot}\nread r31 0 {2**64}\n"
        )
        code, out, err = run_cli(capsys, "run", "--scheme", "none", "--trace", str(trace))
        assert code == 2
        assert out == ""
        assert err == (
            f"colorcap: error: line 3, column 10: slot index {slot} out of range"
            f" (0..{MAX_SLOTS - 1})\n"
        )

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_access_wider_than_the_spill_region_exits_two(self, capsys, tmp_path, op):
        # Without the bound, a 16 MiB access walks or builds the whole block
        # in host memory: seconds and about 120 MB per op.
        trace = tmp_path / "wide.trace"
        trace.write_text(f"malloc r0 {1 << 24}\n{op} r0 0 {1 << 24}\n")
        code, out, err = run_cli(capsys, "run", "--scheme", "none", "--heap-size", str(1 << 25),
                                 "--trace", str(trace))
        assert code == 2
        assert out == ""
        assert err == (
            f"colorcap: error: line 2, column {len(op) + 7}: width {1 << 24} out of range"
            f" (0..{MAX_WIDTH})\n"
        )


def _operand(kind):
    if kind == "r":
        return st.integers(0, NUM_REGISTERS - 1).map("r{}".format)
    # A width past MAX_WIDTH is a ParseError, and widths stop one granule
    # past it, so the drawn traces still replay; every other integer may
    # exceed any host limit.
    top = MAX_WIDTH + 16 if kind == "a width" else 10**30
    return st.integers(0, top).map(str)


_OP_LINE = st.sampled_from(OP_TABLE).flatmap(
    lambda row: st.tuples(st.just(row[0]), *map(_operand, row[1])).map(" ".join)
)

# Every count that sets the amount of work is bounded, and locality always
# names its rounds, so no drawn spec runs long.
_SPEC_VALUES = {
    "churn": {
        "n": st.integers(1, 2000),
        "live": st.integers(1, 64),
        "size": st.integers(0, 1 << 20),
        "seed": st.integers(-(10**30), 10**30),
        "spill": st.integers(0, 1),
    },
    "locality": {
        "allocs": st.integers(1, 31),
        "size": st.integers(0, 128),
        "width": st.integers(0, 4096),
    },
}

_VALID_FLAGS = st.fixed_dictionaries({
    "--scheme": st.sampled_from(SCHEME_NAMES),
    "--color-bits": st.integers(4, 24).map(str),
    "--heap-size": st.sampled_from([16, 4096, 1 << 16, 1 << 20, 1 << 32]).map(str),
    "--sweep": st.one_of(st.just("sync"), st.integers(1, 10**30).map("windowed:{}".format)),
})
_BAD_FLAGS = [
    ("--scheme", "bogus"), ("--color-bits", "3"), ("--color-bits", "25"),
    ("--color-bits", "x"), ("--heap-size", "0"), ("--heap-size", "17"),
    ("--heap-size", str(1 << 33)), ("--sweep", "windowed:0"), ("--sweep", "windowed:x"),
    ("--sweep", "windowed:"), ("--sweep", "bogus"),
]


@st.composite
def _input(draw):
    """One `--trace` text or `--gen` spec; each may hold one malformed part."""
    if draw(st.booleans()):
        lines = draw(st.lists(_OP_LINE, max_size=12))
        odd = ["!ok", "!fault=DoubleFree", "bogus r0", "free r0 1", "malloc r0 0"]
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(odd)))
        return "--trace", "\n".join(lines)
    name = draw(st.sampled_from(["churn", "locality", "chaos"]))
    values = _SPEC_VALUES.get(name, _SPEC_VALUES["churn"])
    keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=4))
    parts = [f"{key}={draw(values[key])}" for key in keys]
    if name == "locality":
        parts.append(f"rounds={draw(st.integers(0, 4))}")
    odd = ["", "n", "n=x", "seed=1", "bogus=1", "rounds=-1"]
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(odd)))
    return "--gen", f"{name}:{','.join(parts)}" if parts else name


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(source=_input(), flags=_VALID_FLAGS, bad=st.none() | st.sampled_from(_BAD_FLAGS))
    def test_every_input_ends_in_an_exit_code(self, source, flags, bad):
        if bad is not None:
            flags = {**flags, bad[0]: bad[1]}
        argv = ["run", *(item for flag in flags.items() for item in flag)]
        flag, value = source
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            if flag == "--trace":
                path = os.path.join(tmp, "fuzz.trace")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(value)
                value = path
            code = main([*argv, flag, value])
        assert code in (0, 1, 2, 3), (argv, source, err.getvalue())
