import csv
import io
import json
import os

import pytest

from colorcap.cli import CORPUS_FIELDS, main
from colorcap.harness import METRIC_FIELDS


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

    def test_unreadable_trace_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--trace", str(tmp_path / "missing.trace")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, exception",
        [
            (["--scheme", "cornucopia", "--gen", "churn:n=20000,live=100,size=2048",
              "--heap-size", "262144"], "OutOfMemory"),
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
