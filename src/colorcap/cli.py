"""Command-line entry point.

    colorcap run     --scheme picasso --gen churn:n=1000,live=10,seed=1
    colorcap run     --scheme picasso --trace bad_uaf.trace
    colorcap compare --schemes picasso,cornucopia --gen churn:n=5000,live=50
    colorcap corpus  --schemes picasso,cornucopia,cornucopia-rof,versioning

Exit codes: 0 on success (expectations matched; for `corpus`, the picasso
row detected every bad case with no false positives), 1 on expectation or
gate mismatch, 2 on configuration or parse errors, 3 when the run ran out
of heap (OutOfMemory; a quarantining scheme first revokes its quarantine),
of colors (PoolExhausted, also when out of both; picasso first sweeps
back any retracted color) or of host memory (MemoryError or OverflowError:
a write wider than a block of a multi-GiB heap builds a payload one byte
longer than the block).

Reports go to stdout in json, csv, or human form; --out (or the
COLORCAP_OUTPUT_DIR environment variable) additionally writes them to a
directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional

from .harness import (
    METRIC_FIELDS,
    ConfigError,
    Metrics,
    RunConfig,
    corpus_gate,
    run_corpus,
    run_trace,
)
from .heap import OutOfMemory
from .mrs import PoolExhausted
from .schemes import SCHEME_NAMES
from .trace import ParseError, Trace, parse_trace
from .workloads import gen_churn, gen_corpus, gen_locality

CORPUS_FIELDS = ("case", "category", "variant", "scheme", "result")
_DEFAULT_CORPUS_SCHEMES = "picasso,cornucopia,cornucopia-rof,versioning"


#: `--gen` name -> (generator, spec key -> keyword argument).  A key the
#: spec leaves out keeps the generator's own default; `--seed` supplies the
#: default seed.
_GENERATORS = {
    "churn": (
        gen_churn, dict(n="n_pairs", live="live_set", size="sizes", seed="seed", spill="spill")
    ),
    "locality": (
        gen_locality, dict(allocs="n_allocs", rounds="rounds", size="size", width="width")
    ),
}


def _parse_gen(spec: str, seed: int) -> Trace:
    name, _, rest = spec.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigError(f"bad generator parameter {part!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ConfigError(f"generator parameter {key} must be an integer") from None
    if name not in _GENERATORS:
        expected = " or ".join(_GENERATORS)
        raise ConfigError(f"unknown generator {name!r} (expected {expected})")
    generator, keywords = _GENERATORS[name]
    extra = [key for key in params if key not in keywords]
    if extra:
        raise ConfigError(f"unknown generator parameters: {', '.join(extra)}")
    kwargs = {"seed": seed} if "seed" in keywords else {}
    kwargs.update((keywords[key], value) for key, value in params.items())
    if "sizes" in kwargs:
        kwargs["sizes"] = (kwargs["sizes"],)
    return generator(**kwargs)


def _load_trace(args) -> Trace:
    if args.trace is not None:
        with open(args.trace, "r", encoding="utf-8") as handle:
            return parse_trace(handle.read(), name=os.path.basename(args.trace))
    return _parse_gen(args.gen, args.seed)


def _sweep_window(text: str) -> Optional[int]:
    if text == "sync":
        return None
    if text.startswith("windowed:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError("sweep window must be an integer") from None
    raise ConfigError("--sweep must be `sync` or `windowed:<N>`")


def _config_from(args) -> RunConfig:
    config = RunConfig(
        color_bits=args.color_bits,
        threshold_fraction=args.threshold_fraction,
        quarantine_fraction=args.quarantine_fraction,
        heap_size=args.heap_size,
        pvt_buffer=args.pvt_buffer == "on",
        sweep_window=_sweep_window(args.sweep),
    )
    config.validate()
    return config


def _metrics_text(rows: list[Metrics], fmt: str) -> str:
    dicts = [m.to_dict() for m in rows]
    if fmt == "json":
        payload = dicts[0] if len(dicts) == 1 else dicts
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=METRIC_FIELDS)
        writer.writeheader()
        writer.writerows(dicts)
        return out.getvalue()
    width = max(len(name) for name in METRIC_FIELDS)
    blocks = []
    for d in dicts:
        blocks.append("\n".join(f"{k:<{width}}  {d[k]}" for k in METRIC_FIELDS))
    return "\n\n".join(blocks) + "\n"


def _emit(text: str, args, stem: str) -> None:
    sys.stdout.write(text)
    out_dir = args.out or os.environ.get("COLORCAP_OUTPUT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        ext = {"json": "json", "csv": "csv", "human": "txt"}[args.format]
        path = os.path.join(out_dir, f"{stem}.{ext}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_run(args) -> int:
    config = _config_from(args)
    trace = _load_trace(args)
    result = run_trace(trace, args.scheme, config)
    _emit(_metrics_text([result.metrics], args.format), args, "run")
    for index, expected, actual in result.mismatches:
        want = "ok" if expected is None else expected.value
        got = "ok" if actual is None else actual.value
        print(f"expectation mismatch at op {index}: expected {want}, got {got}",
              file=sys.stderr)
    return 1 if result.metrics.expect_mismatches else 0


def _cmd_compare(args) -> int:
    config = _config_from(args)
    schemes = _scheme_list(args.schemes)
    trace = _load_trace(args)
    rows = [run_trace(trace, scheme, config).metrics for scheme in sorted(schemes)]
    _emit(_metrics_text(rows, args.format), args, "compare")
    return 1 if any(m.expect_mismatches for m in rows) else 0


def _cmd_corpus(args) -> int:
    config = _config_from(args)
    schemes = _scheme_list(args.schemes)
    rows, summary = run_corpus(gen_corpus(), schemes, config)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CORPUS_FIELDS)
    writer.writerows(rows)
    _emit(out.getvalue(), args, "corpus")
    for scheme in sorted(summary):
        tally = summary[scheme]
        print(
            f"# {scheme}: bad {tally['bad_detected']}/{tally['bad_total']} detected "
            f"(UAF {tally['uaf_detected']}/{tally['uaf_total']}, "
            f"DF {tally['df_detected']}/{tally['df_total']}), "
            f"good false positives {tally['good_false_positives']}/{tally['good_total']}",
            file=sys.stderr,
        )
    return 0 if corpus_gate(summary) else 1


def _scheme_list(text: str) -> list[str]:
    schemes = [s.strip() for s in text.split(",") if s.strip()]
    if not schemes:
        raise ConfigError("empty scheme list")
    if len(set(schemes)) != len(schemes):
        raise ConfigError("duplicate scheme in list")
    return schemes


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", help="trace file to replay")
    parser.add_argument("--gen", help="generator spec, e.g. churn:n=1000,live=10,seed=1")
    parser.add_argument("--color-bits", type=int, default=RunConfig.color_bits, dest="color_bits")
    parser.add_argument("--threshold-fraction", type=float,
                        default=RunConfig.threshold_fraction, dest="threshold_fraction",
                        help="revocation trigger: unclaimed colors below this fraction")
    parser.add_argument("--quarantine-fraction", type=float,
                        default=RunConfig.quarantine_fraction, dest="quarantine_fraction",
                        help="quarantine limit as a fraction of allocated bytes")
    parser.add_argument("--heap-size", type=int, default=RunConfig.heap_size, dest="heap_size")
    parser.add_argument("--pvt-buffer", choices=("on", "off"), default="on",
                        dest="pvt_buffer")
    parser.add_argument("--sweep", default="sync", help="`sync` or `windowed:<words per malloc>`"
                        " for every sweep; cornucopia-rof always sweeps at once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv", "human"), default="json")
    parser.add_argument("--out", help="directory for report files "
                        "(env COLORCAP_OUTPUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorcap",
        description="Trace-driven simulator for heap temporal-safety schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay one trace under one scheme")
    _add_common(run_p)
    run_p.add_argument("--scheme", choices=SCHEME_NAMES, default="picasso")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="same trace across several schemes")
    _add_common(cmp_p)
    cmp_p.add_argument("--schemes", default="picasso,cornucopia",
                       help="comma-separated scheme list")
    cmp_p.set_defaults(func=_cmd_compare)

    cor_p = sub.add_parser("corpus", help="detection matrix over the mini-corpus")
    _add_common(cor_p)
    cor_p.add_argument("--schemes", default=_DEFAULT_CORPUS_SCHEMES)
    cor_p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command in ("run", "compare"):
        if (args.trace is None) == (args.gen is None):
            print("colorcap: error: exactly one of --trace/--gen is required",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError, ValueError) as exc:
        print(f"colorcap: error: {exc}", file=sys.stderr)
        return 2
    except (OutOfMemory, PoolExhausted, MemoryError, OverflowError) as exc:
        print(f"colorcap: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
