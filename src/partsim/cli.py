"""Command-line interface: ``partsim validate|run|report``.

Exit codes are stable: 0 success, 1 validation findings, an invalid
scenario or a bad argument, 2 runtime fault (system halt, failed
measurement, a lost broker worker process), 3 I/O or malformed input
files.  ``PARTSIM_SEED`` is the fallback when --seed is not given; a bad
flag or ``PARTSIM_SEED`` is one stderr line ``error: <flag or variable>:
<message>``.  All output is deterministic for fixed inputs and seed.

Each subcommand imports the partsim modules it needs when it runs, so
``validate`` loads only ``config`` and ``units``, not the engine, and
``report`` loads only ``results``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not 2; the subparsers inherit it
        self.print_usage(sys.stderr)
        self.exit(EXIT_FINDINGS, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partsim",
        description="Deterministic partitioned-system simulator and pub/sub delay harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a system description document")
    p_validate.add_argument("config_path")

    p_run = sub.add_parser("run", help="run a scenario and export its CSV")
    p_run.add_argument("scenario_path")
    p_run.add_argument("--out", help="CSV output path (default: <scenario name>.csv)")
    bound = p_run.add_mutually_exclusive_group()
    bound.add_argument("--frames", help="run each repetition for N major frames")
    bound.add_argument("--until", help="run each repetition until this duration, e.g. 10ms")
    p_run.add_argument("--seed", help="override the scenario seed")
    p_run.add_argument("--trace", help="write the first repetition's trace to this path "
                       "(partitioned scenarios only)")

    p_report = sub.add_parser("report", help="summarize one or more result CSVs")
    p_report.add_argument("csv_paths", nargs="+")
    return parser


def _cmd_validate(args) -> int:
    from . import config as config_mod

    try:
        text = Path(args.config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = config_mod.parse_config(text)
    except config_mod.XmlSyntaxError as exc:
        print(f"ERROR XML_SYNTAX {args.config_path} {exc}")
        return EXIT_FINDINGS
    except config_mod.ConfigError as exc:
        print(f"ERROR SCHEMA {args.config_path} {exc}")
        return EXIT_FINDINGS
    findings = config_mod.validate(cfg)
    for finding in findings:
        print(str(finding))
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_run(args) -> int:
    from . import harness, results, trace as trace_mod
    from .units import parse_duration, parse_integer

    try:
        scenario = harness.load_scenario(args.scenario_path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except harness.ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_FINDINGS

    # a non-empty PARTSIM_SEED is read only when --seed is absent
    seed_from = "PARTSIM_SEED" if args.seed is None and os.environ.get("PARTSIM_SEED") else "--seed"
    values = {}
    try:
        for where, text, parse, least in (
                (seed_from, os.environ[seed_from] if seed_from == "PARTSIM_SEED" else args.seed,
                 parse_integer, 0),
                ("--frames", args.frames, parse_integer, 1),
                ("--until", args.until, parse_duration, 0)):
            values[where] = None if text is None else parse(text)
            if text is not None and values[where] < least:
                raise ValueError(f"must be {'positive' if least else 'non-negative'}, got {text!r}")
        for where in ("--frames", "--until", "--trace"):
            if getattr(args, where[2:]) and scenario.mode is results.Mode.BROKER:
                raise ValueError("not read by a broker scenario")
    except ValueError as exc:
        print(f"error: {where}: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    seed, frames, until = values.values()

    try:
        result = harness.run_scenario(scenario, until=until, frames=frames, seed=seed)
    except (harness.MeasurementError, harness.WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out_path = args.out or f"{scenario.name}.csv"
    try:
        results.export_csv(result, out_path)
        if args.trace:
            trace_mod.write_trace(result.trace, args.trace)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if result.conditions:
        for line in results.summary_lines(
                {(c.scenario, c.payload_bytes, c.mode.value): c for c in result.conditions}):
            print(line)
    else:
        print("no data")
    if result.halted:
        print("error: run ended by HALT_SYSTEM", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import results

    conditions = {}
    try:
        for path in args.csv_paths:
            results.read_csv(path, conditions)
        lines = results.summary_lines(conditions)
    except (OSError, results.CsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not conditions:
        print("no data")
        return EXIT_OK
    for line in lines:
        print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
