"""Command-line interface: ``partsim validate|run|report``.

Exit codes are stable: 0 success, 1 validation findings, an invalid
scenario or a bad argument, 2 runtime fault (system halt, failed
measurement, a lost broker worker process), 3 I/O or malformed input
files.  ``PARTSIM_SEED`` is the fallback when --seed is not given; a bad
flag or ``PARTSIM_SEED`` is one stderr line ``error: <flag or variable>:
<message>``.  All output is deterministic for fixed inputs and seed.

The command line is read from one table, ``_COMMANDS``, by argparse's
rules.  The command comes first; its flags and positionals follow in
any order, a flag as ``--flag value`` or ``--flag=value``, and the last
of a repeated flag wins.  ``--`` ends the flags.  A flag value may be
``-`` or a negative number.  ``-h``/``--help`` prints the help and exits
0.  A flag must be written in full: an abbreviation such as ``--fr``, or
a flag before the command, is an unrecognized argument.  A usage error
exits 1 with a usage line and ``<prog>: error: <message>`` on stderr,
e.g. ``partsim: error: unrecognized arguments: --bogus`` or ``partsim
report: error: the following arguments are required: csv_paths``; a bad
flag value is found later, e.g. ``error: --frames: bad integer 'abc'``.

Each subcommand imports the partsim modules it needs when it runs, so
``validate`` loads only ``config`` and ``units``, not the engine, and
``report`` loads only ``results``.
"""

from __future__ import annotations

import contextlib
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

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


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file: the same inode when both exist (a
    hard link, a symlink, a case-insensitive name), else the same resolved
    path."""
    try:
        return os.path.samefile(path, other)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(path) == os.path.realpath(other)


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
            values[where] = None if text is None else parse(text, least)
        for where in ("--frames", "--until", "--trace"):
            if getattr(args, where[2:]) is not None and scenario.mode is results.Mode.BROKER:
                raise ValueError("not read by a broker scenario")
        out_path = f"{scenario.name}.csv" if args.out is None else args.out
        for where, path, other, named in (
                ("--out", out_path, args.scenario_path, "the scenario"),
                ("--trace", args.trace, args.scenario_path, "the scenario"),
                ("--trace", args.trace, out_path, "--out")):
            if path == "":
                raise ValueError("empty path")
            if path and _same_file(path, other):
                raise ValueError(f"names the same file as {named}")
    except ValueError as exc:
        print(f"error: {where}: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    seed, frames, until = values.values()

    try:
        result = harness.run_scenario(scenario, until=until, frames=frames, seed=seed)
    except (harness.MeasurementError, harness.WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace and (records := result.trace.record_count()) > trace_mod.MAX_RECORDS:
        print(f"error: --trace: {records:,} records, more than the limit of "
              f"{trace_mod.MAX_RECORDS:,}", file=sys.stderr)
        return EXIT_FINDINGS

    # both outputs are opened before either is written, and an I/O error
    # removes each regular file this run opened: it leaves no partial output
    outputs = [(out_path, results.export_csv, result)]
    if args.trace:
        outputs.append((args.trace, trace_mod.write_trace, result.trace))
    opened = []
    try:
        for path, _, _ in outputs:
            open(path, "wb").close()
            opened.append(path)
        for path, write, data in outputs:
            write(data, path)
    except OSError as exc:
        for path in filter(os.path.isfile, opened):  # not a device or a pipe
            with contextlib.suppress(OSError):
                os.remove(os.path.realpath(path))
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


# command: (its function, help, positional, whether the positional takes one
# or more values, {flag: its value}); each flag takes one value, and every
# command also has -h/--help
_COMMANDS = {
    "validate": (_cmd_validate, "check a system description document", "config_path", False, {}),
    "run": (_cmd_run, "run a scenario and export its CSV", "scenario_path", False,
            {"--out": "CSV", "--frames": "N", "--until": "DUR", "--seed": "N", "--trace": "PATH"}),
    "report": (_cmd_report, "summarize one or more result CSVs", "csv_paths", True, {}),
}
_EXCLUDES = {"--frames": "--until", "--until": "--frames"}  # at most one of the two
_HELP = ("-h", "--help")


def _exit(command: str | None, error: str = ""):
    """Exit 0 after the help of ``partsim <command>`` (of ``partsim`` when
    ``command`` is None), or exit 1 after its usage line and ``error``."""
    prog = f"partsim {command}" if command else "partsim"
    _, about, positional, many, flags = _COMMANDS.get(command) or (
        None, "\n".join(f"  {name:<10}{entry[1]}" for name, entry in _COMMANDS.items()),
        "{%s} ..." % ",".join(_COMMANDS), False, {})
    print(" ".join([f"usage: {prog} [-h]", *(f"[{flag} {value}]" for flag, value in flags.items()),
                    positional, *[f"[{positional} ...]"] * many]),
          f"{prog}: error: {error}" if error else about,
          sep="\n", file=sys.stderr if error else sys.stdout)
    raise SystemExit(EXIT_FINDINGS if error else EXIT_OK)


def _is_flag(token: str, flags) -> bool:
    """Whether argparse reads ``token`` as a flag, known or not: ``-``, a
    negative number and a word with a space are values."""
    return token[:1] == "-" and token != "-" and (token.partition("=")[0] in flags or
                                                  not re.search(r"^-\d+$|^-\d*\.\d+$| ", token))


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace ``main`` reads: ``command``, the command's positional
    and, for ``run``, each flag's value or None."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        _exit(None, "" if command in _HELP else
              "the following arguments are required: command" if command is None else
              f"unrecognized arguments: {command}" if command[:1] == "-" else
              f"argument command: invalid choice: {command!r} "
              f"(choose from {', '.join(map(repr, _COMMANDS))})")
    _, _, positional, many, flags = _COMMANDS[command]
    values, words, extra, ended = dict.fromkeys(flags), [], [], False
    for token in (tokens := iter(argv[1:])):
        flag, eq, value = token.partition("=")
        if token == "--" and not ended:
            ended = True
        elif token in _HELP and not ended:
            _exit(command)
        elif flag not in flags or ended:  # a word, or an unknown flag
            (words if (ended or not _is_flag(token, flags)) and (many or not words)
             else extra).append(token)
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value, flags):  # "--" too: it ends the flags
                    _exit(command, f"argument {flag}: expected one argument")
            if values.get(_EXCLUDES.get(flag)) is not None:
                _exit(command, f"argument {flag}: not allowed with argument {_EXCLUDES[flag]}")
            values[flag] = value
    if not words:
        _exit(command, f"the following arguments are required: {positional}")
    if extra:
        _exit(None, f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, **{positional: words if many else words[0]},
                           **{flag[2:]: value for flag, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return _COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
