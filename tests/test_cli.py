"""CLI contract: subcommands, exit codes, deterministic outputs."""

import ast
import contextlib
import errno
import io
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from partsim import cli
from partsim.cli import main
from partsim.harness import parse_scenario, run_scenario
from partsim.health import DEFAULT_ACTIONS, HealthAction, HmKind
from partsim.middleware import BrokerTopology, LinkModel, LoadProfile, repetition_rng, tx_time
from partsim.results import CSV_COLUMNS
from partsim.trace import HmRecord

from conftest import (
    COOKBOOK_XML,
    REPO_ROOT,
    SCENARIO_DIR,
    Row,
    make_cookbook_scenario,
    parse_rows,
)
from refmodels import argparse_parser

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
OVERLAPPING = COOKBOOK_XML.replace('start="500us"', 'start="300us"')


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _src_env() -> dict:
    """The environment of a ``python -m partsim`` child that imports this tree."""
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return {**os.environ, "PYTHONPATH": pythonpath}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_validate_clean(workdir, capsys):
    path = write(workdir / "ok.xml", COOKBOOK_XML)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == ""


def test_validate_findings(workdir, capsys):
    path = write(workdir / "bad.xml", OVERLAPPING)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("ERROR SLOT_OVERLAP")


def test_validate_missing_file(workdir):
    assert main(["validate", "nowhere.xml"]) == 3


def test_validate_malformed_xml(workdir, capsys):
    path = write(workdir / "oops.xml", "<SystemDescription")
    assert main(["validate", path]) == 1
    assert "XML_SYNTAX" in capsys.readouterr().out


COOKBOOK_SYSTEM = (SCENARIO_DIR / "cookbook.xml").read_text(encoding="utf-8")
PARTITIONS = COOKBOOK_SYSTEM[COOKBOOK_SYSTEM.index("    <Partition "):
                             COOKBOOK_SYSTEM.index("  </PartitionTable>")]
CHANNEL = """    <QueuingChannel maxMessageSize="64" maxNoMessages="16">
      <Source partition="0" port="{}"/>
      <Destination partition="1" port="{}"/>
    </QueuingChannel>
"""


@pytest.mark.parametrize("old, new, finding", [
    ('duration="400us"/>\n    <Slot id="1"', 'duration="0us"/>\n    <Slot id="1"',
     "ERROR SLOT_EMPTY Slot 0 slot duration must be positive"),
    ('<Slot id="1"', '<Slot id="0"', "ERROR DUPLICATE_SLOT Slot 0 slot id is not unique"),
    (PARTITIONS, "", "ERROR NO_PARTITIONS PartitionTable at least one partition is required"),
    ('<Slot id="1" partition="1"', '<Slot id="1" partition="7"',
     "ERROR UNKNOWN_PARTITION Slot 1 references missing partition 7"),
    ("  </Channels>", CHANNEL.format("out", "in2") + "  </Channels>",
     "ERROR DUPLICATE_PORT Channel 1 source port (0, 'out') already bound by Channel 0"),
    ("  </Channels>", CHANNEL.format("out2", "in") + "  </Channels>",
     "ERROR DUPLICATE_PORT Channel 1 destination port (1, 'in') already bound by Channel 0"),
], ids=["SLOT_EMPTY", "DUPLICATE_SLOT", "NO_PARTITIONS", "UNKNOWN_PARTITION",
        "DUPLICATE_PORT_source", "DUPLICATE_PORT_destination"])
def test_validate_reports_each_finding_where_it_is(old, new, finding, workdir, capsys):
    """One edit of the shipped cookbook system makes ``validate`` report
    the finding, located, and exit 1."""
    assert COOKBOOK_SYSTEM.count(old) == 1
    path = write(workdir / "bad.xml", COOKBOOK_SYSTEM.replace(old, new))
    assert main(["validate", path]) == 1
    assert finding in capsys.readouterr().out.splitlines()


def test_run_cookbook(workdir, capsys):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=100))
    assert main(["run", scn, "--out", "cb.csv", "--trace", "cb.trace"]) == 0
    lines = (workdir / "cb.csv").read_text().splitlines()
    assert len(lines) == 101
    assert lines[0] == ",".join(CSV_COLUMNS)
    out = capsys.readouterr().out
    assert "400000" in out and "4.000000" in out
    assert (workdir / "cb.trace").exists()


def test_run_default_out_name(workdir):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=2))
    assert main(["run", scn]) == 0
    assert (workdir / "cookbook.csv").exists()


def test_run_invalid_scenario(workdir):
    scn = write(workdir / "broken.scn", "name = x\nmode = partitioned\n")  # no system
    assert main(["run", scn]) == 1


def test_run_missing_scenario(workdir, capsys):
    assert main(["run", "nowhere.scn"]) == 3
    write(workdir / "x.scn", "name = x\nmode = partitioned\nsystem_file = missing.xml\n")
    capsys.readouterr()
    assert main(["run", "x.scn"]) == 3
    assert capsys.readouterr().err == (
        "error: system_file: [Errno 2] No such file or directory: 'missing.xml'\n")


def test_until_frame_wraps(workdir):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    assert main(["run", scn, "--until", "10ms", "--trace", "t.trace", "--out", "o.csv"]) == 0
    wraps = [l for l in (workdir / "t.trace").read_text().splitlines() if ",FRAME_WRAP," in l]
    assert len(wraps) == 10


def test_frames_flag(workdir):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    assert main(["run", scn, "--frames", "3", "--trace", "t.trace", "--out", "o.csv"]) == 0
    wraps = [l for l in (workdir / "t.trace").read_text().splitlines() if ",FRAME_WRAP," in l]
    assert len(wraps) == 3


def test_seed_changes_broker_but_not_partitioned(workdir):
    broker = write(workdir / "br.scn", (SCENARIO_DIR / "broker.scn").read_text())
    part = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=5))
    main(["run", broker, "--out", "b1.csv", "--seed", "1"])
    main(["run", broker, "--out", "b2.csv", "--seed", "2"])
    main(["run", part, "--out", "p1.csv", "--seed", "1"])
    main(["run", part, "--out", "p2.csv", "--seed", "2"])
    assert (workdir / "b1.csv").read_bytes() != (workdir / "b2.csv").read_bytes()
    assert (workdir / "p1.csv").read_bytes() == (workdir / "p2.csv").read_bytes()


def test_env_seed_fallback(workdir, monkeypatch):
    broker = write(workdir / "br.scn", (SCENARIO_DIR / "broker.scn").read_text())
    monkeypatch.setenv("PARTSIM_SEED", "1")
    main(["run", broker, "--out", "env.csv"])
    monkeypatch.delenv("PARTSIM_SEED")
    main(["run", broker, "--out", "flag.csv", "--seed", "1"])
    assert (workdir / "env.csv").read_bytes() == (workdir / "flag.csv").read_bytes()


def test_malformed_until_is_a_finding(workdir, capsys):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    assert main(["run", scn, "--until", "1xs", "--out", "o.csv"]) == 1
    err = capsys.readouterr().err
    assert "--until" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, code, named", [
    pytest.param(("run", "cb.scn", "--frames", "abc"), 1, "--frames: bad integer 'abc'",
                 id="frames_abc"),
    pytest.param(("run", "cb.scn", "--frames", "1_0"), 1, "--frames: bad integer '1_0'",
                 id="frames_underscore"),
    pytest.param(("run", "cb.scn", "--seed", "٣"), 1, "--seed: bad integer '٣'",
                 id="seed_unicode_digit"),
    pytest.param(("run", "cb.scn", "--until", "٣ms"), 1, "--until: bad duration '٣ms'",
                 id="until_unicode_digit"),
    pytest.param(("run", "cb.scn", "--frames"), 1, "argument --frames: expected one argument",
                 id="frames_without_value"),
    pytest.param(("run", "cb.scn", "--frames", "1", "--until", "1ms"), 1,
                 "argument --until: not allowed", id="both_bounds"),
    pytest.param(("run", "cb.scn", "--bogus"), 1, "unrecognized arguments: --bogus",
                 id="unknown_flag"),
    pytest.param(("report",), 1, "the following arguments are required: csv_paths",
                 id="report_without_path"),
    pytest.param(("bogus",), 1, "argument command: invalid choice: 'bogus'",
                 id="unknown_command"),
    pytest.param(("run", "-h"), 0, "", id="help"),
])
def test_flag_errors_exit_1(workdir, capsys, flags, code, named):
    write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    try:
        exit_code = main(list(flags))
    except SystemExit as exc:
        exit_code = exc.code
    err = capsys.readouterr().err
    assert (exit_code, named in err, "Traceback" in err) == (code, True, False), err
    assert not (workdir / "cookbook.csv").exists()


ARGPARSE = argparse_parser()
RUN_FLAGS = ("--out", "--frames", "--until", "--seed", "--trace")
# values argparse reads apart from flags: "-", negative numbers, "" and
# words with a space
VALUES = ("-", "-1", "-1ms", "-.5", "", "-x y", "--", "-h", "--frames", "x", "3")
# -h and --help are drawn bare: argparse refuses "-hx", "-h=x", "--help=x"
# and "-h x" as an "ignored explicit argument", where partsim reads an
# unknown flag or, with the space, a word (see CHANGES.md)
FLAG_IS_VALUE = tuple(f"{flag}={value}" for flag in RUN_FLAGS for value in VALUES)
TOKENS = RUN_FLAGS + VALUES + ("--help", "--bogus", "--fr", "-x", "a.scn")
# argv after the command is made of these words: a flag and its value, a
# flag written with its value, one token, and "--" with the token after it
WORDS = st.one_of(
    st.sampled_from([(flag, value) for flag in RUN_FLAGS for value in VALUES + FLAG_IS_VALUE]),
    st.sampled_from([(token,) for token in FLAG_IS_VALUE + TOKENS]),
    st.sampled_from([("--", token) for token in RUN_FLAGS + VALUES]),
)
ARGV_TAILS = st.lists(WORDS, max_size=7).map(lambda words: [t for word in words for t in word][:7])
REFUSAL = re.compile(
    r"partsim(?: \w+)?: error: (?:argument (?P<flag>--\w+): (?:expected one argument"
    r"|not allowed with argument (?P<other>--\w+))"
    r"|unrecognized arguments: (?P<extra>.*)"
    r"|the following arguments are required: (?P<missing>\w+)"
    r"|argument command: invalid choice: (?P<choice>.*)"
    r" \(choose from 'validate', 'run', 'report'\))")


def _parsed(parse, argv: list[str]) -> tuple:
    """``(exit code, namespace, last stderr line)`` of one parse; an
    accepted argv has the exit code None."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return None, vars(parse(argv)), ""
        except SystemExit as exc:
            return exc.code, None, err.getvalue().splitlines()[-1] if exc.code else ""


@settings(deadline=None, max_examples=200)
@example("run", ["a.scn", "--frames=1", "--until", "-1"])
@example("run", ["a.scn", "--out", "--trace=-x y"])
@example("run", ["--seed", "-.5", "-.5"])
@given(st.just("run") | st.sampled_from(("validate", "report", "bogus")), ARGV_TAILS)
def test_the_command_line_is_read_as_argparse_reads_it(command, tokens):
    """``partsim`` and the argparse reference accept the same argv into
    the same namespace, or exit with the same code; a refusal's last line
    names a token of argv or the argument that is missing."""
    argv = [command, *tokens]
    ours, theirs = _parsed(cli._parse, argv), _parsed(ARGPARSE.parse_args, argv)
    # two kept differences (see CHANGES.md): argparse drops an explicit "--"
    # value ("--seed=--" gives the seed []), and it refuses a "--" that comes
    # after the positional and a flag ("run a --seed 1 --") as unrecognized
    if any(f"{flag}=--" in tokens for flag in RUN_FLAGS) or (
            ours[0] is None and theirs[2] == "partsim: error: unrecognized arguments: --"):
        return
    assert ours[:2] == theirs[:2]
    if ours[0] == 1:
        # the same line, but argparse may also list a "--", or the later
        # paths of a report, as unrecognized arguments
        assert ours[2].partition("arguments: ")[0] == theirs[2].partition("arguments: ")[0]
        refusal = REFUSAL.fullmatch(ours[2])
        named = {token.partition("=")[0] for token in argv}
        words = {word for token in argv for word in token.split(" ")}
        assert refusal, ours[2]
        assert (refusal["flag"] in named and refusal["other"] in {None, *named}
                or refusal["extra"] is not None and set(refusal["extra"].split(" ")) <= words
                or refusal["missing"] == {"validate": "config_path", "run": "scenario_path",
                                          "report": "csv_paths"}.get(command)
                or refusal["choice"] == repr(command)), ours[2]


@pytest.mark.parametrize("argv", [["-h"], ["validate", "-h"], ["run", "-h"],
                                  ["report", "--help"]])
def test_help_exits_0_and_names_every_command_and_flag(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    entry = cli._COMMANDS.get(argv[0])
    names = [entry[2], *entry[4]] if entry else list(cli._COMMANDS)
    out = capsys.readouterr().out
    assert done.value.code == 0 and all(name in out for name in names), out


@pytest.mark.parametrize("flags, named", [
    pytest.param(("cb.scn", "--out", "cb.scn"), "--out: names the same file as the scenario",
                 id="out_is_scenario"),
    pytest.param(("scenario.csv",), "--out: names the same file as the scenario",
                 id="default_out_is_scenario"),
    pytest.param(("cb.scn", "--out", "hard.scn"), "--out: names the same file as the scenario",
                 id="out_is_hard_link_to_scenario"),
    pytest.param(("link.scn", "--out", "./cb.scn"),
                 "--out: names the same file as the scenario", id="out_resolves_to_scenario"),
    pytest.param(("cb.scn", "--out", "o.csv", "--trace", "cb.scn"),
                 "--trace: names the same file as the scenario", id="trace_is_scenario"),
    pytest.param(("cb.scn", "--out", "same.out", "--trace", "same.out"),
                 "--trace: names the same file as --out", id="trace_is_out"),
    pytest.param(("cb.scn", "--trace", "./cookbook.csv"), "--trace: names the same file as --out",
                 id="trace_is_default_out"),
])
def test_an_output_that_names_an_input_or_the_other_output_exits_1(workdir, capsys, flags, named):
    """A run whose CSV path (``--out`` or the default ``<name>.csv``),
    ``--trace`` and scenario path name one file in two places is refused
    before it runs, and every file is left as it was."""
    text = make_cookbook_scenario(repetitions=1)
    write(workdir / "cb.scn", text)
    write(workdir / "scenario.csv", text.replace("name = cookbook", "name = scenario"))
    os.link(workdir / "cb.scn", workdir / "hard.scn")
    os.symlink("cb.scn", workdir / "link.scn")
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert main(["run", *flags]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def _write_half_then_fail(trace, path):
    Path(path).write_text("0,SLOT_START,0,0\n")
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("flags, fault, error", [
    pytest.param(("--out", "o.csv", "--trace", "nodir/t.trace"), None,
                 "[Errno 2] No such file or directory: 'nodir/t.trace'", id="bad_trace"),
    pytest.param(("--out", "nodir/o.csv", "--trace", "old.trace"), None,
                 "[Errno 2] No such file or directory: 'nodir/o.csv'", id="bad_out"),
    pytest.param(("--out", "o.csv", "--trace", "t.trace"), _write_half_then_fail,
                 "[Errno 28] No space left on device", id="trace_write_fails"),
])
def test_an_output_that_cannot_be_written_leaves_no_partial_output(
        workdir, capsys, monkeypatch, flags, fault, error):
    """Exit 3 with one error line, and no output that this run opened is
    left, a half-written one included; a file the run did not open (an
    existing trace, when ``--out`` cannot be opened) is left as it was."""
    from partsim import trace as trace_mod

    if fault is not None:
        monkeypatch.setattr(trace_mod, "write_trace", fault)
    write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    write(workdir / "old.trace", "an earlier run's trace\n")
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert main(["run", "cb.scn", *flags]) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def _file_size_limit():
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))


@pytest.mark.parametrize("frames", [10**9, 10**30])
def test_a_trace_over_the_limit_is_refused_before_any_output(workdir, frames):
    """A run whose trace would hold more than ``trace.MAX_RECORDS`` records
    exits 1 with one error line that names the count and the limit, and
    writes neither output.  The run fast-forwards, so it ends at once; a
    partsim that wrote such a trace would be stopped by the 1 MiB file size
    limit or the timeout, not fill the disk."""
    proc = subprocess.run(
        [sys.executable, "-m", "partsim", "run", str(SCENARIO_DIR / "cookbook.scn"),
         "--frames", str(frames), "--out", "o.csv", "--trace", "t.trace"],
        capture_output=True, text=True, cwd=workdir, timeout=60, preexec_fn=_file_size_limit,
        env=_src_env(),
    )
    records = 5 * frames + 11  # 16 records in the cookbook's first frame, 5 in each later one
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: --trace: {records:,} records, more than the limit of 10,000,000\n")
    assert list(workdir.iterdir()) == []


def test_the_trace_limit_counts_every_record(workdir, capsys, monkeypatch):
    """The limit is on the records the trace file would hold, repeated
    copies included: a trace of exactly the limit is written."""
    from partsim import trace as trace_mod

    scn = str(SCENARIO_DIR / "cookbook.scn")
    monkeypatch.setattr(trace_mod, "MAX_RECORDS", 5 * 40 + 11)
    assert main(["run", scn, "--frames", "40", "--out", "o.csv", "--trace", "t.trace"]) == 0
    assert len((workdir / "t.trace").read_text().splitlines()) == 5 * 40 + 11
    capsys.readouterr()
    assert main(["run", scn, "--frames", "41", "--out", "p.csv", "--trace", "p.trace"]) == 1
    assert capsys.readouterr() == ("", "error: --trace: 216 records, more than the limit of 211\n")
    assert sorted(path.name for path in workdir.iterdir()) == ["o.csv", "t.trace"]


def test_no_flag_of_one_call_reaches_the_next(workdir, capsys):
    """No flag of one ``main`` call reaches the next in one process: a run
    after a ``--frames 3`` run and a refused ``--frames`` call stops at the
    scenario's ``max_frames``."""
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=1))
    with pytest.raises(SystemExit) as refused:
        main(["run", scn, "--frames", "1", "--until", "1ms"])
    assert refused.value.code == 1
    assert main(["run", scn, "--frames", "3", "--out", "f.csv", "--trace", "f.trace"]) == 0
    assert main(["run", scn, "--out", "m.csv", "--trace", "m.trace"]) == 0
    wraps = [(workdir / name).read_text().count(",FRAME_WRAP,") for name in ("f.trace", "m.trace")]
    assert wraps == [3, 2]  # make_cookbook_scenario sets max_frames = 2


@pytest.mark.parametrize("value", ["x", "-1", "1_0", "+1", "٣"])
def test_malformed_env_seed_is_a_finding(workdir, monkeypatch, capsys, value):
    broker = write(workdir / "br.scn", (SCENARIO_DIR / "broker.scn").read_text())
    monkeypatch.setenv("PARTSIM_SEED", value)
    assert main(["run", broker, "--out", "o.csv"]) == 1
    err = capsys.readouterr().err
    assert "PARTSIM_SEED: " in err and "Traceback" not in err
    assert not (workdir / "o.csv").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_max_frames_exits_1(workdir, capsys, value):
    text = make_cookbook_scenario(repetitions=1).replace("max_frames = 2", f"max_frames = {value}")
    scn = write(workdir / "mf.scn", text)
    assert main(["run", scn, "--out", "o.csv"]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid scenario: max_frames: must be positive, got '{value}'\n")


def test_halt_system_exit_code(workdir):
    scn = write(
        workdir / "halt.scn",
        make_cookbook_scenario(
            repetitions=1,
            extra_sections="[health]\nSLOT_OVERRUN = HALT_SYSTEM\n",
        ).replace("compute 100us", "compute 450us"),
    )
    assert main(["run", scn, "--out", "h.csv"]) == 2


def test_report_single_csv_matches_run(workdir, capsys):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=10))
    main(["run", scn, "--out", "r.csv"])
    run_out = capsys.readouterr().out
    assert main(["report", "r.csv"]) == 0
    report_out = capsys.readouterr().out
    assert report_out == run_out


def test_report_merges_repetition_counts(workdir, capsys):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=10))
    main(["run", scn, "--out", "a.csv"])
    main(["run", scn, "--out", "b.csv"])
    capsys.readouterr()
    assert main(["report", "a.csv", "b.csv"]) == 0
    out = capsys.readouterr().out
    assert "    20 " in out  # combined n = 10 + 10


def test_report_keeps_modes_apart(workdir, capsys):
    """A partitioned and a broker CSV with the same scenario and payload are
    two conditions: each mode gets its own summary line."""
    cb = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=10))
    bk = write(workdir / "bk.scn", (SCENARIO_DIR / "broker.scn").read_text()
               .replace("name = broker", "name = cookbook")
               .replace("payload_sizes = 1,1000000,6000000", "payload_sizes = 64")
               .replace("repetitions = 100", "repetitions = 20"))
    main(["run", cb, "--out", "cb.csv"])
    main(["run", bk, "--out", "bk.csv"])
    capsys.readouterr()
    assert main(["report", "cb.csv", "bk.csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[:4] for line in lines] == [
        ["cookbook", "64", "20", "tx_delay"],
        ["cookbook", "64", "10", "latency"],
    ]


def test_report_header_only(workdir, capsys):
    (workdir / "empty.csv").write_text(",".join(CSV_COLUMNS) + "\n")
    assert main(["report", "empty.csv"]) == 0
    assert "no data" in capsys.readouterr().out


HEADER = ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("files, where", [
    pytest.param({"a.csv": ["b,broker,0,1,,,,,,,,"]}, "a.csv:2", id="lone_row"),
    pytest.param({"a.csv": ["b,broker,0,1,,,,,,5,8,3", "c,broker,0,1,,,,,,,,"],
                  "b.csv": ["c,broker,1,1,,,,,,,,"]}, "a.csv:3", id="second_condition"),
    pytest.param({"a.csv": ["b,broker,0,1,,,,,,5,8,3"],
                  "b.csv": ["b,broker,0,2,,,,,,,,", "b,broker,1,2,,,,,,,,"]},
                 "b.csv:2", id="second_file"),
])
def test_report_condition_without_a_metric_exits_3(workdir, capsys, files, where):
    """A condition none of whose rows has a latency or tx_delay cell is
    malformed input: exit 3, naming the condition's first row."""
    for name, rows in files.items():
        (workdir / name).write_text("\n".join([HEADER, *rows]) + "\n")
    assert main(["report", *files]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {where}: no row carries latency_ns or tx_delay_ns\n"


def test_report_merges_conditions_across_rows_and_files(workdir, capsys):
    """Rows of one (scenario, payload, mode) condition merge wherever they
    stand; the metric is latency when any row has one, its values are the
    cells present, and the gap is the first non-zero one in row order."""
    (workdir / "a.csv").write_text("\n".join([
        HEADER,
        "p,partitioned,0,64,0,10,10,0,,,,",
        "q,broker,0,1,,,,,,5,8,3",
        "p,partitioned,1,64,0,30,30,100,0.300000,,,",
    ]) + "\n")
    (workdir / "b.csv").write_text("\n".join([
        HEADER,
        "p,partitioned,2,64,,,,,,,,5",
        "q,broker,1,1,,,,,,5,4,-1",
        "p,partitioned,3,64,0,20,20,200,0.100000,,,",
        "q,broker,2,1,,,,,,,,",
    ]) + "\n")
    assert main(["report", "b.csv", "a.csv"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()[1:]] == [
        ["p", "64", "3", "latency", "20", "10", "30", "20", "30", "200", "0.100000", "-90.0%"],
        ["q", "1", "2", "tx_delay", "1", "-1", "3", "-1", "3", "-", "-", "-"],
    ]


def test_report_reads_only_what_run_writes(workdir, capsys):
    """A cell that int() would take but ``export_csv`` never writes exits 3
    naming its line."""
    (workdir / "a.csv").write_text(f"{HEADER}\nb,broker,0,1,,,,,,300,100,-200\n"
                                   "b,broker,1,1_0,,,,,,300,100,-200\n")
    assert main(["report", "a.csv"]) == 3
    assert capsys.readouterr() == (
        "", "error: a.csv:3: payload_bytes: expected an integer, got '1_0'\n")


def test_report_malformed_csv(workdir):
    (workdir / "junk.csv").write_text("this,is,not,a,result\n")
    assert main(["report", "junk.csv"]) == 3


def test_module_entry_point(workdir):
    scn = write(workdir / "cb.scn", make_cookbook_scenario(repetitions=2))
    proc = subprocess.run(
        [sys.executable, "-m", "partsim", "run", scn, "--out", "sub.csv"],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "sub.csv").exists()


BROKER_TEXT = (SCENARIO_DIR / "broker.scn").read_text()


def add_to_broker(extra):
    """The shipped broker scenario with ``extra`` spliced in before its
    sections."""
    return BROKER_TEXT.replace("\n[broker]", f"\n{extra}\n[broker]")


@pytest.mark.parametrize("text, named", [
    pytest.param(make_cookbook_scenario().replace("repetitions = 3", "repetitions = abc"),
                 "repetitions", id="repetitions"),
    pytest.param(make_cookbook_scenario().replace("seed = 1", "seed = x"),
                 "seed", id="seed"),
    pytest.param(make_cookbook_scenario().replace("seed = 1", "seed = -1"),
                 "seed: must be non-negative, got '-1'", id="negative_seed"),
    pytest.param(BROKER_TEXT.replace("seed = 7", "seed = -7"),
                 "seed: must be non-negative, got '-7'", id="broker_negative_seed"),
    pytest.param(BROKER_TEXT.replace("repetitions = 100", "repetitions = 333335"),
                 "ROWS scenario payload sizes x load pairs x repetitions = 1000005",
                 id="broker_draws_over_stride"),
    pytest.param(make_cookbook_scenario().replace("payload_sizes = 64", "payload_sizes = 6x"),
                 "payload_sizes", id="payload_sizes"),
    pytest.param(make_cookbook_scenario(payloads="64,8,64"),
                 "PAYLOAD scenario payload sizes must be distinct", id="duplicate_payload"),
    pytest.param(BROKER_TEXT.replace("payload_sizes = 1,1000000,6000000", "payload_sizes = 1,1"),
                 "PAYLOAD scenario payload sizes must be distinct",
                 id="broker_duplicate_payload"),
    pytest.param(make_cookbook_scenario().replace("name = cookbook", "name = "),
                 "NAME scenario name must not be empty", id="empty_name"),
    pytest.param(make_cookbook_scenario(payloads=""),
                 "payload_sizes: empty item in ''", id="empty_payload_sizes"),
    pytest.param(make_cookbook_scenario(payloads=","),
                 "payload_sizes: empty item in ','", id="comma_payload_sizes"),
    pytest.param(make_cookbook_scenario(payloads="64,,8"),
                 "payload_sizes: empty item in '64,,8'", id="empty_payload_item"),
    pytest.param(BROKER_TEXT.replace("payload_sizes = 1,1000000,6000000", "payload_sizes = "),
                 "payload_sizes: empty item in ''", id="broker_empty_payload_sizes"),
    pytest.param(BROKER_TEXT.replace("payload_sizes = 1,1000000,6000000", "payload_sizes = ,"),
                 "payload_sizes: empty item in ','", id="broker_comma_payload_sizes"),
    pytest.param(BROKER_TEXT.replace("payload_sizes = 1,1000000,6000000", "payload_sizes = 1,,2"),
                 "payload_sizes: empty item in '1,,2'", id="broker_empty_payload_item"),
    pytest.param(BROKER_TEXT.replace("uplink = base=200us per_byte=0ns jitter=50us",
                                     "uplink = base=200us base=9ms jitter=0ns"),
                 "[broker] uplink: duplicate link field 'base'", id="broker_duplicate_link_field"),
    pytest.param(BROKER_TEXT.replace("uplink = base=200us per_byte=0ns jitter=50us", "uplink = "),
                 "[broker] uplink: expected base=, per_byte= or jitter= fields",
                 id="broker_empty_link"),
    pytest.param(make_cookbook_scenario().replace("[script 1]", "[script one]"),
                 "[script one]", id="script_id"),
    pytest.param(make_cookbook_scenario().replace("compute 100us", "compute 100xs"),
                 "[script 0]", id="script_duration"),
    pytest.param(BROKER_TEXT.replace("load_factor = 1.0", "load_factor = fast"),
                 "[broker] load_factor", id="load_factor"),
    pytest.param(BROKER_TEXT.replace("proc_fixed = 20us", "proc_fixed = 20xs"),
                 "[broker] proc_fixed", id="proc_fixed"),
    # the range checks of the broker values, reached from a scenario
    pytest.param(BROKER_TEXT.replace("load_factor = 1.0", "load_factor = -1.0"),
                 "[broker] load_factor: must be non-negative, got '-1.0'",
                 id="load_factor_negative"),
    pytest.param(BROKER_TEXT.replace("0.0,0.0 -> 1.0,0.75", "0.0,0.0 -> 1.5,0.75"),
                 "[loads] stressed: cpu_load must be in [0,1], got 1.5", id="loads_cpu_over_one"),
    pytest.param(BROKER_TEXT.replace("0.0,0.0 -> 1.0,0.75", "0.5,-0.1 -> 1.0,0.75"),
                 "[loads] relaxed: memory_load must be in [0,1], got -0.1",
                 id="loads_mem_negative"),
    *(pytest.param(BROKER_TEXT.replace("load_factor = 1.0", f"load_factor = {text}"),
                   f"[broker] load_factor: bad fraction '{text}'", id=f"load_factor_{text}")
      for text in ("inf", "nan")),
    *(pytest.param(BROKER_TEXT.replace(old, new), named, id=label) for old, new, named, label in (
        ("uplink = base=200us", "uplink = base=-200us",
         "[broker] uplink: negative duration '-200us'", "link_base_negative"),
        ("downlink = base=200us per_byte=0ns", "downlink = base=200us per_byte=-1ns",
         "[broker] downlink: negative duration '-1ns'", "link_per_byte_negative"),
        ("jitter=50us\ndownlink", "jitter=-50us\ndownlink",
         "[broker] uplink: negative duration '-50us'", "link_jitter_negative"),
        ("proc_fixed = 20us", "proc_fixed = -20us",
         "[broker] proc_fixed: negative duration '-20us'", "proc_fixed_negative"),
        ("proc_per_byte = 5ns", "proc_per_byte = -5ns",
         "[broker] proc_per_byte: negative duration '-5ns'", "proc_per_byte_negative"),
        ("payload_sizes = 1,1000000,6000000", "payload_sizes = 0",
         "payload_sizes: must be positive, got '0'", "broker_zero_payload"),
    )),
    pytest.param(BROKER_TEXT.replace("subscribers = 1", "subscribers = 0"),
                 "[broker] subscribers", id="subscribers_0"),
    pytest.param(BROKER_TEXT.replace("subscribers = 1", "subscribers = 3"),
                 "[broker] subscribers", id="subscribers_3"),
    pytest.param(BROKER_TEXT.replace("subscribers = 1", "subscribers = abc"),
                 "[broker] subscribers", id="subscribers_abc"),
    pytest.param(make_cookbook_scenario().replace("seed = 1", "seed = 1\nrepetitions = 5"),
                 "repetitions: duplicate key", id="duplicate_top_key"),
    pytest.param(BROKER_TEXT.replace("proc_fixed = 20us", "proc_fixed = 20us\nproc_fixed = 30us"),
                 "[broker] proc_fixed: duplicate key", id="duplicate_broker_key"),
    pytest.param(make_cookbook_scenario(extra_sections=(
        "[health]\nMEMORY_VIOLATION 1 = LOG\nMEMORY_VIOLATION 1 = HALT_SYSTEM\n")),
        "[health] MEMORY_VIOLATION 1: duplicate key", id="duplicate_health_key"),
    pytest.param(make_cookbook_scenario(extra_sections=(
        "[health]\nSLOT_OVERRUN 1 = LOG\nSLOT_OVERRUN  01 = HALT_SYSTEM\n")),
        "[health] SLOT_OVERRUN 01: duplicate key", id="duplicate_health_key_respelt"),
    pytest.param(make_cookbook_scenario().replace("mode = once\nrecv", "modes = repeat\nrecv"),
                 "[script 1]: partition 1: unrecognized action 'modes = repeat'",
                 id="script_modes_key"),
    pytest.param(make_cookbook_scenario().replace("mode = once\nrecv", "modefoo = repeat\nrecv"),
                 "[script 1]: partition 1: unrecognized action 'modefoo = repeat'",
                 id="script_modefoo_key"),
    pytest.param(make_cookbook_scenario().replace("mode = once\nrecv",
                                                  "mode = once\nmode = repeat\nrecv"),
                 "[script 1] mode: duplicate key", id="duplicate_script_mode"),
    pytest.param(make_cookbook_scenario().replace("[script 1]", "[script 1 junk]"),
                 "[script 1 junk]", id="script_junk"),
    pytest.param(make_cookbook_scenario(extra_sections="[health]\nTRAP = HALT_SYSTEM\n"),
                 "[health]: unknown event kind 'TRAP'", id="health_trap"),
    pytest.param(make_cookbook_scenario(extra_sections="[health]\nHYPERVISOR_EVENT = LOG\n"),
                 "[health]: unknown event kind 'HYPERVISOR_EVENT'", id="health_hypervisor_event"),
    # a number in a form that no literal takes
    *(pytest.param(text, named, id=f"literal_{label}") for text, named, label in (
        (make_cookbook_scenario().replace("seed = 1", "seed = 1_0"), "seed: bad integer",
         "seed_underscore"),
        (make_cookbook_scenario().replace("seed = 1", "seed = +1"), "seed: bad integer",
         "seed_plus"),
        (make_cookbook_scenario().replace("seed = 1", "seed = ٣"), "seed: bad integer",
         "seed_unicode_digit"),
        (make_cookbook_scenario(repetitions="1_0"), "repetitions: bad integer",
         "repetitions_underscore"),
        (make_cookbook_scenario(payloads="٦٤"), "payload_sizes: bad integer",
         "payload_unicode_digits"),
        (make_cookbook_scenario().replace("send out $payload", "send out 1_0"),
         "[script 0]: partition 0: bad integer '1_0'", "send_size_underscore"),
        (make_cookbook_scenario().replace("[script 1]", "[script ١]"),
         "[script ١]: bad integer '١'", "script_id_unicode_digit"),
        (make_cookbook_scenario(extra_sections="[health]\nSLOT_OVERRUN ١ = LOG\n"),
         "[health] SLOT_OVERRUN ١: bad integer '١'", "health_id_unicode_digit"),
        (make_cookbook_scenario(extra_sections="[health]\nSLOT_OVERRUN x = LOG\n"),
         "[health] SLOT_OVERRUN x: bad integer 'x'", "health_id_x"),
        (make_cookbook_scenario().replace('Partition id="1"', 'Partition id="--1"'),
         "[system]: <Partition> id: bad integer '--1'", "xml_double_minus"),
        (BROKER_TEXT.replace("load_factor = 1.0", "load_factor = ٢"),
         "[broker] load_factor: bad fraction '٢'", "load_factor_unicode_digit"),
        (BROKER_TEXT.replace("0.0,0.0 -> 1.0,0.75", "0.0,0.0 -> 1e0,0.75"),
         "[loads] stressed: bad fraction ' 1e0'", "loads_exponent"),
        (BROKER_TEXT.replace("0.0,0.0 -> 1.0,0.75", "٠.٥,0.0 -> 1.0,0.75"),
         "[loads] relaxed: bad fraction '٠.٥'", "loads_unicode_digits"),
    )),
    # a second script section for one partition, its id spelt otherwise;
    # a leading "+" is no integer literal
    *(pytest.param(make_cookbook_scenario(extra_sections=f"[script {pid}]\nmark zz\n"),
                   f"[script {pid}]: {named}", id=f"second_script_{label}")
      for pid, label, named in (
          ("00", "00", "partition 0 already has a script section"),
          ("+0", "plus", "bad integer '+0'"),
          ("-0", "minus", "partition 0 already has a script section"),
          ("  0", "spaces", "partition 0 already has a script section"))),
    # system XML errors name the section or key they came from
    pytest.param(make_cookbook_scenario().replace(
        "<Channels>", "<Bogus/>\n  <Channels>"),
        "[system]: unknown element <Bogus> in <SystemDescription>", id="system_xml"),
    # (bad.scn names itself, which is no system XML)
    pytest.param("name = x\nmode = partitioned\nsystem_file = bad.scn\n",
                 "system_file: ", id="system_file_xml"),
    # one system only: the file (here one that does not exist) or the section
    pytest.param(make_cookbook_scenario().replace("[system]", "system_file = missing.xml\n[system]"),
                 "system_file: give it or an inline [system] section, not both",
                 id="system_file_and_section"),
    # keys and sections that only the other mode reads
    pytest.param(add_to_broker("[health]\nSLOT_OVERRUN = HALT_SYSTEM\n"),
                 "[health]: not read by a broker scenario", id="broker_health"),
    pytest.param(add_to_broker("[script 0]\ncompute 1us\n"),
                 "[script 0]: not read by a broker scenario", id="broker_script"),
    pytest.param(add_to_broker("[system]\n" + COOKBOOK_XML),
                 "[system]: not read by a broker scenario", id="broker_system"),
    pytest.param(add_to_broker("system_file = cookbook.xml"),
                 "system_file: not read by a broker scenario", id="broker_system_file"),
    pytest.param(add_to_broker("max_frames = 2"),
                 "max_frames: not read by a broker scenario", id="broker_max_frames"),
    pytest.param(add_to_broker("api_call_cost = 1us"),
                 "api_call_cost: not read by a broker scenario", id="broker_api_call_cost"),
    pytest.param(make_cookbook_scenario(extra_sections="[broker]\nproc_fixed = 20us\n"),
                 "[broker]: not read by a partitioned scenario", id="partitioned_broker"),
    pytest.param(make_cookbook_scenario(extra_sections="[loads]\n0.0,0.0 -> 1.0,0.75\n"),
                 "[loads]: not read by a partitioned scenario", id="partitioned_loads"),
    # checks that the engine, the ports and summarize trust, so each is the
    # one owner of its rule
    pytest.param(make_cookbook_scenario().replace(
        '<QueuingChannel maxMessageSize="64" maxNoMessages="16">',
        '<SamplingChannel maxMessageSize="64" refreshPeriod="2ms">').replace(
        "</QueuingChannel>", "</SamplingChannel>"),
        "ERROR SCRIPT_KIND script 1 recv on sampling port 'in' (use read)", id="recv_on_sampling"),
    pytest.param(make_cookbook_scenario().replace("recv in", "read in"),
                 "ERROR SCRIPT_KIND script 1 read on queuing port 'in' (use recv)",
                 id="read_on_queuing"),
    pytest.param(make_cookbook_scenario(repetitions=0),
                 "repetitions: must be positive, got '0'", id="zero_repetitions"),
    pytest.param(make_cookbook_scenario().replace("send out $payload", "send out 0"),
                 "[script 0]: partition 0: must be positive, got '0'", id="zero_send_size"),
    pytest.param(make_cookbook_scenario(extra_sections="[script 9]\nmark zz\n"),
                 "ERROR UNKNOWN_PARTITION script 9 script references a missing partition",
                 id="script_missing_partition"),
    # the other scenario checks
    pytest.param(BROKER_TEXT.replace("proc_fixed = 20us", "proc_fixed = 20us\nbogus = 1"),
                 "[broker]: unknown keys ['bogus']", id="broker_unknown_key"),
    pytest.param(BROKER_TEXT.replace("uplink = base=200us per_byte=0ns jitter=50us",
                                     "uplink = speed=1"),
                 "[broker] uplink: unknown link field 'speed'", id="broker_unknown_link_field"),
    pytest.param(BROKER_TEXT.replace("0.0,0.0 -> 1.0,0.75", "0.0,0.0 1.0,0.75"),
                 "[loads]: expected 'r_cpu,r_mem -> s_cpu,s_mem', got '0.0,0.0 1.0,0.75'",
                 id="loads_without_arrow"),
    pytest.param(make_cookbook_scenario(extra_sections="[health]\nSLOT_OVERRUN 0 1 = LOG\n"),
                 "[health] SLOT_OVERRUN 0 1: expected 'KIND [partition] = ACTION'",
                 id="health_three_words"),
    *(pytest.param(make_cookbook_scenario(extra_sections=f"{header}\n{body}"),
                   f"unknown section {header}", id=label) for header, body, label in (
        ("[foo]", "", "unknown_section"),
        ("[script]", "mark zz\n", "script_without_id"),
        ("[health 0]", "SLOT_OVERRUN = LOG\n", "health_with_id"))),
    pytest.param("name = x\nmode = partitioned\nsystem_file = junk.xml\n",
                 "system_file: unexpected text 'junk' in <PartitionTable>",
                 id="system_file_text"),
])
def test_malformed_value_is_located(workdir, capsys, text, named):
    # a system file that a case may name: text where the XML allows none
    write(workdir / "junk.xml", COOKBOOK_SYSTEM.replace("<PartitionTable>", "<PartitionTable>junk"))
    scn = write(workdir / "bad.scn", text)
    assert main(["run", scn, "--out", "o.csv"]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (workdir / "o.csv").exists()


@pytest.mark.parametrize("text, flags, env_seed, message", [
    pytest.param(make_cookbook_scenario(), ("--trace", "o.trace", "--frames", "0"), None,
                 "--frames: must be positive, got '0'", id="zero_frames"),
    pytest.param(make_cookbook_scenario(), ("--trace", "o.trace", "--seed", "-1"), None,
                 "--seed: must be non-negative, got '-1'", id="negative_seed"),
    pytest.param(BROKER_TEXT, ("--seed", "-1"), None,
                 "--seed: must be non-negative, got '-1'", id="broker_negative_seed"),
    pytest.param(BROKER_TEXT, (), "-3",
                 "PARTSIM_SEED: must be non-negative, got '-3'", id="negative_env_seed"),
    pytest.param(make_cookbook_scenario(), ("--trace", "o.trace", "--until=-1ms"), None,
                 "--until: negative duration '-1ms'", id="negative_until"),
    pytest.param(BROKER_TEXT, ("--frames", "2"), None,
                 "--frames: not read by a broker scenario", id="broker_frames"),
    pytest.param(BROKER_TEXT, ("--until", "1ms"), None,
                 "--until: not read by a broker scenario", id="broker_until"),
    pytest.param(BROKER_TEXT, ("--trace", "o.trace"), None,
                 "--trace: not read by a broker scenario", id="broker_trace"),
    pytest.param(BROKER_TEXT, ("--trace=",), None,
                 "--trace: not read by a broker scenario", id="broker_empty_trace"),
    # an empty path names no file, not even the default <name>.csv
    pytest.param(make_cookbook_scenario(), ("--out=",), None, "--out: empty path", id="empty_out"),
    pytest.param(BROKER_TEXT, ("--out", ""), None, "--out: empty path", id="broker_empty_out"),
    pytest.param(make_cookbook_scenario(), ("--trace=",), None, "--trace: empty path",
                 id="empty_trace"),
])
def test_flag_fault_is_one_located_line(workdir, monkeypatch, capsys, text, flags, env_seed,
                                        message):
    """A fault in a flag or in PARTSIM_SEED has one form: exit 1, one
    ``error: <flag or variable>: <message>`` line on stderr, nothing on
    stdout, and no file written: no CSV (the default ``<name>.csv``
    included) and no trace."""
    if env_seed is None:
        monkeypatch.delenv("PARTSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("PARTSIM_SEED", env_seed)
    scn = write(workdir / "bad.scn", text)
    assert main(["run", scn, "--out", "o.csv", *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [path.name for path in workdir.iterdir()] == ["bad.scn"]


def test_a_run_validates_the_system_once(workdir, monkeypatch, capsys):
    """``partsim run`` checks the system XML once, when the scenario is
    parsed, however many payloads it then simulates."""
    from partsim import config

    calls = []
    original = config.validate
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "partsim" and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", lambda cfg: calls.append(cfg) or original(cfg))
    assert main(["run", str(SCENARIO_DIR / "sweep.scn"), "--out", "o.csv"]) == 0
    assert len(calls) == 1


def _callers(name: str) -> set[str]:
    """The top-level functions and methods of ``src/partsim`` that call a
    function or method named ``name``, as ``module.function`` or
    ``module.Class.method``."""
    found = set()
    for path in sorted((REPO_ROOT / "src" / "partsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            inside = isinstance(top, ast.ClassDef)
            for node in top.body if inside else [top]:
                if not isinstance(node, ast.FunctionDef):
                    continue
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and name in (
                            getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                        found.add(f"{path.stem}.{top.name + '.' if inside else ''}{node.name}")
    return found


def test_each_input_is_checked_in_one_place():
    """The system XML is validated only by ``partsim validate`` and by the
    scenario check, and the scenario check runs only in ``parse_scenario``:
    neither ``run_scenario`` nor the engine checks a parsed input again."""
    assert _callers("validate") == {"cli._cmd_validate", "harness.validate_scenario"}
    assert _callers("validate_scenario") == {"harness.parse_scenario"}


def test_health_override_for_missing_partition_exits_1(workdir, capsys):
    scn = write(workdir / "h.scn", make_cookbook_scenario(
        extra_sections="[health]\nMEMORY_VIOLATION 9 = HALT_SYSTEM\n"))
    assert main(["run", scn, "--out", "o.csv"]) == 1
    assert "UNKNOWN_PARTITION health MEMORY_VIOLATION 9" in capsys.readouterr().err
    assert not (workdir / "o.csv").exists()


def test_comma_in_name_exits_1(workdir, capsys):
    scn = write(workdir / "n.scn", make_cookbook_scenario().replace("name = cookbook", "name = a,b"))
    assert main(["run", scn, "--out", "o.csv"]) == 1
    assert "NAME scenario" in capsys.readouterr().err
    assert not (workdir / "o.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    pytest.param("name = cookbook", "name = café",
                 "ERROR NAME scenario name must be ASCII (it is a CSV cell)", id="non_ascii_name"),
    pytest.param("mark tx", "mark ütx",
                 "[script 0]: partition 0: mark label must be ASCII without ',': 'mark ütx'",
                 id="non_ascii_mark"),
    pytest.param("mark tx", "mark a,b",
                 "[script 0]: partition 0: mark label must be ASCII without ',': 'mark a,b'",
                 id="comma_mark"),
    pytest.param("recv in", "recv ün",
                 "[script 1]: partition 1: port name must be ASCII: 'recv ün'",
                 id="non_ascii_port"),
])
def test_free_text_that_reaches_an_output_is_checked_where_it_enters(workdir, capsys, old, new,
                                                                     message):
    """A scenario name is a CSV cell, a mark label a trace cell and a port
    name the detail of a memory violation's trace line: any of them that is
    not ASCII, or a label holding ``,``, exits 1 with a located message
    before anything is written."""
    scn = write(workdir / "t.scn", make_cookbook_scenario().replace(old, new, 1))
    assert main(["run", scn, "--out", "o.csv", "--trace", "o.trace"]) == 1
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")
    assert not (workdir / "o.csv").exists() and not (workdir / "o.trace").exists()


@pytest.mark.parametrize("name", ["sub/x", "../escaped", "a\0b"],
                         ids=["slash", "parent", "nul"])
def test_name_that_is_not_a_file_name_exits_1(tmp_path, monkeypatch, capsys, name):
    """The default CSV is ``<name>.csv``, so a name holding ``/`` or NUL is
    a NAME finding: exit 1 before the run, and no CSV written anywhere."""
    (tmp_path / "w").mkdir()
    monkeypatch.chdir(tmp_path / "w")
    scn = write(tmp_path / "w" / "n.scn",
                make_cookbook_scenario().replace("name = cookbook", f"name = {name}"))
    assert main(["run", scn]) == 1
    assert capsys.readouterr() == ("", "error: invalid scenario: ERROR NAME scenario name must "
                                   "not contain '/' or NUL (it names the default CSV file)\n")
    assert not list(tmp_path.rglob("*.csv"))


def _run_outputs(text: str) -> tuple:
    """The exit code, stdout, CSV and trace of ``partsim run`` on scenario
    ``text``, written to the working directory; None for a file not written."""
    Path("s.scn").write_text(text, encoding="utf-8")
    outputs = Path("o.csv"), Path("o.trace")
    for path in outputs:
        path.unlink(missing_ok=True)
    code, out = _cli(["run", "s.scn", "--out", "o.csv", "--trace", "o.trace"])
    return (code, out, *(path.read_bytes() if path.exists() else None for path in outputs))


VIOLATION_TEXT = (SCENARIO_DIR / "violation.scn").read_text(encoding="utf-8")


def test_a_foreign_port_call_runs_and_its_action_changes_only_the_trace(workdir):
    """``violation.scn``: the rogue partition 2 sends on the publisher's
    port.  Under LOG, SUSPEND_PARTITION and HALT_PARTITION the run exits 0
    with the same CSV and stdout and a trace of its own for each action;
    HALT_SYSTEM halts it before the subscriber's slot, exit 2.  A port name
    that no channel has still exits 1."""
    runs = {action: _run_outputs(f"{VIOLATION_TEXT}\n[health]\nMEMORY_VIOLATION 2 = {action.value}")
            for action in HealthAction}
    halted = runs.pop(HealthAction.HALT_SYSTEM)
    assert {run[:3] for run in runs.values()} == {
        (0, (GOLDEN_DIR / "violation.stdout").read_text(),
         (GOLDEN_DIR / "violation.csv").read_bytes())}
    traces = [run[3] for run in runs.values()]
    assert len(set(traces)) == len(traces)
    assert all(b"350000,PORT_OP,SEND,-,2,8,NOT_OWNER" in trace for trace in traces)
    assert halted[:2] == (2, "no data\n")
    assert _run_outputs(VIOLATION_TEXT.replace("send out 8", "send oot 8"))[:2] == (1, "")


def test_a_comma_in_a_violation_detail_is_stored_as_a_semicolon(workdir):
    """``violation.scn`` with the publisher's port named ``a,b``: the
    rogue's call on it is stored with the detail ``SEND a;b``, so its
    ``HM`` line has the six cells of every ``HM`` line."""
    text = VIOLATION_TEXT.replace('port="out"', 'port="a,b"').replace("send out", "send a,b")
    code, _, _, trace = _run_outputs(text)
    hm = [line for line in trace.decode().splitlines() if ",HM," in line]
    assert code == 0 and hm
    assert all(line.endswith(",SEND a;b") and len(line.split(",")) == 6 for line in hm)
    result = run_scenario(parse_scenario(text))
    assert {r.detail for r in result.trace if type(r) is HmRecord} == {"SEND a;b"}


def test_every_health_kind_changes_some_shipped_scenario(workdir):
    """For each health event kind, changing its ``[health]`` default action
    changes the exit code, stdout, CSV or trace of some shipped scenario, so
    no kind is read and then ignored."""
    for xml in SCENARIO_DIR.glob("*.xml"):
        shutil.copy(xml, workdir)
    texts = [path.read_text(encoding="utf-8") for path in sorted(SCENARIO_DIR.glob("*.scn"))]
    texts = [text for text in texts if "[health]" not in map(str.strip, text.splitlines())]
    for kind in HmKind:
        assert any(
            _run_outputs(f"{text}\n[health]\n{kind.value} = {action.value}\n") != base
            for text, base in ((text, _run_outputs(text)) for text in texts)
            for action in HealthAction if action is not DEFAULT_ACTIONS[kind, None]
        ), kind


@st.composite
def isolation_systems(draw):
    """A publisher (partition 0) and a subscriber (1) on a channel of a
    random kind, 0-2 bystanders, and a rogue partition that owns no port,
    each in a slot of random length and place in the frame.  Returns the
    scenario text, with ``{rogue}`` for the rogue's script and ``{health}``
    for the body of its ``[health]`` section, the rogue's id, and the
    rogue's script with and without its calls."""
    n = draw(st.integers(2, 4))  # the partitions other than the rogue
    spacing = 100_000
    order = draw(st.permutations(range(n + 1)))
    durations = [draw(st.integers(20_000, spacing)) for _ in order]
    partitions = "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n + 1))
    slots = "".join(f'<Slot id="{k}" partition="{pid}" start="{k * spacing}ns" duration="{d}ns"/>'
                    for k, (pid, d) in enumerate(zip(order, durations)))
    ends = '<Source partition="0" port="out"/><Destination partition="1" port="in"/>'
    queuing = draw(st.booleans())
    kind, bound = ("Queuing", 'maxNoMessages="2"') if queuing else (
        "Sampling", 'refreshPeriod="50us"')
    channel = f'<{kind}Channel maxMessageSize="64" {bound}>{ends}</{kind}Channel>'
    compute = draw(st.integers(1_000, durations[order.index(0)] - 1_000))
    scripts = {
        0: ["mode = once", f"compute {compute}ns", "send out $payload", "mark tx"],
        1: ["mode = repeat", "recv in" if queuing else "read in", "mark rx"],
        **{i: ["mode = repeat", f"compute {draw(st.integers(1_000, 150_000))}ns", f"mark b{i}"]
           for i in range(2, n)},
    }
    text = "\n".join([
        "name = isolation", "mode = partitioned", "repetitions = 2", "payload_sizes = 8",
        "max_frames = 4", f"api_call_cost = {draw(st.integers(0, 5_000))}ns", "[system]",
        f'<SystemDescription majorFrame="{(n + 1) * spacing}ns">',
        f"<PartitionTable>{partitions}</PartitionTable><Schedule>{slots}</Schedule>",
        f"<Channels>{channel}</Channels>",
        f'<Hypervisor copyCostFixed="{draw(st.integers(0, 30_000))}ns" copyCostPerByte="0ns"/>',
        "</SystemDescription>",
        *(line for pid, lines in scripts.items() for line in [f"[script {pid}]", *lines]),
        f"[script {n}]", "{rogue}", "[health]", "{health}",
    ]) + "\n"
    calls = ["send out 8", "send in 8", "recv in", "read in", "recv out", "read out"]
    work = st.integers(1_000, 150_000).map(lambda d: f"compute {d}ns")
    # the first call is a violation at the rogue's first slot start
    rogue = [draw(st.sampled_from(calls))]
    rogue += draw(st.lists(st.one_of(work, st.sampled_from(calls)), max_size=4))
    mode = f"mode = {draw(st.sampled_from(['once', 'repeat']))}"
    clean = [line for line in rogue if line.startswith("compute")]
    return text, n, [mode, *rogue], [mode, *clean]


def test_a_spatial_fault_moves_no_other_partition(workdir):
    """Temporal isolation under a spatial fault: a rogue partition that
    calls ports it does not own leaves every latency row of the channel
    between two other partitions byte-identical to the run without those
    calls, whether its violations are logged, suspend it or halt it;
    HALT_SYSTEM ends the run with exit 2."""

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(isolation_systems())
    def check(system):
        template, rogue, faulty, clean = system

        def run(script: list[str], action: HealthAction | None = None) -> tuple:
            health = f"MEMORY_VIOLATION {rogue} = {action.value}" if action else ""
            return _run_outputs(template.format(rogue="\n".join(script), health=health))

        code, out, csv, _ = run(clean)
        assert code == 0 and csv.count(b"\n") == 3
        for action in (HealthAction.LOG, HealthAction.SUSPEND_PARTITION,
                       HealthAction.HALT_PARTITION):
            faulted = run(faulty, action)
            assert faulted[:3] == (code, out, csv)
            assert b"NOT_OWNER" in faulted[3]
        assert run(faulty, HealthAction.HALT_SYSTEM)[0] == 2

    check()


@pytest.mark.parametrize("command, name", [
    ("validate", "bad.xml"), ("run", "bad.scn"), ("report", "bad.csv"),
])
def test_undecodable_input_exits_3(workdir, capsys, command, name):
    (workdir / name).write_bytes(b"name = \xff\nmode = broker\n")
    assert main([command, name]) == 3
    assert "decode" in capsys.readouterr().err


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_report_repeats_the_run_summary_of_each_shipped_scenario(workdir, path):
    code, run_out = _cli(["run", str(path), "--out", "o.csv"])
    assert code == 0
    assert _cli(["report", "o.csv"]) == (0, run_out)


def _fraction(x: float) -> str:
    """``x`` as a fraction literal: its shortest repr, written without an
    exponent."""
    return format(Decimal(repr(x)), "f")


_LOAD = st.floats(0.0, 1.0).map(_fraction)
_NS = st.integers(0, 300_000)


@st.composite
def broker_runs(draw):
    """A broker scenario of 1-3 payload sizes, 1-3 load pairs and 1-40
    repetitions, with random link, processing and load parameters."""
    sizes = draw(st.lists(st.integers(1, 10_000_000), min_size=1, max_size=3, unique=True))
    pairs = draw(st.lists(st.tuples(_LOAD, _LOAD, _LOAD, _LOAD), min_size=1, max_size=3))
    links = [(draw(_NS), draw(st.integers(0, 5)), draw(st.sampled_from((0, 1, 50_000))))
             for _ in range(2)]
    proc_fixed, proc_per_byte = draw(_NS), draw(st.integers(0, 10))
    load_factor = _fraction(draw(st.floats(0.0, 4.0)))
    repetitions = draw(st.integers(1, 40))
    seed = draw(st.integers(min_value=0))
    text = "\n".join([
        "name = fuzz", "mode = broker", f"seed = {seed}", f"repetitions = {repetitions}",
        f"payload_sizes = {','.join(map(str, sizes))}",
        "[broker]",
        *(f"{side} = base={b}ns per_byte={pb}ns jitter={j}ns"
          for side, (b, pb, j) in zip(("uplink", "downlink"), links)),
        f"proc_fixed = {proc_fixed}ns", f"proc_per_byte = {proc_per_byte}ns",
        f"load_factor = {load_factor}",
        "[loads]",
        *(f"{rc},{rm} -> {sc},{sm}" for rc, rm, sc, sm in pairs),
    ]) + "\n"
    # the model reads each literal as the exact decimal it writes
    topology = BrokerTopology(LinkModel(*links[0]), LinkModel(*links[1]),
                              proc_fixed, proc_per_byte, Fraction(load_factor))
    loads = [(LoadProfile(Fraction(rc), Fraction(rm)), LoadProfile(Fraction(sc), Fraction(sm)))
             for rc, rm, sc, sm in pairs]
    labels = ["fuzz"] if len(pairs) == 1 else [f"fuzz/{k}" for k in range(len(pairs))]
    expected = []
    for size in sizes:
        for label, (relaxed, stressed) in zip(labels, loads):
            for rep in range(repetitions):
                rng = repetition_rng(seed, len(expected))
                relaxed_ns = tx_time(topology, size, relaxed, rng)
                stressed_ns = tx_time(topology, size, stressed, rng)
                expected.append(Row(label, "broker", rep, size, tx_relaxed_ns=relaxed_ns,
                                    tx_stressed_ns=stressed_ns,
                                    tx_delay_ns=stressed_ns - relaxed_ns))
    return text, expected


@settings(deadline=None, max_examples=60)
@given(broker_runs())
def test_broker_run_rows_and_report_agree_with_the_model(case):
    """Every row is ``tx_time`` on ``repetition_rng(seed, c)``, with the
    ``<name>/<k>`` labels and repetition indices in order, and ``report``
    on the written CSV prints the summary that ``run`` printed."""
    text, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        scn, csv = Path(tmp) / "fuzz.scn", Path(tmp) / "fuzz.csv"
        scn.write_text(text)
        code, run_out = _cli(["run", str(scn), "--out", str(csv)])
        assert code == 0
        assert parse_rows(csv.read_text()) == expected
        assert _cli(["report", str(csv)]) == (0, run_out)


def _readme_cli_block() -> tuple[list[str], int]:
    """The ``partsim`` lines of README's "CLI" block, and the exit code
    README names for success."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    success = re.search(r"Exit codes: `(\d+)` success", section)
    return [line for line in block.splitlines() if line.startswith("partsim ")], \
        int(success.group(1))


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Each README CLI line, in order, in a directory holding a copy of
    ``scenarios/``, exits with the success code README states."""
    lines, success = _readme_cli_block()
    assert len(lines) >= 5 and success == 0
    shutil.copytree(SCENARIO_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PARTSIM_SEED", raising=False)
    for line in lines:
        assert _cli(shlex.split(line)[1:])[0] == success, line
