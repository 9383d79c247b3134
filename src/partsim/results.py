"""Results per condition, their statistics, the result CSV and the summary
table that ``partsim run`` and ``partsim report`` print.

Results are kept per condition, one (scenario label, mode, payload)
group, and never as one object per row.  Partitioned runs draw no
randomness, so each distinct copy cost is simulated once, measuring the
latency between the producer's ``tx`` mark and the consumer's ``rx`` mark
(the first one that follows a successful receive) and the scheduled
transition gap between the two slots; the condition of each payload of
that cost keeps that one measurement, which is written as one row per
repetition and summarized as its one latency, counted once per
repetition.  Broker runs evaluate the transmission time under both load
profiles per repetition, and the row records the stressed-minus-relaxed
delay; the worker that draws a range of rows renders them at once with
``broker_rows``, so the condition keeps its rows' CSV bytes and their
delays, not the times.  With more than one
load pair, each row's scenario is labelled ``<name>/<k>`` (``k`` the
0-based pair index) so every condition is summarized on its own.
``read_csv`` keeps of each condition only what ``summarize`` reads: its
latency and tx_delay cells and its first non-zero gap.  It reads a CSV in
bounded blocks of whole lines, checks each distinct digit-blind shape of
a block's lines once, and takes the cells it keeps by column, split and
converted as bytes, so its memory grows with what it keeps, not with the
file.  A block whose key columns each hold one value is one run of one
condition, found by count; only a block with a condition boundary inside
it is grouped row by row.  A run's latency or tx_delay cells that are all
one value, as a partitioned condition's are, are converted once.
A row template holds a condition's shared cells once and a ``%d`` for
each cell that changes from row to row; ``broker_rows`` and ``export_csv``
fill it with one ``%`` for each block of ``WRITE_ROWS`` rows, so what
either holds beyond its output is bounded by a block.

CSV column contract (exact order; unused fields empty)::

    scenario,mode,repetition,payload_bytes,t_send_ns,t_recv_ns,latency_ns,
    gap_ns,latency_to_gap_ratio,tx_relaxed_ns,tx_stressed_ns,tx_delay_ns

This module imports no other partsim module, so ``partsim report`` loads
only it and ``cli``.
"""

from __future__ import annotations

import enum
import re
from itertools import groupby
from pathlib import Path
from typing import NamedTuple, TextIO


class Mode(enum.Enum):
    PARTITIONED = "partitioned"
    BROKER = "broker"


class CsvError(ValueError):
    """Malformed result CSV, or a condition in it with no metric cell."""


class EmptyResult(ValueError):
    """summarize() over zero repetitions."""


CSV_HEADER = ("scenario,mode,repetition,payload_bytes,t_send_ns,t_recv_ns,latency_ns,"
              "gap_ns,latency_to_gap_ratio,tx_relaxed_ns,tx_stressed_ns,tx_delay_ns")
CSV_COLUMNS = tuple(CSV_HEADER.split(","))
_MODES = {mode.value for mode in Mode}  # the valid mode cells


class Condition(NamedTuple):
    """One (scenario label, mode, payload) condition of a run, as its CSV
    rows and its summary are made from it: a partitioned condition's one
    ``(t_send, t_recv, gap)`` measurement, written as ``repetitions``
    equal rows and summarized as one latency with a count of
    ``repetitions``, or a broker condition's ``rows``, the blocks of CSV bytes
    that ``broker_rows`` rendered, in row order, and its ``delays``, the
    tx_delay cells of those rows, each worker's share sorted."""

    scenario: str
    mode: Mode
    payload_bytes: int
    repetitions: int
    measurement: tuple[int, int, int | None] | None = None
    rows: list[bytes] | None = None
    delays: list[int] | None = None

    def summary(self) -> SummaryStats:
        if self.delays is None:
            t_send, t_recv, gap = self.measurement
            # the statistics of n equal values are those of one, counted n
            # times; a slice of no values still raises EmptyResult
            latency = [t_recv - t_send][:self.repetitions]
            return summarize("latency", latency, gap)._replace(count=self.repetitions)
        return summarize("tx_delay", self.delays)


class ReadCondition:
    """What ``partsim report`` keeps of one (scenario, payload, mode)
    condition read back from CSV rows: where its first row is (``path:N``),
    and the present latency and tx_delay cells and the first non-zero gap,
    in row order.  ``read_csv`` adds each run of the condition's rows in a
    block at once, from the block's columns."""

    __slots__ = ("where", "latencies", "delays", "gap")

    def __init__(self, where: str) -> None:
        self.where, self.latencies, self.delays, self.gap = where, [], [], None

    def summary(self) -> SummaryStats:
        """Latency when any row has one, else tx_delay; a CsvError naming
        the first row when no row has either."""
        if self.latencies:
            return summarize("latency", self.latencies, self.gap)
        if self.delays:
            return summarize("tx_delay", self.delays, self.gap)
        raise CsvError(f"{self.where}: no row carries latency_ns or tx_delay_ns")


class SummaryStats(NamedTuple):
    count: int
    metric: str  # "latency" or "tx_delay"
    mean: int
    minimum: int
    maximum: int
    p50: int
    p99: int
    scheduled_gap: int | None = None
    latency_to_gap_ratio: float | None = None
    overhead_ratio: float | None = None


def summarize(metric: str, values: list[int], gap: int | None = None) -> SummaryStats:
    """Exact integer statistics of one condition's ``metric`` values, with
    its first non-zero scheduled gap: mean rounded to the nearest ns (ties
    up), percentiles by nearest rank (the ceil(p * n / 100)-th value)."""
    n = len(values)
    if not n:
        raise EmptyResult("no repetitions to summarize")
    ordered = sorted(values)
    mean = (2 * sum(values) + n) // (2 * n)
    ratio_gap = gap if metric == "latency" else None  # only a latency is set against the gap
    return SummaryStats(
        count=n, metric=metric, mean=mean, minimum=ordered[0], maximum=ordered[-1],
        p50=ordered[(50 * n + 99) // 100 - 1], p99=ordered[(99 * n + 99) // 100 - 1],
        scheduled_gap=gap or None,
        latency_to_gap_ratio=mean / ratio_gap if ratio_gap else None,
        overhead_ratio=(mean - ratio_gap) / ratio_gap if ratio_gap else None,
    )


def summary_lines(conditions: dict) -> list[str]:
    """The summary table of a ``(scenario, payload, mode text) -> condition``
    dict, one line per condition (each has a ``summary()``) in key order."""
    header = (
        f"{'scenario':<20} {'payload_bytes':>13} {'n':>6} {'metric':>9} "
        f"{'mean_ns':>12} {'min_ns':>12} {'max_ns':>12} {'p50_ns':>12} {'p99_ns':>12} "
        f"{'gap_ns':>10} {'lat/gap':>10} {'overhead':>9}"
    )
    lines = [header]
    for key in sorted(conditions):
        scenario, payload, _ = key
        stats = conditions[key].summary()
        gap = str(stats.scheduled_gap) if stats.scheduled_gap is not None else "-"
        ratio = f"{stats.latency_to_gap_ratio:.6f}" if stats.latency_to_gap_ratio is not None else "-"
        overhead = (
            f"{stats.overhead_ratio * 100:.1f}%" if stats.overhead_ratio is not None else "-"
        )
        lines.append(
            f"{scenario:<20} {payload:>13} {stats.count:>6} {stats.metric:>9} "
            f"{stats.mean:>12} {stats.minimum:>12} {stats.maximum:>12} {stats.p50:>12} "
            f"{stats.p99:>12} {gap:>10} {ratio:>10} {overhead:>9}"
        )
    return lines


WRITE_ROWS = 1024  # rows a row template is filled for with one % at a time


def _head(scenario: str, mode: Mode, payload: int) -> str:
    """The start of a row template: the label (``%`` escaped as ``%%``),
    the mode, the repetition's ``%d`` and the payload."""
    return f"{scenario.replace('%', '%%')},{mode.value},%d,{payload},"


def broker_rows(scenario: str, payload: int, first: int, cells: list[int]) -> list[bytes]:
    """The CSV rows of a broker condition from repetition ``first`` on, one
    for each three ``cells`` (relaxed, stressed, delay; see
    ``middleware.condition_times``), as blocks of at most ``WRITE_ROWS``
    rows that hold the bytes formatting each row on its own would give.
    Each block fills the row template once, from a list of the block's
    cells whose columns are set by slice."""
    row = f"{_head(scenario, Mode.BROKER, payload)},,,,,%d,%d,%d\n".encode("ascii")
    blocks = []
    for i in range(0, len(cells), 3 * WRITE_ROWS):
        part, rep = cells[i:i + 3 * WRITE_ROWS], first + i // 3
        n = len(part) // 3
        block = [0] * (4 * n)
        block[::4] = range(rep, rep + n)
        block[1::4], block[2::4], block[3::4] = part[::3], part[1::3], part[2::3]
        blocks.append(row * n % tuple(block))
    return blocks


def export_csv(result, path: str | Path) -> None:
    """Write the header and then the rows of each condition of ``result``
    (a ``harness.RunResult``) in turn: a broker condition's rendered
    blocks of ``rows`` as they are, and a partitioned condition's rows
    from one ASCII row template, its cells formatted once and the
    repetition a ``%d`` filled from a ``range``, one ``%`` for each
    ``WRITE_ROWS`` rows."""
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for c in result.conditions:
            if c.rows is not None:
                fh.writelines(c.rows)
                continue
            t_send, t_recv, gap = c.measurement
            latency = t_recv - t_send
            row = (f"{_head(c.scenario, c.mode, c.payload_bytes)}{t_send},{t_recv},{latency},"
                   f"{'' if gap is None else gap},{f'{latency / gap:.6f}' if gap else ''},,,\n"
                   ).encode("ascii")
            for done in range(0, c.repetitions, WRITE_ROWS):
                reps = range(done, min(done + WRITE_ROWS, c.repetitions))
                fh.write(row * len(reps) % tuple(reps))


# A result line is what ``export_csv`` writes: the scenario cell (ASCII but
# ``,``; the file is read as latin-1 and checked as the bytes it encodes
# to, so a non-ASCII byte is one over \x7f), the mode, and the cells after
# it in column order, each one optional (``|)``: an empty alternative
# matches faster than ``?``) where ``export_csv`` may leave it empty.
# ``_ROW`` admits a digit only through ``[0-9]`` or the scenario cell's
# class, both of which take every digit, so a line matches exactly when its
# shape does: the line with digits 1-9 turned into 0 by ``_SHAPE``.  Lines
# that differ only in their digits share one shape, and ``read_csv`` checks
# each shape of a block once.
_INT, _RATIO = "-?[0-9]+", r"-?[0-9]+\.[0-9]+"
_OPT = f"(?:{_INT}|)"
_CELLS = (_INT, _INT, _OPT, _OPT, _OPT, _OPT, f"(?:{_RATIO}|)", _OPT, _OPT, _OPT)
_ROW = re.compile(f"[^,\x80-\xff]*,(?:{'|'.join(sorted(_MODES))}),{','.join(_CELLS)}\n?"
                  .encode("latin-1"))
_SHAPE = bytes.maketrans(b"123456789", b"000000000")
READ_CHUNK = 8192  # characters read_csv reads at once, then on to the end of the line


def _bad_line(path: str | Path, number: int, line: str) -> CsvError:
    """The fault of a line that ``_ROW`` refused, checked one part at a
    time: a non-ASCII byte, the field count, the mode, then each cell in
    column order."""
    where = f"{path}:{number}"
    if not line.isascii():
        byte = next(c for c in line if c > "\x7f")
        return CsvError(f"{where}: cannot decode byte 0x{ord(byte):02x} as ASCII")
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(CSV_COLUMNS):
        return CsvError(f"{where}: expected {len(CSV_COLUMNS)} fields")
    if cells[1] not in _MODES:
        return CsvError(f"{where}: {cells[1]!r} is not a valid Mode")
    column, cell, pattern = next(
        (column, cell, pattern) for column, cell, pattern in zip(CSV_COLUMNS[2:], cells[2:], _CELLS)
        if not re.fullmatch(pattern, cell))
    form = "a decimal such as 0.5" if _RATIO in pattern else "an integer"
    return CsvError(f"{where}: {column}: expected {form}, got {cell!r}")


def _checked_blocks(path: str | Path, fh: TextIO):
    """Each block of whole lines left in ``fh`` as ``(number of its first
    line, its latin-1 bytes)``, once ``_ROW`` has checked each distinct
    shape of its lines; a CsvError naming the first line it refuses."""
    match_row = _ROW.fullmatch
    number, block = 2, fh.read(READ_CHUNK)
    while block:
        more = len(block) == READ_CHUNK  # read() stops short only at the end
        if more and block[-1] != "\n":
            block += fh.readline()
        data = block.encode("latin-1")
        # bytes.splitlines ends a line at \n and \r only, and newline
        # translation has left no \r
        shapes = data.translate(_SHAPE).splitlines()
        for shape in set(shapes):
            if match_row(shape) is None:
                for at, line in enumerate(data.split(b"\n"), number):
                    if match_row(line) is None:
                        raise _bad_line(path, at, line.decode("latin-1"))
        yield number, data
        number += len(shapes)
        block = fh.read(READ_CHUNK) if more else ""


def read_csv(
    path: str | Path, conditions: dict[tuple[str, int, str], ReadCondition] | None = None,
) -> dict[tuple[str, int, str], ReadCondition]:
    """Read a result CSV into ``conditions`` (a new dict by default), keyed
    by (scenario, payload, mode text), so that rows of one condition merge
    wherever and in whichever file they stand.  Each line must match the
    cells that ``export_csv`` writes; only the payload, latency, gap and
    tx_delay cells are converted.  Raises CsvError, naming the line, on a
    malformed file.

    The file is read in blocks of whole lines, ``READ_CHUNK`` characters
    and the rest of the last line.  ``_ROW`` checks each distinct shape of
    a block's lines; a block with a refused shape is checked again line by
    line, so the first bad line is the one named.  A checked block is
    encoded as latin-1 once, and its bytes are split at ``,`` and ``\n``
    into 12 cells a line, so column ``k`` is every 12th cell from the
    ``k``-th.  When the scenario, payload and mode columns each hold one
    value, as ``list.count`` finds, the block is one run; otherwise
    ``groupby`` finds its runs.  Each run of rows of one condition is
    converted from bytes and added at once, its scenario and mode decoded
    once, and its latency or tx_delay cells converted once when they are
    all one value, as a partitioned condition's are.  A line ends at
    ``\n``, ``\r\n`` or ``\r`` only, not at ``\x0b``, ``\x0c`` or
    ``\x1c``-``\x1e`` as in ``str.splitlines``; a non-ASCII byte is an
    error of its line."""
    if conditions is None:
        conditions = {}
    # latin-1 decodes every byte, so a non-ASCII one is found by its line
    with open(path, encoding="latin-1") as fh:
        header = next(fh, "")
        if not header.isascii():
            raise _bad_line(path, 1, header)
        if header.rstrip("\n") != CSV_HEADER:
            raise CsvError(f"{path}: missing or wrong CSV header")
        for number, block in _checked_blocks(path, fh):
            cells = block.replace(b"\n", b",").split(b",")  # 12 a line
            n = len(cells) // 12  # a final \n adds one empty cell
            scenarios, payloads, modes = cells[:12 * n:12], cells[3::12], cells[1::12]
            latencies, gaps, delays = cells[6::12], cells[7::12], cells[11::12]
            if all(column.count(column[0]) == n for column in (scenarios, payloads, modes)):
                runs = [((scenarios[0], payloads[0], modes[0]), n)]  # the whole block is one run
            else:
                runs = [(key, len(list(rows)))
                        for key, rows in groupby(zip(scenarios, payloads, modes))]
            i = 0
            for (scenario, payload, mode), length in runs:
                j = i + length
                key = scenario.decode("latin-1"), int(payload), mode.decode("latin-1")
                entry = conditions.get(key)
                if entry is None:
                    entry = conditions[key] = ReadCondition(f"{path}:{number + i}")
                for kept, run in (entry.latencies, latencies[i:j]), (entry.delays, delays[i:j]):
                    # a partitioned condition's rows repeat one measurement
                    kept += ([int(run[0])] * length if run[0] and run.count(run[0]) == length
                             else map(int, filter(None, run)))
                if entry.gap is None:
                    entry.gap = next(filter(None, map(int, filter(None, gaps[i:j]))), None)
                i = j
    return conditions
