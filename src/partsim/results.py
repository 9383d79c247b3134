"""Results per condition, their statistics, the result CSV and the summary
table that ``partsim run`` and ``partsim report`` print.

Results are kept per condition, one (scenario label, mode, payload)
group, and never as one object per row.  Partitioned runs draw no
randomness, so each payload is simulated once, measuring the latency
between the producer's ``tx`` mark and the consumer's ``rx`` mark (the
first one that follows a successful receive) and the scheduled transition
gap between the two slots; the condition keeps that one measurement, which
is written as one row per repetition.  Broker runs evaluate the
transmission time under both load profiles per repetition; the condition
keeps each row's (relaxed, stressed) pair, and the row records the
stressed-minus-relaxed delay.  With more than one load pair, each row's
scenario is labelled ``<name>/<k>`` (``k`` the 0-based pair index) so every
condition is summarized on its own.  ``read_csv`` keeps of each condition
only what ``summarize`` reads: its latency and tx_delay cells and its first
non-zero gap.

CSV column contract (exact order; unused fields empty)::

    scenario,mode,repetition,payload_bytes,t_send_ns,t_recv_ns,latency_ns,
    gap_ns,latency_to_gap_ratio,tx_relaxed_ns,tx_stressed_ns,tx_delay_ns

This module imports no other partsim module, so ``partsim report`` loads
only it and ``cli``.
"""

from __future__ import annotations

import enum
import re
from pathlib import Path
from typing import NamedTuple


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
    """One (scenario label, mode, payload) condition of a run, as the values
    its CSV rows and its summary are made from: a partitioned condition's
    one ``(t_send, t_recv, gap)`` measurement, written as ``repetitions``
    equal rows, or a broker condition's ``(relaxed, stressed)`` times, one
    pair per row."""

    scenario: str
    mode: Mode
    payload_bytes: int
    repetitions: int
    measurement: tuple[int, int, int | None] | None = None
    times: list[tuple[int, int]] | None = None

    def summary(self) -> SummaryStats:
        if self.times is None:
            t_send, t_recv, gap = self.measurement
            return summarize("latency", [t_recv - t_send] * self.repetitions, gap)
        # each row's tx_delay: stressed minus relaxed
        return summarize("tx_delay", [stressed - relaxed for relaxed, stressed in self.times])


class ReadCondition:
    """What ``partsim report`` keeps of one (scenario, payload, mode)
    condition read back from CSV rows: where its first row is (``path:N``),
    and the present latency and tx_delay cells and the first non-zero gap,
    in row order."""

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


def export_csv(result, path: str | Path) -> None:
    """Write the header and then the rows of each condition of ``result``
    (a ``harness.RunResult``) in turn, formatting the cells that its rows
    share once."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for c in result.conditions:
            head = f"{c.scenario},{c.mode.value},"
            if c.times is None:
                t_send, t_recv, gap = c.measurement
                latency = t_recv - t_send
                tail = (f",{c.payload_bytes},{t_send},{t_recv},{latency},"
                        f"{'' if gap is None else gap},{f'{latency / gap:.6f}' if gap else ''},,,\n")
                fh.writelines(f"{head}{rep}{tail}" for rep in range(c.repetitions))
            else:
                tail = f",{c.payload_bytes},,,,,,"
                fh.writelines(f"{head}{rep}{tail}{relaxed},{stressed},{stressed - relaxed}\n"
                              for rep, (relaxed, stressed) in enumerate(c.times))


# A result line is what ``export_csv`` writes: the scenario cell (ASCII but
# ``,``; the file is read as latin-1, so a non-ASCII byte is a character over
# \x7f), the mode, and the cells after it in column order, each one optional
# (``|)``: an empty alternative matches faster than ``?``) where
# ``export_csv`` may leave it empty.  The groups are what ``read_csv`` keeps.
_INT, _RATIO = "-?[0-9]+", r"-?[0-9]+\.[0-9]+"
_CELLS = (_INT, f"({_INT})", f"(?:{_INT}|)", f"(?:{_INT}|)", f"({_INT}|)", f"({_INT}|)",
          f"(?:{_RATIO}|)", f"(?:{_INT}|)", f"(?:{_INT}|)", f"({_INT}|)")
_ROW = re.compile(f"([^,\x80-\xff]*),({'|'.join(sorted(_MODES))}),{','.join(_CELLS)}\n?")


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


def read_csv(
    path: str | Path, conditions: dict[tuple[str, int, str], ReadCondition] | None = None,
) -> dict[tuple[str, int, str], ReadCondition]:
    """Read a result CSV into ``conditions`` (a new dict by default), keyed
    by (scenario, payload, mode text), so that rows of one condition merge
    wherever and in whichever file they stand.  Each line must match the
    cells that ``export_csv`` writes; only the payload, latency, gap and
    tx_delay cells are converted.  Raises CsvError, naming the line, on a
    malformed file.

    The file is read one line at a time.  A line ends at ``\n``, ``\r\n``
    or ``\r`` only, not at ``\x0b``, ``\x0c`` or ``\x1c``-``\x1e`` as in
    ``str.splitlines``; a non-ASCII byte is an error of its line."""
    if conditions is None:
        conditions = {}
    match_row = _ROW.fullmatch
    # latin-1 decodes every byte, so a non-ASCII one is found by its line
    with open(path, encoding="latin-1") as fh:
        header = next(fh, "")
        if not header.isascii():
            raise _bad_line(path, 1, header)
        if header.rstrip("\n") != CSV_HEADER:
            raise CsvError(f"{path}: missing or wrong CSV header")
        last_scenario = last_payload = last_mode = entry = None
        for number, line in enumerate(fh, start=2):
            row = match_row(line)
            if row is None:
                raise _bad_line(path, number, line)
            scenario, mode, payload, latency, gap, delay = row.groups()
            if payload != last_payload or scenario != last_scenario or mode != last_mode:
                last_scenario, last_payload, last_mode = scenario, payload, mode
                key = scenario, int(payload), mode
                entry = conditions.get(key)
                if entry is None:
                    entry = conditions[key] = ReadCondition(f"{path}:{number}")
            if latency:
                entry.latencies.append(int(latency))
            if delay:
                entry.delays.append(int(delay))
            if gap and entry.gap is None:
                entry.gap = int(gap) or None
    return conditions
