"""Independent reference models for port behavior, the per-row result
CSV writer and per-line reader, the broker rows, and the full-trace
measurement.

The port models deliberately know nothing about the production
implementation: a single cell for sampling ports, a plain bounded list for
queuing ports.  Randomized operation sequences are replayed against both
and every status, message identity, and validity flag must match exactly.
A message is identified by its (size, written_at) pair; each sequence
asserts that no two messages it sends share one, so the identity stays
exact.

``read_csv`` reads a result CSV one line at a time, one ``fullmatch`` a
line whose groups are the cells it keeps; ``partsim.results.read_csv``
checks and splits whole blocks of lines and must return what it returns.
``export_csv`` formats and writes a result CSV one row at a time, from
``RowCondition``s: each broker row from its own ``(relaxed, stressed)``
pair.  ``partsim.results.broker_rows`` renders a broker run's rows in the
worker that draws them, ``partsim.results.export_csv`` fills blocks of
partitioned rows from one template per condition, and the file they write
must hold its bytes.  ``reference_times`` draws a broker row the way the
README describes it, ``tx_time`` twice on the row's own generator;
``flat_cells`` lays its pairs out as ``middleware.condition_times``
returns them, and ``broker_conditions`` gives a whole broker run's
conditions from it.

``measure`` scans every record of a run's trace, each copy of a repeated
period built as it is read; ``partsim.harness._measure`` reads one copy of
each repeated period and must return what it returns.

``partitioned_run`` runs a parsed partitioned scenario with one
``SimState`` for each payload, measured by ``measure``;
``partsim.harness.run_scenario`` simulates one payload per distinct copy
cost and must give the same conditions, halted flag and trace.

``argparse_parser`` reads the ``partsim`` command line with ``argparse``;
``partsim.cli`` reads it from one table and must accept the same argv
into the same namespace, and exit with the same code otherwise.
"""

import argparse
import re
import sys
from typing import NamedTuple

from partsim import trace as trace_mod
from partsim.channels import PortTable
from partsim.harness import MeasurementError
from partsim.middleware import repetition_rng, tx_time
from partsim.results import (
    _INT, _MODES, _RATIO, CSV_HEADER, CsvError, Mode, ReadCondition, _bad_line)
from partsim.scheduler import SimState
from partsim.workload import Mark


class SamplingModel:
    """Single-cell reference: newest write wins; freshness is a closed
    <= refresh bound.  Assumes zero copy cost."""

    def __init__(self, max_size, refresh):
        self.max_size = max_size
        self.refresh = refresh
        self.cell = None  # (size, written_at)

    def write(self, owner_ok, size, now):
        if not owner_ok:
            return "NOT_OWNER"
        if size > self.max_size:
            return "TOO_LARGE"
        self.cell = (size, now)
        return "OK"

    def read(self, owner_ok, now):
        if not owner_ok:
            return ("NOT_OWNER", None, False)
        if self.cell is None:
            return ("EMPTY", None, False)
        return ("OK", self.cell, (now - self.cell[1]) <= self.refresh)


class QueuingModel:
    """Bounded-list reference: FIFO order, FULL drops the send."""

    def __init__(self, max_size, capacity):
        self.max_size = max_size
        self.capacity = capacity
        self.fifo = []

    def send(self, owner_ok, size, now):
        if not owner_ok:
            return "NOT_OWNER"
        if size > self.max_size:
            return "TOO_LARGE"
        if len(self.fifo) >= self.capacity:
            return "FULL"
        self.fifo.append((size, now))
        return "OK"

    def receive(self, owner_ok, now):
        if not owner_ok:
            return ("NOT_OWNER", None)
        if not self.fifo:
            return ("EMPTY", None)
        return ("OK", self.fifo.pop(0))


def msg_tuple(msg):
    return None if msg is None else (msg.payload_size, msg.written_at)


def check_unique(sent, status, size, now):
    """Record an accepted send; two sends sharing (size, written_at) would
    make the message identity ambiguous."""
    if status == "OK":
        assert (size, now) not in sent, f"two messages share (size, written_at) = {(size, now)}"
        sent.add((size, now))


def run_sampling_sequence(config, rng, ops=40):
    ports = PortTable(config)
    model = SamplingModel(max_size=64, refresh=2_000_000)
    sent = set()
    now = 0
    for _ in range(ops):
        now += rng.randrange(0, 500_000)
        if rng.random() < 0.5:
            pid = 0 if rng.random() < 0.9 else 1
            size = rng.randrange(1, 80)
            status, *_ = ports.send(pid, "out" if pid == 0 else "in", size, now)
            expected = model.write(pid == 0, size, now)
            assert status.value == expected, f"write diverged at t={now}"
            check_unique(sent, expected, size, now)
        else:
            pid = 1 if rng.random() < 0.9 else 0
            status, msg, valid, *_ = ports.read(pid, "in" if pid == 1 else "out", now)
            e_status, e_msg, e_valid = model.read(pid == 1, now)
            assert (status.value, msg_tuple(msg), valid) == (e_status, e_msg, e_valid), (
                f"read diverged at t={now}"
            )


def run_queuing_sequence(config, rng, ops=40):
    ports = PortTable(config)
    model = QueuingModel(max_size=64, capacity=16)
    sent = set()
    now = 0
    for _ in range(ops):
        now += rng.randrange(0, 500_000)
        if rng.random() < 0.55:
            pid = 0 if rng.random() < 0.9 else 1
            size = rng.randrange(1, 80)
            status, *_ = ports.send(pid, "out" if pid == 0 else "in", size, now)
            expected = model.send(pid == 0, size, now)
            assert status.value == expected, f"send diverged at t={now}"
            check_unique(sent, expected, size, now)
        else:
            pid = 1 if rng.random() < 0.9 else 0
            status, msg, *_ = ports.receive(pid, "in" if pid == 1 else "out", now)
            e_status, e_msg = model.receive(pid == 1, now)
            assert (status.value, msg_tuple(msg)) == (e_status, e_msg), (
                f"receive diverged at t={now}"
            )


# the result line, with groups for the cells that read_csv keeps
_CELLS = (_INT, f"({_INT})", f"(?:{_INT}|)", f"(?:{_INT}|)", f"({_INT}|)", f"({_INT}|)",
          f"(?:{_RATIO}|)", f"(?:{_INT}|)", f"(?:{_INT}|)", f"({_INT}|)")
_ROW = re.compile(f"([^,\x80-\xff]*),({'|'.join(sorted(_MODES))}),{','.join(_CELLS)}\n?")


def read_csv(path, conditions=None):
    """What ``partsim.results.read_csv`` returns or raises, one line at a time."""
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


class RowCondition(NamedTuple):
    """One condition as the per-row writer takes it: a partitioned
    condition's ``(t_send, t_recv, gap)`` measurement, written as
    ``repetitions`` equal rows, or a broker condition's ``(relaxed,
    stressed)`` times, one pair per row."""

    scenario: str
    mode: Mode
    payload_bytes: int
    repetitions: int
    measurement: tuple | None = None
    times: list | None = None


def export_csv(conditions, path):
    """Write the header and then the rows of each ``RowCondition`` in turn,
    formatting the cells that its rows share once."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for c in conditions:
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


def reference_times(topology, size, relaxed, stressed, seed, first, count):
    """``(relaxed, stressed)`` of rows ``first`` to ``first + count - 1``:
    two tx_time calls per row on the row's own reference generator."""
    times = []
    for c in range(first, first + count):
        rng = repetition_rng(seed, c)
        times.append((tx_time(topology, size, relaxed, rng),
                      tx_time(topology, size, stressed, rng)))
    return times


def flat_cells(times):
    """``(relaxed, stressed)`` pairs as ``middleware.condition_times``
    returns them: relaxed, stressed and delay, three cells a row."""
    return [cell for relaxed, stressed in times for cell in (relaxed, stressed, stressed - relaxed)]


def broker_conditions(sc, seed=None):
    """The ``RowCondition``s of a parsed broker scenario, in row order: each
    payload, then each load pair (labelled ``<name>/<k>`` when there are
    several), ``sc.repetitions`` rows each, row ``c`` counted over them all."""
    seed = sc.seed if seed is None else seed
    several, reps, conditions = len(sc.load_pairs) > 1, sc.repetitions, []
    for payload in sc.payload_sizes:
        for k, (relaxed, stressed) in enumerate(sc.load_pairs):
            times = reference_times(sc.topology, payload, relaxed, stressed,
                                    seed, len(conditions) * reps, reps)
            conditions.append(RowCondition(f"{sc.name}/{k}" if several else sc.name,
                                           Mode.BROKER, payload, reps, times=times))
    return conditions


def measure(records, system):
    """Extract (t_send, t_recv, gap) from one repetition's trace.

    t_send is the first ``tx`` mark; t_recv is the first ``rx`` mark at or
    after the first successful receive/read, so the measured endpoint
    reflects an actual delivery.
    """
    t_send = send_partition = None
    delivery_time = delivery_partition = None
    t_recv = None
    for r in records:
        kind = type(r)
        if kind is trace_mod.MarkRecord:
            if r.label == "tx" and t_send is None:
                t_send, send_partition = r.time, r.partition
            elif (
                r.label == "rx"
                and delivery_time is not None
                and r.time >= delivery_time
                and t_recv is None
            ):
                t_recv = r.time
            if t_send is not None and t_recv is not None:
                break  # t_recv implies its delivery: later records change nothing
        elif (
            kind is trace_mod.PortOpRecord
            and delivery_time is None
            and r.op in ("RECV", "READ")
            and r.result in ("OK", "STALE")
        ):
            delivery_time, delivery_partition = r.time, r.partition
    if t_send is None or t_recv is None:
        return None
    plan = system.plan
    src = plan.slot_at(send_partition, t_send)
    dst = plan.slot_at(delivery_partition, delivery_time)
    return t_send, t_recv, None if src is None or dst is None or src == dst else plan.gap(src, dst)


def partitioned_run(sc, until=None, frames=None):
    """``(conditions, trace, halted)`` of a parsed partitioned scenario:
    one fresh ``SimState`` per payload, each run to the bound (``until``,
    else ``frames`` or ``max_frames`` major frames), and one
    ``RowCondition`` for each payload whose ``tx`` and ``rx`` marks pair;
    the trace is the first payload's, and the run is halted when any
    payload's is.  When the scripts mark both ``tx`` and ``rx``, a payload
    that pairs none is skipped under an explicit bound or a halt, and is a
    MeasurementError otherwise."""
    system = sc.system
    bound = until if until is not None else (frames or sc.max_frames) * system.plan.major_frame
    labels = {a.label for s in sc.scripts.values() for a in s.actions if type(a) is Mark}
    conditions, first, halted = [], None, False
    for payload in sc.payload_sizes:
        sim = SimState(system, {pid: s.bind_payload(payload) for pid, s in sc.scripts.items()},
                       sc.health_table, sc.api_call_cost)
        sim.boot()
        sim.run_until(bound)
        first = sim.trace if first is None else first
        halted = halted or sim.halted
        if not {"tx", "rx"} <= labels:
            continue
        measured = measure(sim.trace, system)
        if measured is not None:
            conditions.append(RowCondition(sc.name, Mode.PARTITIONED, payload, sc.repetitions,
                                           measurement=measured))
        elif until is None and frames is None and not sim.halted:
            raise MeasurementError(f"{sc.name}: no tx/rx mark pair observed within {bound} ns")
    return conditions, first, halted


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not 2; the subparsers inherit it
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def argparse_parser() -> argparse.ArgumentParser:
    """The ``partsim`` command line as ``argparse`` reads it, with
    abbreviated flags refused: a usage error exits 1 after
    ``<prog>: error: <message>`` on stderr, ``-h`` exits 0."""
    parser = _ArgparseParser(
        prog="partsim", allow_abbrev=False,
        description="Deterministic partitioned-system simulator and pub/sub delay harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", allow_abbrev=False)
    p_validate.add_argument("config_path")

    p_run = sub.add_parser("run", allow_abbrev=False)
    p_run.add_argument("scenario_path")
    p_run.add_argument("--out")
    bound = p_run.add_mutually_exclusive_group()
    bound.add_argument("--frames")
    bound.add_argument("--until")
    p_run.add_argument("--seed")
    p_run.add_argument("--trace")

    p_report = sub.add_parser("report", allow_abbrev=False)
    p_report.add_argument("csv_paths", nargs="+")
    return parser
