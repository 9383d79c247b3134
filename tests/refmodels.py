"""Independent reference models for port behavior, and the per-line
result CSV reader.

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
"""

import re

from partsim.channels import PortTable
from partsim.results import _INT, _MODES, _RATIO, CSV_HEADER, CsvError, ReadCondition, _bad_line


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
