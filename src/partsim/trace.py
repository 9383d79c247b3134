"""Trace records and their stable text encoding.

A run's trace is a ``PeriodicTrace``: the records the engine built, plus
one descriptor per run of repeated periods.  ``write_trace`` writes it as
ASCII bytes: built records ``WRITE_CHUNK`` at a time, and each repeated
period as one template, filled once per copy.  A time's digits below the
span's trailing zeros are the same in every copy and are part of the
template; its high part and each event ``seq`` are fields.  Fields that
start and step alike share one value, so a copy formats its few distinct
values once, not one per field.  ``_FORMATS`` states each record type's
line as a ``%`` format of its fields, and is the only place that does.
The line formats are part of the tool's contract and are pinned by golden
tests:

* scheduler events:      ``time_ns,KIND,partition,seq``
  (KIND is one of SLOT_START, SLOT_END, FRAME_WRAP, APP_ACTION, HM_EVENT;
  FRAME_WRAP uses partition -1)
* port operations:       ``time_ns,PORT_OP,op,channel,partition,size,result``
* script marks:          ``time_ns,MARK,partition,label``
* partition transitions: ``time_ns,STATE,partition,old,new``
* health resolutions:    ``time_ns,HM,kind,partition,action,detail``

No cell holds ``,``: a mark label with one is refused, and
``health.raise_event`` stores a violation's detail with ``;`` in its
place, so every line is a plain ``%`` over its record's fields.

Records are NamedTuples, and no two kinds compare equal: only EventRecord
and StateRecord have as many fields, and their second field is a str in
one and an int in the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

from .units import Duration

# the most built records formatted and written at once, so that writing a
# trace holds a bounded part of its text however many records a run built
WRITE_CHUNK = 4096

# the most records a trace file may hold (about 280 MB at bench ``ring``'s
# 27.6 bytes a line); ``partsim run --trace`` refuses a longer trace
MAX_RECORDS = 10_000_000


class EventRecord(NamedTuple):
    time: Duration
    kind: str
    partition: int
    seq: int


class PortOpRecord(NamedTuple):
    time: Duration
    op: str  # WRITE | READ | SEND | RECV
    channel: str  # "c<index>", or "-" when the port resolves to no channel
    partition: int
    size: int
    result: str


class MarkRecord(NamedTuple):
    time: Duration
    partition: int
    label: str


class StateRecord(NamedTuple):
    time: Duration
    partition: int
    old: str
    new: str


class HmRecord(NamedTuple):
    """A resolved health action.  Its detail, like a mark label, never
    holds ``,``: ``health.raise_event``, its one maker in the engine,
    stores a ``,`` as ``;``."""

    time: Duration
    kind: str
    partition: int
    action: str
    detail: str = ""


TraceRecord = EventRecord | PortOpRecord | MarkRecord | StateRecord | HmRecord

# each record type's line as a ``%`` format of its fields in order
_FORMATS = {EventRecord: "%s,%s,%s,%s\n", PortOpRecord: "%s,PORT_OP,%s,%s,%s,%s,%s\n",
            MarkRecord: "%s,MARK,%s,%s\n", StateRecord: "%s,STATE,%s,%s,%s\n",
            HmRecord: "%s,HM,%s,%s,%s,%s\n"}


def _copies(period: list, periods: int, span: Duration, gain: dict) -> Iterator[TraceRecord]:
    """Copies 1..``periods`` of ``period``: copy k is k spans later, with
    each EventRecord's ``seq`` k times its partition's gain ahead."""
    for k in range(1, periods + 1):
        dt = k * span
        time = shifted = None
        for r in period:
            if r.time != time:  # same-time records share one int, as the engine's do
                time = r.time
                shifted = time + dt
            if type(r) is EventRecord:
                yield EventRecord(shifted, r.kind, r.partition, r.seq + k * gain[r.partition])
            else:
                yield type(r)(shifted, *r[1:])


def _copy_lines(period: list, periods: int, span: Duration, gain: dict) -> Iterator[bytes]:
    """The bytes of ``_copies``, one chunk per copy.  With span = s * 10**e,
    e its trailing decimal zeros, a time's low e digits are the same in
    every copy, and its high part steps by s: the period is formatted once,
    low digits included, with a ``%s`` for each high part and event ``seq``.
    Fields of the same (start, step) share one progression, so each copy
    formats its few distinct values once and fills every field from them."""
    unit = 10 ** (len(str(span)) - len(str(span).rstrip("0")))
    parts, fields, progressions = [], [], {}  # (start, step) -> the index of its value
    for r in period:
        high, low = divmod(r.time, unit)
        fields.append(progressions.setdefault((high, span // unit), len(progressions)))
        # unit + low writes low with its leading zeros, and no digit when e is 0
        rest = (_FORMATS[type(r)] % r).partition(",")[2].replace("%", "%%")
        part = "%s" + str(unit + low)[1:] + "," + rest
        if type(r) is EventRecord:
            part = part.rpartition(",")[0] + ",%s\n"
            assert span > 0 and gain[r.partition] > 0  # a range's step: this event advances its seq
            fields.append(progressions.setdefault((r.seq, gain[r.partition]), len(progressions)))
        parts.append(part)
    # each value's range iterator keeps its progression in C integers
    values = zip(*[iter(range(a + b, a + (periods + 1) * b, b)) for a, b in progressions])
    template = "".join(parts).encode("ascii")
    return _fill(template, itemgetter(*fields), b"%d " * len(progressions), values)


def _fill(template: bytes, pick: itemgetter, values_format: bytes,
          values: Iterator[tuple]) -> Iterator[bytes]:
    """``template`` filled once per tuple of ``values``; its fields are
    ``pick`` of the tuple's formatted values."""
    for copy in values:
        yield template % pick((values_format % copy).split())


class PeriodicTrace:
    """A run's append-only trace.  ``built`` holds the records the engine
    built.  Each ``repeat`` of the last period, built[start:], adds (start,
    end, periods, span, gain): ``periods`` copies of built[start:end] follow
    built[end - 1].  Iterating gives every record, the copies built as read."""

    def __init__(self) -> None:
        self.built: list[TraceRecord] = []
        self.append = self.built.append
        self.repeats: list[tuple[int, int, int, Duration, dict]] = []

    def repeat(self, start: int, periods: int, span: Duration, gain: dict) -> None:
        self.repeats.append((start, len(self.built), periods, span, gain))

    def pieces(self) -> Iterator[tuple[int, int, list[TraceRecord], tuple]]:
        """In order: (first, end) of a range of built records, the period
        whose copies follow them, and the copies."""
        first, n = 0, len(self.built)
        for start, end, *copies in self.repeats + [(n, n, 0, 0, {})]:
            yield first, end, self.built[start:end], copies
            first = end

    def __iter__(self) -> Iterator[TraceRecord]:
        for first, end, period, copies in self.pieces():
            yield from islice(self.built, first, end)
            yield from _copies(period, *copies)

    def record_count(self) -> int:
        """How many records iterating gives, however many that is."""
        return len(self.built) + sum((end - start) * n for start, end, n, *_ in self.repeats)


def _chunk_text(records: list[TraceRecord]) -> bytes:
    """The lines of ``records``, formatted by one ``%`` over a template
    joined from each record's format and filled from all their fields."""
    template = "".join([_FORMATS[type(r)] for r in records])
    return (template % tuple(chain.from_iterable(records))).encode("ascii")


def write_trace(trace: PeriodicTrace, path: str) -> None:
    """Write every record as ASCII bytes: built records ``WRITE_CHUNK`` at
    a time, each chunk by ``_chunk_text``, and each repeated period
    formatted once, as ``_copy_lines`` describes."""
    built = trace.built
    with open(path, "wb") as fh:
        for first, end, period, copies in trace.pieces():
            for chunk in range(first, end, WRITE_CHUNK):
                fh.write(_chunk_text(built[chunk:min(chunk + WRITE_CHUNK, end)]))
            if period:  # an empty period has no lines to copy, as the last piece's
                fh.writelines(_copy_lines(period, *copies))
