"""Trace records and their stable text encoding.

A run's trace is an append-only list of records.  The line formats are part
of the tool's contract and are pinned by golden tests:

* scheduler events:      ``time_ns,KIND,partition,seq``
  (KIND is one of SLOT_START, SLOT_END, FRAME_WRAP, APP_ACTION, HM_EVENT;
  FRAME_WRAP uses partition -1)
* port operations:       ``time_ns,PORT_OP,op,channel,partition,size,result``
* script marks:          ``time_ns,MARK,partition,label``
* partition transitions: ``time_ns,STATE,partition,old,new``
* health resolutions:    ``time_ns,HM,kind,partition,action,detail``
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import Duration


@dataclass(frozen=True, slots=True)
class EventRecord:
    time: Duration
    kind: str
    partition: int
    seq: int

    def line(self) -> str:
        return f"{self.time},{self.kind},{self.partition},{self.seq}"


@dataclass(frozen=True, slots=True)
class PortOpRecord:
    time: Duration
    op: str  # WRITE | READ | SEND | RECV
    channel: str  # "c<index>", or "-" when the port resolves to no channel
    partition: int
    size: int
    result: str

    def line(self) -> str:
        return f"{self.time},PORT_OP,{self.op},{self.channel},{self.partition},{self.size},{self.result}"


@dataclass(frozen=True, slots=True)
class MarkRecord:
    time: Duration
    partition: int
    label: str

    def line(self) -> str:
        return f"{self.time},MARK,{self.partition},{self.label}"


@dataclass(frozen=True, slots=True)
class StateRecord:
    time: Duration
    partition: int
    old: str
    new: str

    def line(self) -> str:
        return f"{self.time},STATE,{self.partition},{self.old},{self.new}"


@dataclass(frozen=True, slots=True)
class HmRecord:
    time: Duration
    kind: str
    partition: int
    action: str
    detail: str = ""

    def line(self) -> str:
        detail = self.detail.replace(",", ";")
        return f"{self.time},HM,{self.kind},{self.partition},{self.action},{detail}"


TraceRecord = EventRecord | PortOpRecord | MarkRecord | StateRecord | HmRecord


def format_trace(records: list[TraceRecord]) -> str:
    return "".join([r.line() + "\n" for r in records])


def write_trace(records: list[TraceRecord], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(format_trace(records))
