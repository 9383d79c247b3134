"""Deterministic virtual clock, event queue, and fixed cyclic dispatch.

The engine owns a SimState: the virtual clock, the partition lifecycle
states, all port state, the pending event queue, and the append-only
trace.  Time only moves by popping the globally least event, so two runs
of the same configuration, scripts, and seed produce byte-identical
traces.

Simultaneous events are ordered by a fixed kind rank::

    SLOT_END < HM_EVENT < FRAME_WRAP < SLOT_START < APP_ACTION

then by partition id, then by a monotone sequence number.  Ending the
outgoing slot before starting the next one makes back-to-back slots
unambiguous, and a health action applied at time t takes effect before any
same-time slot start or app action.

The scheduler never extends a slot: a slot always ends at its scheduled
end, and whatever compute time the application still demanded carries over
to the partition's next slot (raising a slot-overrun health event at the
truncation point).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any

from . import health as health_mod
from . import trace as trace_mod
from . import workload as workload_mod
from .channels import PortStatus, PortTable
from .config import Finding, ScheduleSlot, SystemConfig, validate
from .units import Duration
from .workload import (
    AppCursor,
    AppScript,
    Compute,
    Mark,
    PendingAction,
    Read,
    Receive,
    Send,
)


class SimulationError(Exception):
    """Base class for engine misuse and runtime faults."""


class ConfigInvalid(SimulationError):
    def __init__(self, findings: list[Finding]):
        super().__init__("; ".join(str(f) for f in findings) or "invalid configuration")
        self.findings = findings


class QueueEmpty(SimulationError):
    """step() on an empty event queue."""


class IllegalTransition(SimulationError):
    """Partition lifecycle transition not permitted."""


class PartitionState(enum.Enum):
    BOOT = "BOOT"
    NORMAL = "NORMAL"
    SUSPENDED = "SUSPENDED"
    HALTED = "HALTED"


_ALLOWED_TRANSITIONS = {
    (PartitionState.BOOT, PartitionState.NORMAL),
    (PartitionState.NORMAL, PartitionState.SUSPENDED),
    (PartitionState.SUSPENDED, PartitionState.NORMAL),
}


class EventKind(enum.Enum):
    SLOT_START = "SLOT_START"
    SLOT_END = "SLOT_END"
    FRAME_WRAP = "FRAME_WRAP"
    APP_ACTION = "APP_ACTION"
    HM_EVENT = "HM_EVENT"


KIND_RANK = {
    EventKind.SLOT_END: 0,
    EventKind.HM_EVENT: 1,
    EventKind.FRAME_WRAP: 2,
    EventKind.SLOT_START: 3,
    EventKind.APP_ACTION: 4,
}

FRAME_PARTITION = -1  # frame wraps belong to no partition


@dataclass(frozen=True)
class Event:
    time: Duration
    kind: EventKind
    partition_id: int
    seq: int


class SimState:
    """Single-owner simulation state; all mutation goes through boot/step.

    Distinct SimStates are independent and may run concurrently (one per
    payload of a partitioned scenario; its repetitions share it).
    """

    def __init__(
        self,
        config: SystemConfig,
        scripts: dict[int, AppScript] | None = None,
        health_table: health_mod.HealthTable | None = None,
        api_call_cost: Duration = 0,
    ):
        self.config = config
        self.now: Duration = 0
        self.partition_states: dict[int, PartitionState] = {
            p.id: PartitionState.BOOT for p in config.partitions
        }
        self.ports = PortTable(config)
        self.scripts: dict[int, AppScript] = dict(scripts or {})
        self.cursors: dict[int, AppCursor] = {pid: AppCursor() for pid in self.scripts}
        self.health_table = health_table or health_mod.HealthTable()
        self.api_call_cost = api_call_cost
        self.trace: list[trace_mod.TraceRecord] = []
        self.halted = False
        self._queue: list[tuple[Duration, int, int, int, EventKind, Any]] = []
        self._event_seq = 0  # queue insertion order, breaks all remaining ties
        # per-partition event numbering keeps one partition's projected
        # trace byte-identical when another partition misbehaves
        self._record_seq: dict[int, int] = {}
        self._epoch: dict[int, int] = {p.id: 0 for p in config.partitions}
        self._active: tuple[int, int, Duration] | None = None  # (pid, slot_id, abs end)
        self._booted = False

    # -- bookkeeping helpers -------------------------------------------------

    def take_seq(self, partition_id: int) -> int:
        seq = self._record_seq.get(partition_id, 0)
        self._record_seq[partition_id] = seq + 1
        return seq

    def append_record(self, record: trace_mod.TraceRecord) -> None:
        self.trace.append(record)

    def events(self, kind: EventKind | None = None) -> list[trace_mod.EventRecord]:
        records = [r for r in self.trace if isinstance(r, trace_mod.EventRecord)]
        if kind is not None:
            records = [r for r in records if r.kind == kind.value]
        return records

    def _push(self, time: Duration, kind: EventKind, partition_id: int, payload: Any) -> None:
        heapq.heappush(
            self._queue,
            (time, KIND_RANK[kind], partition_id, self._event_seq, kind, payload),
        )
        self._event_seq += 1

    def _record_event(self, time: Duration, kind: EventKind, partition_id: int) -> None:
        self.append_record(
            trace_mod.EventRecord(
                time=time, kind=kind.value, partition=partition_id,
                seq=self.take_seq(partition_id),
            )
        )

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> SimState:
        """Validate, bring every booting partition to NORMAL at t=0, and
        schedule frame 0.  Raises ConfigInvalid when validation reports
        findings."""
        if self._booted:
            raise SimulationError("already booted")
        findings = validate(self.config)
        if findings:
            raise ConfigInvalid(findings)
        for pid in self.scripts:
            if pid not in self.partition_states:
                raise ConfigInvalid(
                    [Finding("UNKNOWN_PARTITION", "ERROR", f"script {pid}",
                             "script references a partition not in the configuration")]
                )
        self._booted = True
        for p in self.config.partitions:
            if self.partition_states[p.id] is PartitionState.BOOT:
                self._transition(p.id, PartitionState.NORMAL)  # halted stay halted
        self._schedule_frame(0)
        self._push(self.config.plan.major_frame, EventKind.FRAME_WRAP, FRAME_PARTITION, None)
        return self

    def _schedule_frame(self, frame_index: int) -> None:
        base = frame_index * self.config.plan.major_frame
        for slot in self.config.plan.slots:
            self._push(base + slot.start, EventKind.SLOT_START, slot.partition_id, slot)
            self._push(base + slot.end, EventKind.SLOT_END, slot.partition_id, slot)

    def _transition(self, pid: int, new: PartitionState) -> None:
        old = self.partition_states[pid]
        self.partition_states[pid] = new
        self.append_record(
            trace_mod.StateRecord(time=self.now, partition=pid, old=old.value, new=new.value)
        )
        if new in (PartitionState.SUSPENDED, PartitionState.HALTED):
            # cancel this partition's in-flight actions
            self._epoch[pid] += 1

    def set_partition_state(self, partition_id: int, new: PartitionState) -> None:
        """Apply a lifecycle transition.  Permitted: BOOT->NORMAL,
        NORMAL->SUSPENDED, SUSPENDED->NORMAL, any->HALTED."""
        if partition_id not in self.partition_states:
            raise SimulationError(f"unknown partition {partition_id}")
        old = self.partition_states[partition_id]
        if old == new and new is PartitionState.HALTED:
            return  # halting a halted partition is a no-op
        if new is not PartitionState.HALTED and (old, new) not in _ALLOWED_TRANSITIONS:
            raise IllegalTransition(f"partition {partition_id}: {old.value} -> {new.value}")
        self._transition(partition_id, new)

    def suspend_if_normal(self, partition_id: int) -> None:
        if self.partition_states.get(partition_id) is PartitionState.NORMAL:
            self._transition(partition_id, PartitionState.SUSPENDED)

    def halt_partition(self, partition_id: int) -> None:
        if self.partition_states.get(partition_id) is not PartitionState.HALTED:
            self._transition(partition_id, PartitionState.HALTED)

    def halt_system(self) -> None:
        """Drain the queue and end the run; nothing happens after now."""
        self._queue.clear()
        self.halted = True

    def post_health_event(self, ev: health_mod.HealthEvent) -> None:
        """Queue a health event raised at the current instant; it resolves
        after the current event completes but before any same-time slot
        start or app action (per the kind rank)."""
        if ev.time != self.now:
            raise SimulationError(f"health event time {ev.time} != now {self.now}")
        self._push(ev.time, EventKind.HM_EVENT, ev.source_partition, ("event", ev))

    # -- engine --------------------------------------------------------------

    def step(self) -> Event:
        """Pop and apply the globally least event; returns it."""
        if not self._queue:
            raise QueueEmpty("event queue is empty")
        time, _, pid, seq, kind, payload = heapq.heappop(self._queue)
        assert time >= self.now, "event queue delivered an event from the past"
        self.now = time
        event = Event(time=time, kind=kind, partition_id=pid, seq=seq)
        if kind is EventKind.SLOT_START:
            self._on_slot_start(pid, payload)
        elif kind is EventKind.SLOT_END:
            self._record_event(time, kind, pid)
            self._active = None
        elif kind is EventKind.FRAME_WRAP:
            self._record_event(time, kind, FRAME_PARTITION)
            frame_index = time // self.config.plan.major_frame
            self._schedule_frame(frame_index)
            self._push(
                (frame_index + 1) * self.config.plan.major_frame,
                EventKind.FRAME_WRAP,
                FRAME_PARTITION,
                None,
            )
        elif kind is EventKind.APP_ACTION:
            self._on_app_action(pid, payload)
        elif kind is EventKind.HM_EVENT:
            self._on_hm_event(pid, payload)
        return event

    def run_until(self, t_end: Duration) -> list[trace_mod.TraceRecord]:
        """Apply every event with time <= t_end; now == t_end on return.
        Returns the slice of trace records appended by this call."""
        if t_end < self.now:
            raise SimulationError(f"cannot run backwards: {t_end} < {self.now}")
        start = len(self.trace)
        while self._queue and self._queue[0][0] <= t_end:
            self.step()
        self.now = t_end
        return self.trace[start:]

    # -- handlers --------------------------------------------------------

    def _on_slot_start(self, pid: int, slot: ScheduleSlot) -> None:
        self._record_event(self.now, EventKind.SLOT_START, pid)
        self._active = (pid, slot.slot_id, self.now + slot.duration)
        script = self.scripts.get(pid)
        if script is None or not script.actions:
            return
        if self.partition_states[pid] is not PartitionState.NORMAL:
            return  # suspended/halted partitions idle through their slots
        cursor = self.cursors[pid]
        if (
            script.mode is workload_mod.ScriptMode.REPEAT_EACH_SLOT
            and cursor.index >= len(script.actions)
        ):
            cursor.index = 0
        self._dispatch_from(pid, self.now)

    def _dispatch_from(self, pid: int, t: Duration) -> None:
        if self._active is None or self._active[0] != pid:
            return
        slot_end = self._active[2]
        script = self.scripts[pid]
        cursor = self.cursors[pid]
        plan = workload_mod.plan_until_next_action(script, cursor, t, slot_end)
        if plan is None:
            return
        epoch = self._epoch[pid]
        if isinstance(plan, PendingAction):
            self._push(plan.time, EventKind.APP_ACTION, pid, (epoch, plan.index))
        else:  # PendingOverrun: the truncation fires at the slot end
            self._push(
                slot_end,
                EventKind.HM_EVENT,
                pid,
                ("overrun", epoch, plan.demanded, plan.remaining),
            )

    def _on_app_action(self, pid: int, payload: tuple[int, int]) -> None:
        epoch, index = payload
        if epoch != self._epoch[pid]:
            return  # cancelled by a suspend/halt after scheduling
        if self.partition_states[pid] is not PartitionState.NORMAL:
            return
        self._record_event(self.now, EventKind.APP_ACTION, pid)
        script = self.scripts[pid]
        cursor = self.cursors[pid]
        action = script.actions[index]
        next_t = self.now
        if isinstance(action, Mark):
            self.append_record(
                trace_mod.MarkRecord(time=self.now, partition=pid, label=action.label)
            )
        elif isinstance(action, Send):
            size = action.size if action.size is not None else 0
            status, _msg, channel, op = self.ports.send(pid, action.port, size, self.now)
            self.append_record(
                trace_mod.PortOpRecord(
                    time=self.now, op=op, channel=channel, partition=pid,
                    size=size, result=status.value,
                )
            )
            if status is PortStatus.NOT_OWNER:
                self._post_violation(pid, op, action.port)
            next_t = self.now + self.api_call_cost
        elif isinstance(action, (Receive, Read)):
            if isinstance(action, Receive):
                status, msg, channel, op = self.ports.receive(pid, action.port, self.now)
                valid = msg is not None
            else:
                status, msg, valid, channel, op = self.ports.read(pid, action.port, self.now)
            result = status.value
            if status is PortStatus.OK and not valid:
                result = "STALE"  # returned anyway; freshness window elapsed
            self.append_record(
                trace_mod.PortOpRecord(
                    time=self.now, op=op, channel=channel, partition=pid,
                    size=msg.payload_size if msg else 0, result=result,
                )
            )
            if status is PortStatus.NOT_OWNER:
                self._post_violation(pid, op, action.port)
            next_t = self.now + self.api_call_cost
            if msg is not None:
                # delivery copies the payload into the partition's space
                next_t += self.config.copy_cost.of(msg.payload_size)
        elif isinstance(action, Compute):  # pragma: no cover - computes never schedule
            raise SimulationError("COMPUTE actions are consumed by the planner")
        cursor.index = index + 1
        self._dispatch_from(pid, next_t)

    def _post_violation(self, pid: int, op: str, port: str) -> None:
        self.post_health_event(
            health_mod.HealthEvent(
                time=self.now,
                kind=health_mod.HmKind.MEMORY_VIOLATION,
                source_partition=pid,
                detail=f"{op} {port}",
            )
        )

    def _on_hm_event(self, pid: int, payload: Any) -> None:
        if payload[0] == "overrun":
            _, epoch, demanded, remaining = payload
            if epoch != self._epoch[pid]:
                return
            ev = health_mod.detect_overrun(self, pid, demanded, remaining)
            if ev is None:  # pragma: no cover - planner only posts real overruns
                return
            health_mod.raise_event(self, ev)
            # the truncated COMPUTE resumes in the next slot
            self.cursors[pid].carry = ev.overrun_amount
        else:
            health_mod.raise_event(self, payload[1])

