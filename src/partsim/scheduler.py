"""Deterministic virtual clock, event queue, and fixed cyclic dispatch.

The engine owns a SimState: the virtual clock, the partition lifecycle
states, all port state, the pending events, and the append-only trace.
Time only moves by applying the globally least pending event, so two runs
of the same configuration, scripts, and seed produce byte-identical
traces.

Simultaneous events are ordered by a fixed kind rank::

    SLOT_END(0) < HM_EVENT(1) < FRAME_WRAP(2) < SLOT_START(3) < APP_ACTION(4)

then by partition id, then by insertion order.  Ending the outgoing slot
before starting the next one makes back-to-back slots unambiguous, and a
health action applied at time t takes effect before any same-time slot
start or app action.

One heap holds every pending event, the cyclic schedule's included.
``boot()`` sorts one frame's SLOT_START and SLOT_END entries, plus the
FRAME_WRAP at ``major_frame``, once, and queues that frame at t=0; each
FRAME_WRAP queues the next frame at its own time, so the heap holds at
most one frame of schedule events.  The key is (time, rank, partition,
insertion order).  Schedule events (ranks 0, 2, 3) and dynamic events
(APP_ACTION and HM_EVENT, ranks 1 and 4) never share a rank, so
insertion order decides only between dynamic events of one rank and
partition.  ``run_until`` is the only way to apply events.

A cyclic system is built to repeat, so the engine fast-forwards over the
repeats.  At every FRAME_WRAP it takes a fingerprint of its state
relative to the frame start: the partition states, each cursor's index
and carry, and each port's held messages (sizes, and times relative).
Nothing else is live at a wrap: every slot ends by the frame end, so no
slot is active and, until the wrap queues the next frame, no event is
pending; a halted system has no more wraps.  The rest of the run depends
only on these; the per-partition trace ``seq`` only counts.  When a
fingerprint equals the one of a wrap p frames earlier, the run repeats
every p frames from there on.  If m >= 1 whole periods end by ``t_end``,
the engine has its trace repeat the last period m times (each copy p
frames later, each partition's ``seq`` ahead by its gain per period),
moves the clock and the port messages m*p frames forward, advances the
``seq`` counters as much, queues the next frame at the shifted clock and
simulates the remainder.  The trace keeps one descriptor per repeat:
iterating it builds the copies, and its file gets them as one bytes
template per period, each time and ``seq`` field filled from its own
arithmetic progression; every CSV and trace byte is that of simulating
each frame.  A partition's lifecycle only moves forward, so no period
holds a state change.

The scheduler never extends a slot: a slot always ends at its scheduled
end, and whatever compute time the application still demanded carries over
to the partition's next slot (raising a slot-overrun health event at the
truncation point).
"""

from __future__ import annotations

import enum
import heapq
from typing import Any

from . import health as health_mod
from . import trace as trace_mod
from . import workload as workload_mod
from .channels import PortStatus, PortTable
# ``validate`` is not called here: bench/test_bench.py checks the tracer wraps this alias
from .config import ScheduleSlot, SystemConfig, validate
from .trace import EventRecord, MarkRecord, PortOpRecord
from .units import Duration
from .workload import AppCursor, AppScript, Mark, PendingAction, Read, Receive, Send


class SimulationError(Exception):
    """Base class for engine misuse and runtime faults."""


class PartitionState(enum.Enum):
    BOOT = "BOOT"
    NORMAL = "NORMAL"
    SUSPENDED = "SUSPENDED"
    HALTED = "HALTED"


# kind ranks; the engine keeps kinds as these ints and their names
_SLOT_END, _HM_EVENT, _FRAME_WRAP, _SLOT_START, _APP_ACTION = range(5)

FRAME_PARTITION = -1  # frame wraps belong to no partition


class SimState:
    """Single-owner simulation state; all mutation goes through boot/run_until.

    Distinct SimStates are independent and may run concurrently (one per
    distinct copy cost of a partitioned scenario's payloads; the payloads
    of that cost and all their repetitions share it).
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
        self.trace = trace_mod.PeriodicTrace()
        self.halted = False
        # pending events: (time, rank, partition, seq, payload); a schedule
        # event's payload is its slot, a dynamic event's starts with the
        # partition's epoch when it was queued
        self._heap: list[tuple[Duration, int, int, int, Any]] = []
        self._heap_seq = 0  # heap insertion order, breaks all remaining ties
        # one frame's schedule events, (offset, rank, partition, slot) in key order
        self._frame: list[tuple[Duration, int, int, ScheduleSlot | None]] = []
        # per-partition event numbering keeps one partition's projected
        # trace byte-identical when another partition misbehaves
        self._record_seq: dict[int, int] = {}
        self._epoch: dict[int, int] = {p.id: 0 for p in config.partitions}
        self._active: tuple[int, Duration] | None = None  # (pid, abs end)
        self._booted = False
        # the marked frame wrap: (fingerprint, (wrap time, built record count,
        # _record_seq)), wraps since it, and the wrap count at which the mark
        # moves on; see _fast_forward
        self._mark: tuple[tuple, tuple[Duration, int, dict[int, int]]] | None = None
        self._mark_age = 0
        self._mark_reach = 1

    # -- bookkeeping helpers -------------------------------------------------

    def _push(self, time: Duration, rank: int, partition_id: int, payload: Any) -> None:
        heapq.heappush(self._heap, (time, rank, partition_id, self._heap_seq, payload))
        self._heap_seq += 1

    def record_event(self, time: Duration, kind: str, partition_id: int) -> None:
        seq = self._record_seq.get(partition_id, 0)
        self._record_seq[partition_id] = seq + 1
        self.trace.append(EventRecord(time, kind, partition_id, seq))

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> SimState:
        """Bring every booting partition to NORMAL at t=0 and queue the
        first frame's schedule events.  The config must be valid and hold
        every script's partition; ``parse_scenario`` checks both, so boot
        does not."""
        if self._booted:
            raise SimulationError("already booted")
        if self.now != 0:
            raise SimulationError(f"cannot boot at {self.now}: the first frame starts at 0")
        self._booted = True
        for p in self.config.partitions:
            if self.partition_states[p.id] is PartitionState.BOOT:
                self._transition(p.id, PartitionState.NORMAL)  # halted stay halted
        plan = self.config.plan
        frame = self._frame = [(plan.major_frame, _FRAME_WRAP, FRAME_PARTITION, None)]
        for slot in plan.slots:
            frame.append((slot.start, _SLOT_START, slot.partition_id, slot))
            frame.append((slot.end, _SLOT_END, slot.partition_id, slot))
        # validated slots lie inside the frame, so FRAME_WRAP sorts last
        frame.sort(key=lambda e: e[:3])
        self._queue_frame()
        return self

    def _queue_frame(self) -> None:
        """Queue one frame of schedule events, starting now."""
        for offset, rank, pid, slot in self._frame:
            self._push(self.now + offset, rank, pid, slot)

    def _transition(self, pid: int, new: PartitionState) -> None:
        old = self.partition_states[pid]
        self.partition_states[pid] = new
        self.trace.append(
            trace_mod.StateRecord(time=self.now, partition=pid, old=old.value, new=new.value)
        )
        if new in (PartitionState.SUSPENDED, PartitionState.HALTED):
            # cancel this partition's in-flight actions
            self._epoch[pid] += 1

    def suspend_if_normal(self, partition_id: int) -> None:
        if self.partition_states.get(partition_id) is PartitionState.NORMAL:
            self._transition(partition_id, PartitionState.SUSPENDED)

    def halt_partition(self, partition_id: int) -> None:
        if self.partition_states.get(partition_id) is not PartitionState.HALTED:
            self._transition(partition_id, PartitionState.HALTED)

    def halt_system(self) -> None:
        """Drop every pending event, the rest of the schedule included;
        nothing happens after now."""
        self._heap.clear()
        self.halted = True

    # -- engine --------------------------------------------------------------

    def run_until(self, t_end: Duration) -> list[trace_mod.TraceRecord]:
        """Apply every event with time <= t_end; now == t_end on return.
        Returns the records the engine built in this call; the copies of
        repeated periods are in the trace's iteration only."""
        if t_end < self.now:
            raise SimulationError(f"cannot run backwards: {t_end} < {self.now}")
        built = self.trace.built
        start = len(built)
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time, rank, pid, _, payload = heapq.heappop(heap)
            assert time >= self.now, "event queue delivered an event from the past"
            self.now = time
            if rank == _APP_ACTION:
                self._on_app_action(pid, payload)
            elif rank == _HM_EVENT:
                self._on_hm_event(pid, payload)
            elif rank == _SLOT_START:
                self._on_slot_start(pid, payload)
            elif rank == _SLOT_END:
                self.record_event(time, "SLOT_END", pid)
                self._active = None
            else:
                self.record_event(time, "FRAME_WRAP", pid)
                self._fast_forward(t_end)
                self._queue_frame()
        self.now = t_end
        return built[start:]

    # -- periodic fast-forward -------------------------------------------

    def _fingerprint(self) -> tuple:
        """Everything the rest of the run depends on, relative to now."""
        # at a wrap every slot has ended, and with it every app action and
        # overrun of its slot; the next frame is not queued yet, and a
        # halted system has no wraps left
        assert not self._heap and self._active is None and not self.halted
        return (
            tuple(self.partition_states.values()),
            tuple([(c.index, c.carry) for c in self.cursors.values()]),
            self.ports.snapshot(self.now),
        )

    def _fast_forward(self, t_end: Duration) -> None:
        """At a frame wrap, skip the whole periods of a repeating run.

        The fingerprint is compared with the one of a marked earlier wrap
        (Brent's cycle search: the mark moves to the current wrap after 1,
        2, 4, ... wraps, so no per-frame history is kept, and a cycle of p
        frames entered at wrap w is found by about wrap 2*max(w, p) + p).
        On a match the run from the mark to now repeats forever, shifted by
        its span.  Have the trace repeat that period's records once per
        whole period that ends by ``t_end``, then move the live state
        forward as much.
        """
        key = self._fingerprint()
        self._mark_age += 1
        if self._mark is None or key != self._mark[0]:
            if self._mark_age >= self._mark_reach:
                self._mark = key, self._wrap_counters()
                self._mark_age = 0
                self._mark_reach *= 2
            return
        record_seq = self._record_seq
        then, start, seq_then = self._mark[1]
        span = self.now - then
        periods = (t_end - self.now) // span
        if periods > 0:
            gain = {pid: seq - seq_then.get(pid, 0) for pid, seq in record_seq.items()}
            self.trace.repeat(start, periods, span, gain)
            shift = periods * span
            self.now += shift
            for pid, g in gain.items():
                record_seq[pid] += periods * g
            self.ports.shift(shift)
        # the cycle is known: mark its latest start, so that a later call
        # with a larger t_end matches again one period on
        self._mark = key, self._wrap_counters()
        self._mark_age = 0

    def _wrap_counters(self) -> tuple[Duration, int, dict[int, int]]:
        return self.now, len(self.trace.built), dict(self._record_seq)

    # -- handlers --------------------------------------------------------

    def _on_slot_start(self, pid: int, slot: ScheduleSlot) -> None:
        self.record_event(self.now, "SLOT_START", pid)
        self._active = (pid, self.now + slot.duration)
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
        # pid's slot is the active one: a slot start has just set it, or an
        # app action runs, and every action is due before its slot's end
        slot_end = self._active[1]
        plan = workload_mod.plan_until_next_action(
            self.scripts[pid], self.cursors[pid], t, slot_end
        )
        if plan is None:
            return
        epoch = self._epoch[pid]
        if type(plan) is PendingAction:
            self._push(plan.time, _APP_ACTION, pid, (epoch, plan.index))
        else:  # PendingOverrun: the truncation fires at the slot end
            self._push(slot_end, _HM_EVENT, pid, (epoch, "overrun", plan.demanded, plan.remaining))

    def _on_app_action(self, pid: int, payload: tuple[int, int]) -> None:
        epoch, index = payload
        if epoch != self._epoch[pid]:
            # cancelled by a suspend/halt after scheduling; leaving NORMAL
            # always moves the epoch, so an action of the current one runs
            # in a NORMAL partition
            return
        now = self.now
        self.record_event(now, "APP_ACTION", pid)
        action = self.scripts[pid].actions[index]
        kind = type(action)
        next_t = now
        if kind is Mark:
            self.trace.append(MarkRecord(now, pid, action.label))
        else:  # a port call; the planner consumes every COMPUTE
            next_t = now + self.api_call_cost
            if kind is Send:
                size = action.size if action.size is not None else 0
                status, _msg, channel, op = self.ports.send(pid, action.port, size, now)
                result = status.value
            else:
                if kind is Receive:
                    status, msg, channel, op = self.ports.receive(pid, action.port, now)
                    valid = msg is not None
                else:
                    status, msg, valid, channel, op = self.ports.read(pid, action.port, now)
                result = status.value
                if status is PortStatus.OK and not valid:
                    result = "STALE"  # returned anyway; freshness window elapsed
                size = 0
                if msg is not None:
                    size = msg.payload_size
                    # delivery copies the payload into the partition's space
                    next_t += self.config.copy_cost.of(size)
            self.trace.append(PortOpRecord(now, op, channel, pid, size, result))
            if status is PortStatus.NOT_OWNER:
                self._post_violation(pid, op, action.port)
        self.cursors[pid].index = index + 1
        self._dispatch_from(pid, next_t)

    def _post_violation(self, pid: int, op: str, port: str) -> None:
        """Queue a memory violation raised now; it resolves after the
        current event completes but before any same-time slot start or app
        action (per the kind rank)."""
        self._push(self.now, _HM_EVENT, pid, (self._epoch[pid], "violation", f"{op} {port}"))

    def _on_hm_event(self, pid: int, payload: Any) -> None:
        if payload[1] == "overrun":
            epoch, _, demanded, remaining = payload
            if epoch != self._epoch[pid]:
                return
            # the planner posts only real overruns: demanded > remaining
            overrun = demanded - remaining
            health_mod.raise_event(self, health_mod.HmKind.SLOT_OVERRUN, pid, str(overrun))
            # the truncated COMPUTE resumes in the next slot
            self.cursors[pid].carry = overrun
        else:
            health_mod.raise_event(self, health_mod.HmKind.MEMORY_VIOLATION, pid, payload[2])
