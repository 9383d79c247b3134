"""Scripted partition applications.

A script is a straight-line list of actions executed inside the owning
partition's slots.  COMPUTE consumes virtual time; SEND/RECEIVE/READ are
port calls at the current offset; MARK drops a labelled timestamp into the
trace (the harness measures latency between marks).

Text grammar, one action per line; a line that starts with ``#`` is a
comment::

    compute 100us
    # or: send out $payload
    send out 64
    recv in
    read in
    mark tx

A mark label is ASCII and holds no ``,``: it is a cell of its trace line.
A port name is ASCII: a call on a port of another partition writes it to
the trace, in the detail of its memory violation.

Execution semantics:

* The cursor survives across slots: actions that do not fit run in the
  partition's next slot.  A COMPUTE truncated by the slot end raises a
  slot-overrun health event and its remainder carries over.
* A COMPUTE that cannot even start (offset already at slot end) simply
  resumes next slot; only a truncated, running COMPUTE is an overrun.
* Port actions cost a fixed api_call_cost; a successful RECEIVE/READ
  additionally costs the hypervisor copy time of the delivered payload.
* RECEIVE and READ never block; on EMPTY the script records the miss in
  the trace and proceeds.
* mode=REPEAT_EACH_SLOT restarts a *completed* pass at the next slot
  start, at most one fresh pass per slot; mode=ONCE runs a single pass.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .units import Duration, parse_duration, parse_integer

PAYLOAD_PLACEHOLDER = "$payload"


class ScriptError(ValueError):
    """Malformed script text."""


class ScriptMode(enum.Enum):
    ONCE = "ONCE"
    REPEAT_EACH_SLOT = "REPEAT_EACH_SLOT"


class Compute(NamedTuple):
    duration: Duration


class Send(NamedTuple):
    port: str
    size: int | None  # None = bind to the scenario's current payload size


class Receive(NamedTuple):
    port: str


class Read(NamedTuple):
    port: str


class Mark(NamedTuple):
    label: str


# actions are tuples, so Receive("in") == Read("in"): dispatch on type()
Action = Compute | Send | Receive | Read | Mark


class AppScript(NamedTuple):
    actions: tuple[Action, ...]
    mode: ScriptMode = ScriptMode.ONCE

    def bind_payload(self, payload_size: int) -> AppScript:
        """Resolve ``$payload`` sends against a concrete size."""
        bound = tuple(
            Send(a.port, payload_size) if isinstance(a, Send) and a.size is None else a
            for a in self.actions
        )
        return AppScript(bound, self.mode)


class AppCursor:
    """Per-partition execution position; carry holds the unfinished part
    of an overrun COMPUTE and is positive only after a SLOT_OVERRUN."""

    __slots__ = ("index", "carry")

    def __init__(self, index: int = 0, carry: Duration = 0) -> None:
        self.index, self.carry = index, carry


class PendingAction(NamedTuple):
    """The next port/mark action, due at an absolute time inside the slot."""

    time: Duration
    index: int


class PendingOverrun(NamedTuple):
    """A running COMPUTE will be truncated at the slot end."""

    demanded: Duration
    remaining: Duration


def parse_action(line: str) -> Action:
    parts = line.split()
    if not parts:
        raise ScriptError("empty action line")
    op, args = parts[0].lower(), parts[1:]
    if op in ("send", "recv", "read") and args and not args[0].isascii():
        # a call on another partition's port writes its name to the trace
        raise ScriptError(f"port name must be ASCII: {line!r}")
    if op == "compute" and len(args) == 1:
        return Compute(duration=parse_duration(args[0]))
    if op == "send" and len(args) == 2:
        if args[1] == PAYLOAD_PLACEHOLDER:
            return Send(port=args[0], size=None)
        size = parse_integer(args[1])
        if size <= 0:
            raise ScriptError(f"send size must be positive: {line!r}")
        return Send(port=args[0], size=size)
    if op == "recv" and len(args) == 1:
        return Receive(port=args[0])
    if op == "read" and len(args) == 1:
        return Read(port=args[0])
    if op == "mark" and len(args) == 1:
        if not args[0].isascii() or "," in args[0]:  # it is a trace cell
            raise ScriptError(f"mark label must be ASCII without ',': {line!r}")
        return Mark(label=args[0])
    raise ScriptError(f"unrecognized action {line!r}")


def parse_script(
    lines: list[str], partition_id: int, mode: ScriptMode = ScriptMode.ONCE
) -> AppScript:
    actions = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            actions.append(parse_action(line))
        except ValueError as exc:
            raise ScriptError(f"partition {partition_id}: {exc}") from None
    return AppScript(tuple(actions), mode)


def plan_until_next_action(
    script: AppScript, cursor: AppCursor, t: Duration, slot_end: Duration
) -> PendingAction | PendingOverrun | None:
    """Advance the cursor across COMPUTEs that finish by ``slot_end``.

    Returns what the engine must schedule next: a PendingAction for the
    next port/mark action, a PendingOverrun if a compute is truncated, or
    None when the pass is complete or nothing more can start this slot.
    Completed COMPUTEs update the cursor in place; an overrun leaves the
    cursor on the truncated COMPUTE (the engine stores the carry once the
    health event fires).
    """
    actions = script.actions
    while True:
        if cursor.index >= len(actions):
            return None
        if t >= slot_end:
            return None  # remainder resumes at the partition's next slot
        action = actions[cursor.index]
        if type(action) is Compute:
            need = cursor.carry if cursor.carry > 0 else action.duration
            if t + need <= slot_end:
                t += need
                cursor.carry = 0
                cursor.index += 1
                continue
            return PendingOverrun(demanded=need, remaining=slot_end - t)
        return PendingAction(time=t, index=cursor.index)
