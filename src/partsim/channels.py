"""Sampling and queuing port state and operations.

Ports are named per partition; a channel connects one source port to one
(queuing) or more (sampling) destination ports.  The hypervisor copy cost
delays a message's visibility: a message written at t with payload size n
can be observed by readers no earlier than t + fixed + per_byte*n.

Payload content is modeled as a size rather than stored bytes, so
multi-megabyte payloads cost nothing to simulate.

The port API is the three script actions: ``send`` writes a sampling port
or enqueues on a queuing port, ``receive`` dequeues from a queuing port and
``read`` reads a sampling port.  Neither checks the kind of its port:
``harness.validate_scenario`` refuses a script that calls its own port
with the other one (``SCRIPT_KIND``), and a call on another partition's
port is NOT_OWNER before any kind would matter.
Operations never raise for application-level failures; they return a
PortStatus so callers (the scripted workloads) can record the miss and
proceed.  A NOT_OWNER result, for a port that the calling partition does
not own at that end, changes no port state; it is the spatial-isolation
violation that the health monitor turns into a MEMORY_VIOLATION event,
whether a scenario script or the ``SimState`` API made the call.  That
wiring lives in the engine, not here.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .config import ChannelKind, SystemConfig
from .units import Duration


class PortStatus(enum.Enum):
    OK = "OK"
    EMPTY = "EMPTY"
    FULL = "FULL"
    NOT_OWNER = "NOT_OWNER"
    TOO_LARGE = "TOO_LARGE"


class Message(NamedTuple):
    payload_size: int
    written_at: Duration


class PortTable:
    """All port state for one simulation, keyed by (partition, port name).

    Lives inside a SimState and shares its single-owner contract.  Each
    channel holds its messages as (message, visible_at) pairs in write
    order.  A queuing channel's are its bounded FIFO; a sampling channel's
    are the pending and current values of its latest-value cell, where a
    write drops what it supersedes by its visibility time and all visible
    but the newest, so they are in visibility order too.  The three
    script-facing operations, ``send``, ``receive`` and ``read``, are the
    whole port API: each resolves its port to a channel index once and
    dispatches on the channel kind.
    """

    def __init__(self, config: SystemConfig):
        self._copy_cost = config.copy_cost
        self._channels = config.channels
        self._held: list[list[tuple[Message, Duration]]] = [[] for _ in config.channels]
        self._source_of: dict[tuple[int, str], int] = {}
        self._dest_of: dict[tuple[int, str], int] = {}
        for index, ch in enumerate(config.channels):
            self._source_of[(ch.source.partition_id, ch.source.port)] = index
            for d in ch.destinations:
                self._dest_of[(d.partition_id, d.port)] = index
        self._labels = tuple(f"c{index}" for index in range(len(config.channels)))

    # -- periodic fast-forward -----------------------------------------------

    def snapshot(self, base: Duration) -> tuple:
        """Port contents relative to ``base``: per channel, each held
        message's size and its write and visible times minus ``base``."""
        return tuple([
            tuple([(m.payload_size, m.written_at - base, visible - base) for m, visible in held])
            for held in self._held
        ])

    def shift(self, delay: Duration) -> None:
        """Move every held message ``delay`` later."""
        self._held = [
            [(Message(m.payload_size, m.written_at + delay), visible + delay) for m, visible in held]
            for held in self._held
        ]

    # -- port operations -----------------------------------------------------

    def send(
        self, partition_id: int, port: str, payload_size: int, now: Duration
    ) -> tuple[PortStatus, Message | None, str, str]:
        """SEND script action: write a sampling port or enqueue on a queuing
        port.  Returns (status, message, channel label, op token)."""
        index = self._source_of.get((partition_id, port))
        if index is None:
            return PortStatus.NOT_OWNER, None, "-", "SEND"
        label = self._labels[index]
        ch = self._channels[index]
        held = self._held[index]
        queuing = ch.kind is ChannelKind.QUEUING
        op = "SEND" if queuing else "WRITE"
        if payload_size > ch.max_message_size:
            return PortStatus.TOO_LARGE, None, label, op
        if queuing and len(held) >= ch.capacity:
            return PortStatus.FULL, None, label, op
        msg = Message(payload_size, now)
        visible_at = now + self._copy_cost.of(payload_size)
        if queuing:
            held.append((msg, visible_at))
        else:
            # what becomes visible no earlier than this newer message, or is
            # hidden by a newer visible one, can never be read again
            held = [e for e in held if e[1] < visible_at] + [(msg, visible_at)]
            visible = sum(1 for e in held if e[1] <= now)  # a prefix of held
            self._held[index] = held[max(visible - 1, 0):]
        return PortStatus.OK, msg, label, op

    def receive(
        self, partition_id: int, port: str, now: Duration
    ) -> tuple[PortStatus, Message | None, str, str]:
        """RECV script action on a queuing port: dequeue the head once it
        is visible.  Returns (status, message, channel label, op token)."""
        index = self._dest_of.get((partition_id, port))
        if index is None:
            return PortStatus.NOT_OWNER, None, "-", "RECV"
        label = self._labels[index]
        held = self._held[index]
        # strict FIFO: a later message never bypasses an in-flight head
        if not held or held[0][1] > now:
            return PortStatus.EMPTY, None, label, "RECV"
        msg, _ = held.pop(0)
        return PortStatus.OK, msg, label, "RECV"

    def read(
        self, partition_id: int, port: str, now: Duration
    ) -> tuple[PortStatus, Message | None, bool, str, str]:
        """READ script action on a sampling port: the newest visible
        message and whether it is still fresh.  Returns (status, message,
        valid, channel label, op token)."""
        index = self._dest_of.get((partition_id, port))
        if index is None:
            return PortStatus.NOT_OWNER, None, False, "-", "READ"
        label = self._labels[index]
        held = self._held[index]
        visible = sum(1 for e in held if e[1] <= now)  # a prefix of held
        if not visible:
            return PortStatus.EMPTY, None, False, label, "READ"
        msg = held[visible - 1][0]  # the newest visible; the older ones go
        self._held[index] = held[visible - 1:]
        valid = (now - msg.written_at) <= self._channels[index].refresh_period
        return PortStatus.OK, msg, valid, label, "READ"
