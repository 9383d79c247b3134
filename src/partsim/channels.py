"""Sampling and queuing port state and operations.

Ports are named per partition; a channel connects one source port to one
(queuing) or more (sampling) destination ports.  The hypervisor copy cost
delays a message's visibility: a message written at t with payload size n
can be observed by readers no earlier than t + fixed + per_byte*n.

Payload content is modeled as a size plus a deterministic checksum rather
than stored bytes, so multi-megabyte payloads cost nothing to simulate
while receivers can still verify message identity.

The port API is the three script actions: ``send`` writes a sampling port
or enqueues on a queuing port, ``receive`` dequeues from a queuing port and
``read`` reads a sampling port (either on the other kind is BAD_KIND).
Operations never raise for application-level failures; they return a
PortStatus so callers (the scripted workloads) can record the miss and
proceed.  A NOT_OWNER result is the spatial-isolation violation that the
health monitor turns into a MEMORY_VIOLATION event; that wiring lives in
the engine, not here.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field

from .config import ChannelKind, ChannelSpec, SystemConfig
from .units import Duration


class PortStatus(enum.Enum):
    OK = "OK"
    EMPTY = "EMPTY"
    FULL = "FULL"
    NOT_OWNER = "NOT_OWNER"
    TOO_LARGE = "TOO_LARGE"
    BAD_KIND = "BAD_KIND"


@dataclass(frozen=True, slots=True)
class Message:
    payload_size: int
    written_at: Duration
    source_partition: int
    seq: int
    checksum: int

    def verify(self) -> bool:
        return self.checksum == payload_checksum(
            self.source_partition, self.seq, self.payload_size
        )


def payload_checksum(source_partition: int, seq: int, payload_size: int) -> int:
    return zlib.crc32(f"{source_partition}:{seq}:{payload_size}".encode("ascii"))


@dataclass
class SamplingPortState:
    """Latest-value cell.  ``writes`` holds the pending and current
    messages as (message, visible_at) pairs in write order; a write drops
    what it supersedes by its visibility time and all visible but the newest."""

    channel: ChannelSpec
    writes: list[tuple[Message, Duration]] = field(default_factory=list)


@dataclass
class QueuingPortState:
    """Bounded FIFO of (message, visible_at) pairs in write order."""

    channel: ChannelSpec
    fifo: list[tuple[Message, Duration]] = field(default_factory=list)


def _held(st: SamplingPortState | QueuingPortState) -> list[tuple[Message, Duration]]:
    return st.writes if type(st) is SamplingPortState else st.fifo


class PortTable:
    """All port state for one simulation, keyed by (partition, port name).

    Lives inside a SimState and shares its single-owner contract.  The
    three script-facing operations, ``send``, ``receive`` and ``read``,
    are the whole port API: each resolves its port to a channel index once
    and dispatches on the channel kind.
    """

    def __init__(self, config: SystemConfig):
        self._copy_cost = config.copy_cost
        self._states: list[SamplingPortState | QueuingPortState] = []
        self._source_of: dict[tuple[int, str], int] = {}
        self._dest_of: dict[tuple[int, str], int] = {}
        self._next_seq: list[int] = []
        for index, ch in enumerate(config.channels):
            if ch.kind is ChannelKind.SAMPLING:
                self._states.append(SamplingPortState(channel=ch))
            else:
                self._states.append(QueuingPortState(channel=ch))
            self._next_seq.append(0)
            self._source_of[(ch.source.partition_id, ch.source.port)] = index
            for d in ch.destinations:
                self._dest_of[(d.partition_id, d.port)] = index
        self._labels = tuple(f"c{index}" for index in range(len(self._states)))

    def state(self, index: int) -> SamplingPortState | QueuingPortState:
        return self._states[index]

    # -- periodic fast-forward -----------------------------------------------

    def snapshot(self, base: Duration) -> tuple:
        """Port contents relative to ``base``: per channel, each held
        message's size, source, write and visible times minus ``base``, and
        how many messages the channel has numbered since it.  Message
        numbers and checksums are left out."""
        return tuple([
            tuple([
                (m.payload_size, m.source_partition, m.written_at - base, visible - base,
                 next_seq - m.seq)
                for m, visible in _held(st)
            ])
            for st, next_seq in zip(self._states, self._next_seq)
        ])

    def seq_counters(self) -> tuple[int, ...]:
        """Each channel's next message number."""
        return tuple(self._next_seq)

    def shift(self, delay: Duration, seq_gain: list[int]) -> None:
        """Move every held message ``delay`` later and advance channel i's
        numbering by ``seq_gain[i]``, renumbering (and re-checksumming) its
        held messages to match."""
        for index, st in enumerate(self._states):
            gain = seq_gain[index]
            self._next_seq[index] += gain
            held = _held(st)
            for k, (m, visible) in enumerate(held):
                seq = m.seq + gain
                held[k] = (
                    Message(m.payload_size, m.written_at + delay, m.source_partition, seq,
                            payload_checksum(m.source_partition, seq, m.payload_size)),
                    visible + delay,
                )

    def _make_message(self, index: int, partition_id: int, size: int, now: Duration) -> Message:
        seq = self._next_seq[index]
        self._next_seq[index] = seq + 1
        return Message(size, now, partition_id, seq, payload_checksum(partition_id, seq, size))

    # -- port operations -----------------------------------------------------

    def _write(
        self, index: int, partition_id: int, payload_size: int, now: Duration
    ) -> tuple[PortStatus, Message | None]:
        st = self._states[index]
        if payload_size > st.channel.max_message_size:
            return PortStatus.TOO_LARGE, None
        msg = self._make_message(index, partition_id, payload_size, now)
        visible_at = now + self._copy_cost.of(payload_size)
        # what becomes visible no earlier than this newer message, or is
        # hidden by a newer visible one, can never be read again
        held = [e for e in st.writes if e[1] < visible_at] + [(msg, visible_at)]
        visible = sum(1 for e in held if e[1] <= now)  # a prefix of held
        st.writes = held[max(visible - 1, 0):]
        return PortStatus.OK, msg

    def _enqueue(
        self, index: int, partition_id: int, payload_size: int, now: Duration
    ) -> tuple[PortStatus, Message | None]:
        st = self._states[index]
        if payload_size > st.channel.max_message_size:
            return PortStatus.TOO_LARGE, None
        if len(st.fifo) >= (st.channel.capacity or 0):
            return PortStatus.FULL, None
        msg = self._make_message(index, partition_id, payload_size, now)
        st.fifo.append((msg, now + self._copy_cost.of(payload_size)))
        return PortStatus.OK, msg

    def send(
        self, partition_id: int, port: str, payload_size: int, now: Duration
    ) -> tuple[PortStatus, Message | None, str, str]:
        """SEND script action: write or enqueue depending on channel kind.

        Returns (status, message, channel label, op token).
        """
        index = self._source_of.get((partition_id, port))
        if index is None:
            return PortStatus.NOT_OWNER, None, "-", "SEND"
        if type(self._states[index]) is SamplingPortState:
            status, msg = self._write(index, partition_id, payload_size, now)
            return status, msg, self._labels[index], "WRITE"
        status, msg = self._enqueue(index, partition_id, payload_size, now)
        return status, msg, self._labels[index], "SEND"

    def receive(
        self, partition_id: int, port: str, now: Duration
    ) -> tuple[PortStatus, Message | None, str, str]:
        """RECV script action on a queuing port: dequeue the head once it
        is visible.  Returns (status, message, channel label, op token)."""
        index = self._dest_of.get((partition_id, port))
        if index is None:
            return PortStatus.NOT_OWNER, None, "-", "RECV"
        label = self._labels[index]
        st = self._states[index]
        if type(st) is not QueuingPortState:
            return PortStatus.BAD_KIND, None, label, "RECV"
        # strict FIFO: a later message never bypasses an in-flight head
        if not st.fifo or st.fifo[0][1] > now:
            return PortStatus.EMPTY, None, label, "RECV"
        msg, _ = st.fifo.pop(0)
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
        st = self._states[index]
        if type(st) is not SamplingPortState:
            return PortStatus.BAD_KIND, None, False, label, "READ"
        visible = [e for e in st.writes if e[1] <= now]
        if not visible:
            return PortStatus.EMPTY, None, False, label, "READ"
        msg = visible[-1][0]  # write order == (written_at, seq) order
        st.writes = [e for e in st.writes if e[0] is msg or e[1] > now]
        refresh = st.channel.refresh_period or 0
        valid = (now - msg.written_at) <= refresh
        return PortStatus.OK, msg, valid, label, "READ"
