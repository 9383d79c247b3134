"""System description: domain types, XML parsing, validation, schedule geometry.

The XML document plays the role of the integrator-authored system
configuration: partitions with their memory areas, the cyclic schedule
(major frame plus slots), the inter-partition channels, and the
hypervisor's per-message copy cost.  Parsing is strict: unknown elements
or attributes are rejected, and all durations are normalized to integer
nanoseconds.

Element and attribute names are normative and case-sensitive::

    <SystemDescription majorFrame="1000us">
      <PartitionTable>
        <Partition id="0" name="pub">
          <MemoryArea start="0x100000" size="0x10000"/>
        </Partition>
      </PartitionTable>
      <Schedule>
        <Slot id="0" partition="0" start="0us" duration="400us"/>
      </Schedule>
      <Channels>
        <SamplingChannel maxMessageSize="64" refreshPeriod="2ms">
          <Source partition="0" port="out"/>
          <Destination partition="1" port="in"/>
        </SamplingChannel>
        <QueuingChannel maxMessageSize="1024" maxNoMessages="16">
          <Source partition="0" port="q_out"/>
          <Destination partition="1" port="q_in"/>
        </QueuingChannel>
      </Channels>
      <Hypervisor copyCostFixed="0ns" copyCostPerByte="0ns"/>
    </SystemDescription>

Addresses and byte sizes accept decimal or 0x-hex.  ``Channels`` and
``Hypervisor`` are optional; the copy cost defaults to zero so the
zero-overhead baseline is exact.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .units import Duration, NegativeDuration, UnitError, parse_duration

ADDRESS_BITS = 64
ADDRESS_LIMIT = 1 << ADDRESS_BITS


class ConfigError(Exception):
    """Base class for configuration document errors."""


class XmlSyntaxError(ConfigError):
    """The document is not well-formed XML."""


class SchemaError(ConfigError):
    """Unknown/missing element or attribute, or a malformed value."""


class RangeError(ConfigError):
    """A value is structurally valid but out of range (negative duration,
    zero size, address overflow)."""


class UnknownSlot(ConfigError):
    """A slot id does not exist in the schedule plan."""


class ChannelKind(enum.Enum):
    SAMPLING = "SAMPLING"
    QUEUING = "QUEUING"


@dataclass(frozen=True)
class MemoryArea:
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass(frozen=True)
class PartitionSpec:
    id: int
    name: str
    memory_areas: tuple[MemoryArea, ...] = ()


@dataclass(frozen=True)
class ScheduleSlot:
    slot_id: int
    partition_id: int
    start: Duration
    duration: Duration

    @property
    def end(self) -> Duration:
        return self.start + self.duration


@dataclass(frozen=True)
class SchedulePlan:
    major_frame: Duration
    slots: tuple[ScheduleSlot, ...] = ()


@dataclass(frozen=True)
class PortRef:
    partition_id: int
    port: str


@dataclass(frozen=True)
class ChannelSpec:
    kind: ChannelKind
    source: PortRef
    destinations: tuple[PortRef, ...]
    max_message_size: int
    refresh_period: Duration | None = None  # SAMPLING only
    capacity: int | None = None  # QUEUING only


@dataclass(frozen=True)
class CopyCost:
    """Per-message transport overhead charged by the hypervisor.

    ``of(size)`` = fixed + per_byte * size, in nanoseconds.
    """

    fixed: Duration = 0
    per_byte: Duration = 0

    def of(self, size: int) -> Duration:
        return self.fixed + self.per_byte * size


@dataclass(frozen=True)
class SystemConfig:
    partitions: tuple[PartitionSpec, ...]
    plan: SchedulePlan
    channels: tuple[ChannelSpec, ...] = ()
    copy_cost: CopyCost = CopyCost()


@dataclass(frozen=True)
class Finding:
    """One validation finding; findings are data, never exceptions."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"ERROR {self.code} {self.location} {self.message}"


# --------------------------------------------------------------------------
# parsing


def _reject_text(elem: ET.Element) -> None:
    for part in (elem.text, elem.tail):
        if part is not None and part.strip():
            raise SchemaError(f"unexpected text {part.strip()!r} in <{elem.tag}>")


def _attrs(elem: ET.Element, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    known = set(required) | set(optional)
    for name in elem.attrib:
        if name not in known:
            raise SchemaError(f"unknown attribute {name!r} on <{elem.tag}>")
    out = {}
    for name in required:
        if name not in elem.attrib:
            raise SchemaError(f"<{elem.tag}> is missing attribute {name!r}")
        out[name] = elem.attrib[name]
    for name in optional:
        if name in elem.attrib:
            out[name] = elem.attrib[name]
    return out


def _parse_int(text: str, where: str) -> int:
    t = text.strip()
    try:
        negative = t.startswith("-")
        body = t[1:] if negative else t
        value = int(body, 16) if body.lower().startswith("0x") else int(body, 10)
        return -value if negative else value
    except ValueError:
        raise SchemaError(f"bad integer {text!r} for {where}") from None


def _parse_dur(text: str, where: str) -> Duration:
    try:
        return parse_duration(text)
    except NegativeDuration:
        raise RangeError(f"negative duration {text!r} for {where}") from None
    except UnitError as exc:
        raise SchemaError(f"{exc} for {where}") from None


def _parse_memory_area(elem: ET.Element) -> MemoryArea:
    _reject_text(elem)
    if len(elem) != 0:
        raise SchemaError("<MemoryArea> has no child elements")
    a = _attrs(elem, ("start", "size"))
    start = _parse_int(a["start"], "MemoryArea start")
    size = _parse_int(a["size"], "MemoryArea size")
    if start < 0:
        raise RangeError(f"negative address {a['start']!r}")
    if size <= 0:
        raise RangeError(f"memory area size must be positive, got {a['size']!r}")
    if start + size > ADDRESS_LIMIT:
        raise RangeError(f"memory area [{a['start']}, +{a['size']}) overflows the "
                         f"{ADDRESS_BITS}-bit address space")
    return MemoryArea(start=start, size=size)


def _parse_partition(elem: ET.Element) -> PartitionSpec:
    _reject_text(elem)
    a = _attrs(elem, ("id", "name"))
    pid = _parse_int(a["id"], "Partition id")
    if pid < 0:
        raise RangeError(f"partition id must be non-negative, got {pid}")
    areas = []
    for child in elem:
        if child.tag != "MemoryArea":
            raise SchemaError(f"unknown element <{child.tag}> in <Partition>")
        areas.append(_parse_memory_area(child))
    return PartitionSpec(id=pid, name=a["name"], memory_areas=tuple(areas))


def _parse_slot(elem: ET.Element) -> ScheduleSlot:
    _reject_text(elem)
    if len(elem) != 0:
        raise SchemaError("<Slot> has no child elements")
    a = _attrs(elem, ("id", "partition", "start", "duration"))
    slot_id = _parse_int(a["id"], "Slot id")
    partition = _parse_int(a["partition"], "Slot partition")
    if slot_id < 0 or partition < 0:
        raise RangeError("slot id and partition must be non-negative")
    return ScheduleSlot(
        slot_id=slot_id,
        partition_id=partition,
        start=_parse_dur(a["start"], "Slot start"),
        duration=_parse_dur(a["duration"], "Slot duration"),
    )


def _parse_port_ref(elem: ET.Element, tag: str) -> PortRef:
    _reject_text(elem)
    if len(elem) != 0:
        raise SchemaError(f"<{tag}> has no child elements")
    a = _attrs(elem, ("partition", "port"))
    pid = _parse_int(a["partition"], f"{tag} partition")
    if pid < 0:
        raise RangeError(f"{tag} partition must be non-negative")
    return PortRef(partition_id=pid, port=a["port"])


def _parse_channel(elem: ET.Element) -> ChannelSpec:
    _reject_text(elem)
    if elem.tag == "SamplingChannel":
        kind = ChannelKind.SAMPLING
        a = _attrs(elem, ("maxMessageSize", "refreshPeriod"))
        refresh: Duration | None = _parse_dur(a["refreshPeriod"], "refreshPeriod")
        capacity: int | None = None
    else:
        kind = ChannelKind.QUEUING
        a = _attrs(elem, ("maxMessageSize", "maxNoMessages"))
        refresh = None
        capacity = _parse_int(a["maxNoMessages"], "maxNoMessages")
        if capacity <= 0:
            raise RangeError(f"maxNoMessages must be positive, got {capacity}")
    max_size = _parse_int(a["maxMessageSize"], "maxMessageSize")
    if max_size <= 0:
        raise RangeError(f"maxMessageSize must be positive, got {max_size}")

    source: PortRef | None = None
    dests: list[PortRef] = []
    for child in elem:
        if child.tag == "Source":
            if source is not None:
                raise SchemaError(f"<{elem.tag}> has more than one <Source>")
            source = _parse_port_ref(child, "Source")
        elif child.tag == "Destination":
            dests.append(_parse_port_ref(child, "Destination"))
        else:
            raise SchemaError(f"unknown element <{child.tag}> in <{elem.tag}>")
    if source is None:
        raise SchemaError(f"<{elem.tag}> is missing <Source>")
    if not dests:
        raise SchemaError(f"<{elem.tag}> needs at least one <Destination>")
    return ChannelSpec(
        kind=kind,
        source=source,
        destinations=tuple(dests),
        max_message_size=max_size,
        refresh_period=refresh,
        capacity=capacity,
    )


def parse_config(text: str) -> SystemConfig:
    """Parse and normalize a system description document.

    Raises XmlSyntaxError for malformed XML, SchemaError for unknown or
    missing elements/attributes and bad literals, RangeError for negative
    durations and non-positive sizes.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"malformed XML: {exc}") from None
    if root.tag != "SystemDescription":
        raise SchemaError(f"root element must be <SystemDescription>, got <{root.tag}>")
    _reject_text(root)
    a = _attrs(root, ("majorFrame",))
    major_frame = _parse_dur(a["majorFrame"], "majorFrame")
    if major_frame <= 0:
        raise RangeError("majorFrame must be positive")

    seen: set[str] = set()
    partitions: list[PartitionSpec] = []
    slots: list[ScheduleSlot] = []
    channels: list[ChannelSpec] = []
    copy_cost = CopyCost()
    have_partition_table = False
    have_schedule = False

    for section in root:
        if section.tag in seen:
            raise SchemaError(f"duplicate <{section.tag}> section")
        seen.add(section.tag)
        _reject_text(section)
        if section.tag == "PartitionTable":
            have_partition_table = True
            for child in section:
                if child.tag != "Partition":
                    raise SchemaError(f"unknown element <{child.tag}> in <PartitionTable>")
                partitions.append(_parse_partition(child))
        elif section.tag == "Schedule":
            have_schedule = True
            for child in section:
                if child.tag != "Slot":
                    raise SchemaError(f"unknown element <{child.tag}> in <Schedule>")
                slots.append(_parse_slot(child))
        elif section.tag == "Channels":
            for child in section:
                if child.tag not in ("SamplingChannel", "QueuingChannel"):
                    raise SchemaError(f"unknown element <{child.tag}> in <Channels>")
                channels.append(_parse_channel(child))
        elif section.tag == "Hypervisor":
            if len(section) != 0:
                raise SchemaError("<Hypervisor> has no child elements")
            ha = _attrs(section, (), ("copyCostFixed", "copyCostPerByte"))
            copy_cost = CopyCost(
                fixed=_parse_dur(ha.get("copyCostFixed", "0ns"), "copyCostFixed"),
                per_byte=_parse_dur(ha.get("copyCostPerByte", "0ns"), "copyCostPerByte"),
            )
        else:
            raise SchemaError(f"unknown element <{section.tag}> in <SystemDescription>")

    if not have_partition_table:
        raise SchemaError("missing <PartitionTable>")
    if not have_schedule:
        raise SchemaError("missing <Schedule>")

    slots.sort(key=lambda s: (s.start, s.slot_id))
    return SystemConfig(
        partitions=tuple(partitions),
        plan=SchedulePlan(major_frame=major_frame, slots=tuple(slots)),
        channels=tuple(channels),
        copy_cost=copy_cost,
    )


# --------------------------------------------------------------------------
# validation


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    # half-open intervals [start, end)
    return a_start < b_end and b_start < a_end


def validate(cfg: SystemConfig) -> list[Finding]:
    """Check all cross-element invariants; returns an empty list iff valid.

    Validation is pure: it never mutates the config and never raises for
    bad content, it reports findings.
    """
    findings: list[Finding] = []

    def err(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    if not cfg.partitions:
        err("NO_PARTITIONS", "PartitionTable", "at least one partition is required")

    ids = [p.id for p in cfg.partitions]
    known = set(ids)
    for pid in sorted({i for i in ids if ids.count(i) > 1}):
        err("DUPLICATE_PARTITION", f"Partition {pid}", "partition id is not unique")

    # memory areas of distinct partitions must be pairwise disjoint
    for i, pa in enumerate(cfg.partitions):
        for pb in cfg.partitions[i + 1:]:
            if pa.id == pb.id:
                continue
            for ma in pa.memory_areas:
                for mb in pb.memory_areas:
                    if _overlap(ma.start, ma.end, mb.start, mb.end):
                        err(
                            "MEMORY_OVERLAP",
                            f"Partition {pa.id}/Partition {pb.id}",
                            f"[0x{ma.start:x},0x{ma.end:x}) overlaps [0x{mb.start:x},0x{mb.end:x})",
                        )

    frame = cfg.plan.major_frame
    for s in cfg.plan.slots:
        loc = f"Slot {s.slot_id}"
        if s.partition_id not in known:
            err("UNKNOWN_PARTITION", loc, f"references missing partition {s.partition_id}")
        if s.duration <= 0:
            err("SLOT_EMPTY", loc, "slot duration must be positive")
        elif s.start + s.duration > frame:
            err("SLOT_RANGE", loc, f"slot [{s.start},{s.end}) exceeds the major frame {frame}")
    slot_ids = [s.slot_id for s in cfg.plan.slots]
    for sid in sorted({i for i in slot_ids if slot_ids.count(i) > 1}):
        err("DUPLICATE_SLOT", f"Slot {sid}", "slot id is not unique")
    for i, sa in enumerate(cfg.plan.slots):
        for sb in cfg.plan.slots[i + 1:]:
            if _overlap(sa.start, sa.end, sb.start, sb.end):
                err(
                    "SLOT_OVERLAP",
                    f"Slot {sa.slot_id}/Slot {sb.slot_id}",
                    f"[{sa.start},{sa.end}) overlaps [{sb.start},{sb.end})",
                )

    sources_seen: dict[tuple[int, str], int] = {}
    dests_seen: dict[tuple[int, str], int] = {}
    for idx, ch in enumerate(cfg.channels):
        loc = f"Channel {idx}"
        endpoints = (ch.source,) + ch.destinations
        for ref in endpoints:
            if ref.partition_id not in known:
                err("DANGLING_PORT", loc,
                    f"port {ref.port!r} references missing partition {ref.partition_id}")
        for d in ch.destinations:
            if d == ch.source:
                err("SELF_LOOP", loc, f"source {ch.source.port!r} is also a destination")
        if ch.kind is ChannelKind.QUEUING and len(ch.destinations) != 1:
            err("QUEUING_FANOUT", loc,
                f"queuing channels have exactly one destination, got {len(ch.destinations)}")
        if ch.kind is ChannelKind.SAMPLING and ch.refresh_period is None:
            err("CHANNEL_PARAM", loc, "sampling channel needs a refresh period")
        if ch.kind is ChannelKind.QUEUING and (ch.capacity is None or ch.capacity <= 0):
            err("CHANNEL_PARAM", loc, "queuing channel needs a positive capacity")
        if ch.max_message_size <= 0:
            err("CHANNEL_PARAM", loc, "max message size must be positive")

        key = (ch.source.partition_id, ch.source.port)
        if key in sources_seen:
            err("DUPLICATE_PORT", loc,
                f"source port {key} already bound by Channel {sources_seen[key]}")
        else:
            sources_seen[key] = idx
        for d in ch.destinations:
            key = (d.partition_id, d.port)
            if key in dests_seen:
                err("DUPLICATE_PORT", loc,
                    f"destination port {key} already bound by Channel {dests_seen[key]}")
            else:
                dests_seen[key] = idx

    return findings


def transition_gap(plan: SchedulePlan, from_slot: int, to_slot: int) -> Duration:
    """Duration from the end of ``from_slot`` to the next start of
    ``to_slot``, wrapping across the major frame.  Always in [0, frame).
    """
    if from_slot == to_slot:
        raise ValueError("from_slot and to_slot must differ")
    by_id = {s.slot_id: s for s in plan.slots}
    try:
        src, dst = by_id[from_slot], by_id[to_slot]
    except KeyError as exc:
        raise UnknownSlot(f"no slot with id {exc.args[0]}") from None
    return (dst.start - src.end) % plan.major_frame
