"""System description: domain types, XML parsing, validation, schedule geometry.

The XML document plays the role of the integrator-authored system
configuration: partitions with their memory areas, the cyclic schedule
(major frame plus slots), the inter-partition channels, and the
hypervisor's per-message copy cost.  Element and attribute names are
normative and case-sensitive::

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

One table, ``_ELEMENTS``, gives each element its attributes and the count
of each child it may hold, and one reader checks every element against it:

* every attribute shown is required, except that ``Hypervisor``'s two
  default to ``0ns``, so the zero-overhead baseline is exact;
* ``SystemDescription`` holds one ``PartitionTable`` and one ``Schedule``,
  and at most one ``Channels`` and one ``Hypervisor``; a channel holds one
  ``Source`` and at least one ``Destination``; ``PartitionTable``,
  ``Partition``, ``Schedule`` and ``Channels`` hold any number of the
  children shown; the other elements hold none;
* unknown elements and attributes, and text other than whitespace, are
  rejected;
* numbers are ``units`` literals, integers in decimal or 0x-hex;
  ``majorFrame`` is positive, sizes and ``maxNoMessages`` are positive and
  the rest non-negative; a memory area ends within the 64-bit address
  space.

Each fault raises a ConfigError that names its element, and its attribute
when it has one: ``<Slot> duration: negative duration '-4us'``.  A
channel's index, its ``c<index>`` trace label, is its position in
``<Channels>`` across both kinds.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from typing import NamedTuple

from .units import Duration, NegativeDuration, parse_duration, parse_integer

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


class ChannelKind(enum.Enum):
    SAMPLING = "SAMPLING"
    QUEUING = "QUEUING"


class MemoryArea(NamedTuple):
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


class PartitionSpec(NamedTuple):
    id: int
    name: str
    memory_areas: tuple[MemoryArea, ...] = ()


class ScheduleSlot(NamedTuple):
    slot_id: int
    partition_id: int
    start: Duration
    duration: Duration

    @property
    def end(self) -> Duration:
        return self.start + self.duration


class SchedulePlan(NamedTuple):
    """The cyclic schedule, and the only slot arithmetic in partsim."""

    major_frame: Duration
    slots: tuple[ScheduleSlot, ...] = ()

    def slot_at(self, partition_id: int, t: Duration) -> ScheduleSlot | None:
        """The partition's slot whose half-open [start, end) holds ``t``'s
        offset into its major frame; None in the partition's unallocated time."""
        offset = t % self.major_frame
        for slot in self.slots:
            if slot.partition_id == partition_id and slot.start <= offset < slot.end:
                return slot
        return None

    def gap(self, src: ScheduleSlot, dst: ScheduleSlot) -> Duration:
        """Duration from the end of ``src`` to the next start of ``dst``,
        wrapping across the major frame.  Always in [0, frame)."""
        return (dst.start - src.end) % self.major_frame


class PortRef(NamedTuple):
    partition_id: int
    port: str


class ChannelSpec(NamedTuple):
    kind: ChannelKind
    source: PortRef
    destinations: tuple[PortRef, ...]
    max_message_size: int
    refresh_period: Duration | None = None  # SAMPLING only
    capacity: int | None = None  # QUEUING only


class CopyCost(NamedTuple):
    """Per-message transport overhead charged by the hypervisor.

    ``of(size)`` = fixed + per_byte * size, in nanoseconds.
    """

    fixed: Duration = 0
    per_byte: Duration = 0

    def of(self, size: int) -> Duration:
        return self.fixed + self.per_byte * size


class SystemConfig(NamedTuple):
    partitions: tuple[PartitionSpec, ...]
    plan: SchedulePlan
    channels: tuple[ChannelSpec, ...] = ()
    copy_cost: CopyCost = CopyCost()


class Finding(NamedTuple):
    """One validation finding; findings are data, never exceptions."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"ERROR {self.code} {self.location} {self.message}"


# --------------------------------------------------------------------------
# parsing


def _literal(parse, least: int):
    """``parse`` (a ``units`` reader), with a bad literal raised as a SchemaError,
    and a negative duration or a value below ``least`` (0 or 1) as a RangeError."""
    def convert(text: str) -> int:
        try:
            value = parse(text)
        except NegativeDuration as exc:
            raise RangeError(str(exc)) from None
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        if value < least:
            raise RangeError(f"must be {'positive' if least else 'non-negative'}, got {text!r}")
        return value
    return convert


_NATURAL = _literal(lambda text: parse_integer(text, hex_ok=True), 0)
_POSITIVE = _literal(lambda text: parse_integer(text, hex_ok=True), 1)
_DURATION = _literal(parse_duration, 0)
_ENDPOINTS = {"Source": (1, 1), "Destination": (1, None)}
_PORT_REF = ({"partition": (_NATURAL, None), "port": (str, None)}, {})

# Every element: its attributes (name -> converter, and the text an omitted
# attribute reads as, None when it is required) and the children it may
# hold (tag -> least and most count; most is 1, or None for no limit).
_ELEMENTS = {
    "SystemDescription": ({"majorFrame": (_literal(parse_duration, 1), None)},
                          {"PartitionTable": (1, 1), "Schedule": (1, 1),
                           "Channels": (0, 1), "Hypervisor": (0, 1)}),
    "PartitionTable": ({}, {"Partition": (0, None)}),
    "Partition": ({"id": (_NATURAL, None), "name": (str, None)}, {"MemoryArea": (0, None)}),
    "MemoryArea": ({"start": (_NATURAL, None), "size": (_POSITIVE, None)}, {}),
    "Schedule": ({}, {"Slot": (0, None)}),
    "Slot": ({"id": (_NATURAL, None), "partition": (_NATURAL, None),
              "start": (_DURATION, None), "duration": (_DURATION, None)}, {}),
    "Channels": ({}, {"SamplingChannel": (0, None), "QueuingChannel": (0, None)}),
    "SamplingChannel": ({"maxMessageSize": (_POSITIVE, None),
                         "refreshPeriod": (_DURATION, None)}, _ENDPOINTS),
    "QueuingChannel": ({"maxMessageSize": (_POSITIVE, None),
                        "maxNoMessages": (_POSITIVE, None)}, _ENDPOINTS),
    "Source": _PORT_REF,
    "Destination": _PORT_REF,
    "Hypervisor": ({"copyCostFixed": (_DURATION, "0ns"),
                    "copyCostPerByte": (_DURATION, "0ns")}, {}),
}


def _read(elem: ET.Element) -> tuple[str, dict, list]:
    """Check ``elem`` against its ``_ELEMENTS`` entry.  Returns its tag, its
    converted attributes and its children, each read the same way, in
    document order; raises a ConfigError that names the element's tag."""
    tag = elem.tag
    attributes, allowed = _ELEMENTS[tag]
    for name in elem.attrib:
        if name not in attributes:
            raise SchemaError(f"unknown attribute {name!r} on <{tag}>")
    values = {}
    for name, (convert, default) in attributes.items():
        text = elem.get(name, default)
        if text is None:
            raise SchemaError(f"<{tag}> is missing attribute {name!r}")
        try:
            values[name] = convert(text)
        except ConfigError as exc:
            raise type(exc)(f"<{tag}> {name}: {exc}") from None
    counts = dict.fromkeys(allowed, 0)
    children = []
    text = elem.text  # the text before each child, then after the last one
    for child in elem:
        if text and not text.isspace():
            break
        if child.tag not in counts:
            raise SchemaError(f"unknown element <{child.tag}> in <{tag}>")
        counts[child.tag] += 1
        if counts[child.tag] > 1 and allowed[child.tag][1] == 1:
            raise SchemaError(f"<{tag}> has more than one <{child.tag}>")
        children.append(_read(child))
        text = child.tail
    if text and not text.isspace():
        raise SchemaError(f"unexpected text {text.strip()!r} in <{tag}>")
    for name, (least, _) in allowed.items():
        if counts[name] < least:
            raise SchemaError(f"<{tag}> is missing <{name}>")
    return tag, values, children


def parse_config(text: str) -> SystemConfig:
    """Parse and normalize a system description document.

    Raises XmlSyntaxError for malformed XML, SchemaError for unknown or
    missing elements/attributes and bad literals, RangeError for negative
    durations, non-positive sizes and a memory area past the address space.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(f"malformed XML: {exc}") from None
    if root.tag != "SystemDescription":
        raise SchemaError(f"root element must be <SystemDescription>, got <{root.tag}>")
    _, system, sections = _read(root)
    content = {tag: (attrs, children) for tag, attrs, children in sections}

    partitions = []
    for _, p, children in content["PartitionTable"][1]:
        areas = tuple(MemoryArea(a["start"], a["size"]) for _, a, _ in children)
        for area in areas:
            if area.end > ADDRESS_LIMIT:
                raise RangeError(f"<MemoryArea> [0x{area.start:x}, +0x{area.size:x}) overflows "
                                 f"the {ADDRESS_BITS}-bit address space")
        partitions.append(PartitionSpec(p["id"], p["name"], areas))
    slots = sorted((ScheduleSlot(s["id"], s["partition"], s["start"], s["duration"])
                    for _, s, _ in content["Schedule"][1]), key=lambda s: (s.start, s.slot_id))
    channels = []
    for tag, c, children in content.get("Channels", ({}, ()))[1]:
        ends = [(end, PortRef(e["partition"], e["port"])) for end, e, _ in children]
        channels.append(ChannelSpec(
            kind=ChannelKind.SAMPLING if tag == "SamplingChannel" else ChannelKind.QUEUING,
            source=next(ref for end, ref in ends if end == "Source"),
            destinations=tuple(ref for end, ref in ends if end == "Destination"),
            max_message_size=c["maxMessageSize"],
            refresh_period=c.get("refreshPeriod"), capacity=c.get("maxNoMessages"),
        ))
    # an omitted <Hypervisor> reads as an empty one
    hypervisor = content.get("Hypervisor") or _read(ET.Element("Hypervisor"))[1:]
    return SystemConfig(
        partitions=tuple(partitions),
        plan=SchedulePlan(major_frame=system["majorFrame"], slots=tuple(slots)),
        channels=tuple(channels),
        copy_cost=CopyCost(hypervisor[0]["copyCostFixed"], hypervisor[0]["copyCostPerByte"]),
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
