"""System description parsing, validation, and schedule geometry."""

import random
import re
import textwrap
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from partsim import config
from partsim.config import (
    ChannelKind,
    ConfigError,
    SchedulePlan,
    ScheduleSlot,
    XmlSyntaxError,
    parse_config,
    validate,
)
from partsim.scheduler import SimState
from partsim.trace import PortOpRecord
from partsim.units import parse_duration
from partsim.workload import parse_script

from conftest import COOKBOOK_XML, REPO_ROOT

MINIMAL = """
<SystemDescription majorFrame="1ms">
  <PartitionTable>
    <Partition id="0" name="solo"/>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
  </Schedule>
</SystemDescription>
"""


def test_minimal_document():
    cfg = parse_config(MINIMAL)
    assert cfg.plan.major_frame == 1_000_000
    assert len(cfg.partitions) == 1
    assert cfg.plan.slots[0].start == 0
    assert cfg.copy_cost.fixed == 0 and cfg.copy_cost.per_byte == 0


def test_unit_conversion():
    cfg = parse_config(MINIMAL.replace('duration="400us"', 'duration="400us"'))
    assert cfg.plan.slots[0].duration == 400_000
    assert parse_duration("1ms") == 1_000_000
    assert parse_duration("3s") == 3_000_000_000
    assert parse_duration("7ns") == 7


def test_addresses_accept_decimal_and_hex():
    cfg = parse_config(MINIMAL.replace(
        '<Partition id="0" name="solo"/>',
        '<Partition id="0" name="solo"><MemoryArea start="4096" size="0x1000"/></Partition>',
    ))
    area = cfg.partitions[0].memory_areas[0]
    assert area.start == 4096 and area.size == 4096


def test_malformed_xml():
    with pytest.raises(XmlSyntaxError):
        parse_config("<SystemDescription majorFrame='1ms'>")


@pytest.mark.parametrize(
    "mutation",
    [
        ('majorFrame="1ms"', 'majorFrame="1ms" bogus="1"'),  # unknown attribute
        ("<Schedule>", "<Schedule><Extra/>"),  # unknown element
        ('duration="400us"', 'duration="400"'),  # missing unit suffix
        ('duration="400us"', 'duration="400min"'),  # unknown suffix
        ('<Slot id="0" partition="0" start="0us" duration="400us"/>',
         '<Slot id="0" partition="0" start="0us"/>'),  # missing attribute
    ],
)
def test_schema_errors(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize("old, new, message", [
    ('duration="400us"/>', 'duration="-4us"/>', "<Slot> duration: negative duration '-4us'"),
    ('<Slot id="0"', '<Slot id="-0x1"', "<Slot> id: must be non-negative, got '-0x1'"),
    ('id="0" name="solo"', 'id="zero" name="solo"', "<Partition> id: bad integer 'zero'"),
    # numbers are units literals: no doubled sign, no "_", no non-ASCII digit
    ('id="0" name="solo"', 'id="--1" name="solo"', "<Partition> id: bad integer '--1'"),
    ('id="0" name="solo"', 'id="1_0" name="solo"', "<Partition> id: bad integer '1_0'"),
    ('duration="400us"/>', 'duration="٣us"/>',
     "<Slot> duration: bad duration '٣us' (expected integer + ns/us/ms/s)"),
    ("</Schedule>", "</Schedule><Schedule/>",
     "<SystemDescription> has more than one <Schedule>"),
    # a section's attributes are checked like any other element's
    ("<PartitionTable>", '<PartitionTable id="3">', "unknown attribute 'id' on <PartitionTable>"),
    ("<Schedule>", '<Schedule id="3">', "unknown attribute 'id' on <Schedule>"),
    ('<Slot id="0" partition="0" start="0us" duration="400us"/>',
     '<Slot id="0" partition="0" start="0us" duration="400us"/> idle',
     "unexpected text 'idle' in <Schedule>"),
])
def test_errors_name_their_element(old, new, message):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace(old, new))
    assert str(info.value) == message


ORDERED_CHANNELS = """
<SystemDescription majorFrame="1ms">
  <PartitionTable>
    <Partition id="0" name="pub"/>
    <Partition id="1" name="sub"/>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
    <Slot id="1" partition="1" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <QueuingChannel maxMessageSize="8" maxNoMessages="4">
      <Source partition="0" port="a"/><Destination partition="1" port="a"/>
    </QueuingChannel>
    <SamplingChannel maxMessageSize="8" refreshPeriod="2ms">
      <Source partition="0" port="b"/><Destination partition="1" port="b"/>
    </SamplingChannel>
    <QueuingChannel maxMessageSize="8" maxNoMessages="4">
      <Destination partition="1" port="c"/><Source partition="0" port="c"/>
    </QueuingChannel>
  </Channels>
</SystemDescription>
"""


def test_channels_keep_document_order_across_both_kinds():
    """A channel's index, its ``c<index>`` trace label, is its position in
    <Channels>, whichever kind it is."""
    cfg = parse_config(ORDERED_CHANNELS)
    assert [(c.kind, c.source.port) for c in cfg.channels] == [
        (ChannelKind.QUEUING, "a"), (ChannelKind.SAMPLING, "b"), (ChannelKind.QUEUING, "c")]
    scripts = {0: parse_script(["send a 8", "send b 8", "send c 8"], 0)}
    sim = SimState(cfg, scripts=scripts).boot()
    sim.run_until(400_000)
    ops = [(r.op, r.channel, r.result) for r in sim.trace if type(r) is PortOpRecord]
    assert ops == [("SEND", "c0", "OK"), ("WRITE", "c1", "OK"), ("SEND", "c2", "OK")]


# -- the documented grammar and the parser's table ---------------------------

_COUNTS = {"one": (1, 1), "at most one": (0, 1), "at least one": (1, None),
           "any number of": (0, None)}


def test_readme_element_table_matches_the_parser_table():
    """README "System description XML" gives every element the attributes
    (with the default of an optional one) and the child counts that
    ``config._ELEMENTS`` gives it."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| element | attributes | children |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[1:]:
        element, attributes, children = (cell.strip() for cell in row.strip("|").split("|"))
        counts = {}
        for item in children.split(", ") if children != "none" else ():
            phrase, tag = re.fullmatch(r"(.+) `(\w+)`", item).groups()
            counts[tag] = _COUNTS[phrase]
        documented[element.strip("`")] = (
            dict(re.findall(r'`(\w+)(?:="([^"]*)")?`', attributes)), counts)
    assert documented == {
        tag: ({name: default or "" for name, (_, default) in attributes.items()}, allowed)
        for tag, (attributes, allowed) in config._ELEMENTS.items()}


def _documented_examples():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    docstring = config.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    return {"README": readme.split("## System description XML\n\n```xml\n", 1)[1]
            .split("```", 1)[0], "config docstring": textwrap.dedent(docstring)}


@pytest.mark.parametrize("where", ["README", "config docstring"])
def test_documented_example_parses_and_shows_every_attribute(where):
    """The example document parses, and the (element, attribute) pairs it
    shows are those of ``config._ELEMENTS``: every element, every
    attribute."""
    text = _documented_examples()[where]
    parse_config(text)
    elements = list(ET.fromstring(text).iter())
    assert {e.tag for e in elements} == set(config._ELEMENTS)
    assert {(e.tag, name) for e in elements for name in e.attrib} == {
        (tag, name) for tag, (attributes, _) in config._ELEMENTS.items() for name in attributes}


def test_range_errors():
    for old, new, message in (
        ('duration="400us"', 'duration="-400us"', "<Slot> duration: negative duration '-400us'"),
        ('<Partition id="0" name="solo"/>',
         '<Partition id="0" name="solo"><MemoryArea start="0x0" size="0"/></Partition>',
         "<MemoryArea> size: must be positive, got '0'"),
        ('majorFrame="1ms"', 'majorFrame="0ns"',
         "<SystemDescription> majorFrame: must be positive, got '0ns'"),
        ('majorFrame="1ms"', 'majorFrame="-1ms"',
         "<SystemDescription> majorFrame: negative duration '-1ms'"),
        # start + size overflows the address space
        ('<Partition id="0" name="solo"/>',
         '<Partition id="0" name="solo">'
         '<MemoryArea start="0xffffffffffffffff" size="0x2"/></Partition>',
         "<MemoryArea> [0xffffffffffffffff, +0x2) overflows the 64-bit address space"),
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace(old, new))
        assert str(info.value) == message


def test_validate_cookbook_clean(cookbook):
    assert validate(cookbook) == []


def test_validate_slot_overlap():
    cfg = parse_config(MINIMAL.replace(
        '<Slot id="0" partition="0" start="0us" duration="400us"/>',
        '<Slot id="0" partition="0" start="0us" duration="500us"/>'
        '<Slot id="1" partition="0" start="400us" duration="500us"/>',
    ))
    codes = [f.code for f in validate(cfg)]
    assert codes == ["SLOT_OVERLAP"]


def test_adjacent_slots_do_not_overlap():
    cfg = parse_config(MINIMAL.replace(
        '<Slot id="0" partition="0" start="0us" duration="400us"/>',
        '<Slot id="0" partition="0" start="0us" duration="400us"/>'
        '<Slot id="1" partition="0" start="400us" duration="400us"/>',
    ))
    assert validate(cfg) == []  # half-open intervals: end == next start is fine


def test_validate_dangling_port(cookbook):
    text = COOKBOOK_XML.replace('<Destination partition="1" port="in"/>',
                                '<Destination partition="7" port="in"/>')
    codes = [f.code for f in validate(parse_config(text))]
    assert "DANGLING_PORT" in codes


def test_validate_memory_overlap():
    text = MINIMAL.replace(
        '<Partition id="0" name="solo"/>',
        '<Partition id="0" name="a"><MemoryArea start="0x1000" size="0x1000"/></Partition>'
        '<Partition id="1" name="b"><MemoryArea start="0x1800" size="0x1000"/></Partition>',
    )
    codes = [f.code for f in validate(parse_config(text))]
    assert "MEMORY_OVERLAP" in codes


def test_validate_duplicate_partition():
    text = MINIMAL.replace(
        '<Partition id="0" name="solo"/>',
        '<Partition id="0" name="a"/><Partition id="0" name="b"/>',
    )
    assert "DUPLICATE_PARTITION" in [f.code for f in validate(parse_config(text))]


def test_validate_queuing_fanout():
    text = COOKBOOK_XML.replace(
        '<Destination partition="1" port="in"/>',
        '<Destination partition="1" port="in"/><Destination partition="0" port="in2"/>',
    )
    codes = [f.code for f in validate(parse_config(text))]
    assert "QUEUING_FANOUT" in codes and "SELF_LOOP" not in codes


def test_validate_self_loop():
    text = COOKBOOK_XML.replace('<Destination partition="1" port="in"/>',
                                '<Destination partition="0" port="out"/>')
    assert "SELF_LOOP" in [f.code for f in validate(parse_config(text))]


def test_validate_slot_beyond_frame():
    cfg = parse_config(MINIMAL.replace('start="0us" duration="400us"',
                                       'start="800us" duration="400us"'))
    assert "SLOT_RANGE" in [f.code for f in validate(cfg)]


def test_validate_findings_are_pure(cookbook):
    before = cookbook
    validate(cookbook)
    assert cookbook == before


# -- SchedulePlan: slot_at and gap -----------------------------------------


def test_transition_gap_cookbook(cookbook):
    plan = cookbook.plan
    pub, sub = plan.slots
    assert plan.gap(pub, sub) == 100_000  # 500us - 400us
    assert plan.gap(sub, pub) == 100_000  # wraps: 1000 - 900 + 0


def _random_plan(rng):
    frame = rng.choice([1_000_000, 2_500_000, 10_000_000])
    n_slots = rng.randint(2, 6)
    cuts = sorted(rng.sample(range(1, frame), 2 * n_slots))
    slots = tuple(
        ScheduleSlot(slot_id=i, partition_id=i, start=cuts[2 * i],
                     duration=cuts[2 * i + 1] - cuts[2 * i])
        for i in range(n_slots)
    )
    return SchedulePlan(major_frame=frame, slots=slots)


def _brute_force_gap(plan, from_id, to_id):
    # independent oracle: scan two consecutive frames for the next start
    # at or after the end of the source slot
    by_id = {s.slot_id: s for s in plan.slots}
    end = by_id[from_id].start + by_id[from_id].duration
    candidates = [by_id[to_id].start + k * plan.major_frame for k in (0, 1, 2)]
    return min(t for t in candidates if t >= end) - end


def test_transition_gap_matches_brute_force():
    rng = random.Random(20260809)
    for _ in range(300):
        plan = _random_plan(rng)
        a, b = rng.sample(plan.slots, 2)
        gap = plan.gap(a, b)
        assert gap == _brute_force_gap(plan, a.slot_id, b.slot_id)
        assert 0 <= gap < plan.major_frame


@st.composite
def _plans(draw):
    """A valid plan: disjoint slots of partitions 0-2 (some may have none)
    within a frame, in start order."""
    frame = draw(st.integers(min_value=2, max_value=10**7))
    cuts = sorted(draw(st.sets(st.integers(0, frame), min_size=2, max_size=12)))
    slots = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        slots.append(ScheduleSlot(len(slots), draw(st.integers(0, 2)), start, end - start))
    return SchedulePlan(major_frame=frame, slots=tuple(slots))


def _brute_force_slot(plan, partition_id, t):
    # independent oracle: no modulo, every frame up to t's
    for slot in plan.slots:
        for k in range(t // plan.major_frame + 1):
            if slot.partition_id == partition_id and (
                    slot.start + k * plan.major_frame <= t < slot.end + k * plan.major_frame):
                return slot
    return None


@given(_plans(), st.integers(0, 3), st.integers(0, 40), st.integers(0, 10**7))
def test_slot_at_matches_brute_force(plan, partition_id, frames, offset):
    frame = plan.major_frame
    t = frames * frame + offset % frame
    assert plan.slot_at(partition_id, t) == _brute_force_slot(plan, partition_id, t)
    for slot in plan.slots:
        # a slot holds its start and not its end, in every frame; a slot
        # that fills the frame ends where its next frame's copy starts
        assert plan.slot_at(slot.partition_id, slot.start + frames * frame) == slot
        at_end = plan.slot_at(slot.partition_id, slot.end + frames * frame)
        assert at_end != slot or slot.duration == frame
    # partition 3 has no slot: all of its time is unallocated
    assert plan.slot_at(3, t) is None


def test_valid_plan_durations_fit_frame():
    rng = random.Random(99)
    for _ in range(100):
        plan = _random_plan(rng)
        assert sum(s.duration for s in plan.slots) <= plan.major_frame


def test_empty_report_implies_disjoint_slots_within_frame():
    from partsim.config import PartitionSpec, SystemConfig

    rng = random.Random(5)
    accepted = 0
    for _ in range(300):
        frame = 1_000_000
        slots = tuple(
            ScheduleSlot(slot_id=i, partition_id=0,
                         start=rng.randrange(0, frame),
                         duration=rng.randrange(1, frame // 2))
            for i in range(rng.randint(1, 5))
        )
        cfg = SystemConfig(partitions=(PartitionSpec(id=0, name="p"),),
                           plan=SchedulePlan(major_frame=frame, slots=slots))
        if validate(cfg):
            continue
        accepted += 1
        assert sum(s.duration for s in slots) <= frame
        intervals = sorted((s.start, s.end) for s in slots)
        for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert e1 <= s2
    assert accepted > 10  # the generator does produce clean plans


@given(st.integers(min_value=0, max_value=10**12))
def test_duration_literal_round_trip(ns):
    assert parse_duration(f"{ns}ns") == ns
    for suffix, factor in (("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)):
        if ns % factor == 0:
            assert parse_duration(f"{ns // factor}{suffix}") == ns
