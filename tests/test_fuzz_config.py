"""System description documents under fuzzing.

Documents written from the documented grammar, with free attribute order,
quoting and whitespace, decimal or 0x integers, optional ``Channels`` and
``Hypervisor`` and channels of both kinds interleaved: each parses to the
SystemConfig that its values describe.  One mutated token (a dropped
required attribute, a repeated singleton child, an unknown attribute or
element, a junk value or stray text) makes ``parse_config`` raise a
ConfigError that names the element it is in, and makes ``partsim
validate`` print one ERROR line and exit 1.  A number written in a form
that no literal takes is named by its element and attribute.

The grammar is written out here, not read from the parser's table, so
that a fault in the table cannot hide in its own test."""

import contextlib
import io
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from partsim.cli import main
from partsim.config import (
    ChannelKind, ChannelSpec, ConfigError, CopyCost, MemoryArea, PartitionSpec, PortRef,
    SchedulePlan, ScheduleSlot, SystemConfig, parse_config,
)

from conftest import misspell_number


class Node(NamedTuple):
    """One element before rendering.  ``children`` holds Nodes and, after a
    stray-text mutation, a str; ``optional`` names the attributes that may
    be left out."""

    tag: str
    attrs: tuple[tuple[str, str], ...]
    children: tuple = ()
    optional: frozenset = frozenset()


# attributes whose every value is valid, so no junk can break them
TEXT_ATTRS = {"name", "port"}
# elements that their parent holds at most once
SINGLETONS = {"PartitionTable", "Schedule", "Channels", "Hypervisor", "Source"}
# invalid wherever an integer or a duration stands
JUNK = ("", "x", "1.5", "-1", "0x", "1e3", "7 min")
UNITS = (("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000))
NAMES = st.text("abc_xyz019", min_size=1, max_size=6)


def _integer(draw, value: int) -> str:
    return draw(st.sampled_from((str(value), hex(value), f"0X{value:X}", f" {value} ")))


def _duration(draw, value: int) -> str:
    suffix, factor = draw(st.sampled_from([u for u in UNITS if value % u[1] == 0]))
    return f"{value // factor}{suffix}"


def _port_ref(draw, tag):
    pid, port = draw(st.integers(0, 9)), draw(NAMES)
    return Node(tag, (("partition", _integer(draw, pid)), ("port", port))), PortRef(pid, port)


def _channel(draw):
    sampling = draw(st.booleans())
    size = draw(st.integers(1, 4096))
    attrs = [("maxMessageSize", _integer(draw, size))]
    if sampling:
        refresh = draw(st.integers(0, 5)) * 1_000_000
        attrs.append(("refreshPeriod", _duration(draw, refresh)))
    else:
        capacity = draw(st.integers(1, 16))
        attrs.append(("maxNoMessages", _integer(draw, capacity)))
    source_node, source = _port_ref(draw, "Source")
    dests = [_port_ref(draw, "Destination") for _ in range(draw(st.integers(1, 3)))]
    ends = [node for node, _ in dests]
    ends.insert(draw(st.integers(0, len(ends))), source_node)
    spec = ChannelSpec(
        kind=ChannelKind.SAMPLING if sampling else ChannelKind.QUEUING,
        source=source, destinations=tuple(ref for _, ref in dests),
        max_message_size=size, refresh_period=refresh if sampling else None,
        capacity=None if sampling else capacity)
    return Node("SamplingChannel" if sampling else "QueuingChannel", tuple(attrs), tuple(ends)), spec


@st.composite
def documents(draw):
    """``(root Node, the SystemConfig it describes)``."""
    frame = draw(st.integers(1, 10)) * 1_000_000
    partitions, partition_nodes = [], []
    for pid in draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True)):
        name = draw(NAMES)
        areas = [MemoryArea(draw(st.integers(0, 1 << 40)), draw(st.integers(1, 1 << 20)))
                 for _ in range(draw(st.integers(0, 2)))]
        partitions.append(PartitionSpec(pid, name, tuple(areas)))
        partition_nodes.append(Node("Partition", (("id", _integer(draw, pid)), ("name", name)),
                                    tuple(Node("MemoryArea", (("start", _integer(draw, a.start)),
                                                              ("size", _integer(draw, a.size))))
                                          for a in areas)))
    slots, slot_nodes = [], []
    for sid in draw(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True)):
        slot = ScheduleSlot(sid, draw(st.integers(0, 99)), draw(st.integers(0, 999)) * 1_000,
                            draw(st.integers(0, 999)) * 1_000)
        slots.append(slot)
        slot_nodes.append(Node("Slot", (
            ("id", _integer(draw, sid)), ("partition", _integer(draw, slot.partition_id)),
            ("start", _duration(draw, slot.start)), ("duration", _duration(draw, slot.duration)))))
    sections = [Node("PartitionTable", (), tuple(partition_nodes)),
                Node("Schedule", (), tuple(slot_nodes))]
    channels = ()
    if draw(st.booleans()):
        drawn = [_channel(draw) for _ in range(draw(st.integers(0, 4)))]
        channels = tuple(spec for _, spec in drawn)
        sections.append(Node("Channels", (), tuple(node for node, _ in drawn)))
    copy_cost = CopyCost()
    if draw(st.booleans()):
        costs = {"copyCostFixed": draw(st.integers(0, 50)) * 1_000,
                 "copyCostPerByte": draw(st.integers(0, 9))}
        shown = draw(st.lists(st.sampled_from(sorted(costs)), unique=True))
        copy_cost = CopyCost(fixed=costs["copyCostFixed"] if "copyCostFixed" in shown else 0,
                             per_byte=costs["copyCostPerByte"] if "copyCostPerByte" in shown else 0)
        sections.append(Node("Hypervisor", tuple((name, _duration(draw, costs[name]))
                                                 for name in shown), (), frozenset(costs)))
    root = Node("SystemDescription", (("majorFrame", _duration(draw, frame)),),
                tuple(draw(st.permutations(sections))))
    config = SystemConfig(
        partitions=tuple(partitions),
        plan=SchedulePlan(frame, tuple(sorted(slots, key=lambda s: (s.start, s.slot_id)))),
        channels=channels, copy_cost=copy_cost)
    return root, config


GAP = st.sampled_from(("", "\n", "\n  ", " \t "))  # between elements
ATTR_GAP = st.sampled_from((" ", "\n    ", "\t"))  # before an attribute
TAG_END = st.sampled_from(("", " ", "\n"))  # before ">" or "/>"


def _render(draw, node) -> str:
    if isinstance(node, str):
        return node
    quote = draw(st.sampled_from(('"', "'")))
    equals = draw(st.sampled_from(("=", " = ")))
    attrs = "".join(f"{draw(ATTR_GAP)}{name}{equals}{quote}{value}{quote}"
                    for name, value in draw(st.permutations(node.attrs)))
    head = f"<{node.tag}{attrs}{draw(TAG_END)}"
    if not node.children and draw(st.booleans()):
        return head + "/>"
    body = "".join(draw(GAP) + _render(draw, child) for child in node.children)
    return f"{head}>{body}{draw(GAP)}</{node.tag}>"


def _nodes(node, path=()):
    """Every (path, Node) of a tree; a path is the child indices from the root."""
    yield path, node
    for i, child in enumerate(node.children):
        if isinstance(child, Node):
            yield from _nodes(child, path + (i,))


def _replace(node, path, new):
    """``node`` with the Node at ``path`` replaced by ``new``."""
    if not path:
        return new
    children = list(node.children)
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return node._replace(children=tuple(children))


def _offers(node):
    """The mutations a Node offers: each leaves exactly one fault."""
    yield "unknown_attribute"
    yield "unknown_element"
    yield "stray_text"
    if any(name not in node.optional for name, _ in node.attrs):
        yield "drop_attribute"
    if any(name not in TEXT_ATTRS for name, _ in node.attrs):
        yield "junk"
        yield "misspell"
    if node.tag in SINGLETONS:
        yield "repeat"


def _mutate(draw, root):
    """``(mutated root, the text its error must hold)``: the element's
    tag, and for a misspelt number its attribute too."""
    offered = {}
    for path, node in _nodes(root):
        for op in _offers(node):
            offered.setdefault(op, []).append(path)
    op = draw(st.sampled_from(sorted(offered)))
    path = draw(st.sampled_from(offered[op]))
    node = dict(_nodes(root))[path]
    attrs, named = list(node.attrs), f"<{node.tag}>"
    if op == "repeat":  # a second copy beside the first, in the parent
        parent = dict(_nodes(root))[path[:-1]]
        children = list(parent.children)
        children.insert(path[-1], node)
        return _replace(root, path[:-1], parent._replace(children=tuple(children))), named
    if op == "unknown_attribute":
        attrs.insert(draw(st.integers(0, len(attrs))), ("bogus", "1"))
    elif op == "drop_attribute":
        attrs.remove(draw(st.sampled_from([a for a in attrs if a[0] not in node.optional])))
    elif op == "junk":
        i = draw(st.sampled_from([i for i, a in enumerate(attrs) if a[0] not in TEXT_ATTRS]))
        attrs[i] = (attrs[i][0], draw(st.sampled_from(JUNK)))
    elif op == "misspell":
        i = draw(st.sampled_from([i for i, a in enumerate(attrs) if a[0] not in TEXT_ATTRS]))
        attrs[i] = (attrs[i][0], misspell_number(draw, attrs[i][1]))
        named = f"<{node.tag}> {attrs[i][0]}: bad "
    else:
        extra = Node("Bogus", ()) if op == "unknown_element" else "stray"
        children = list(node.children)
        children.insert(draw(st.integers(0, len(children))), extra)
        node = node._replace(children=tuple(children))
    return _replace(root, path, node._replace(attrs=tuple(attrs))), named


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_written_document_parses_to_its_config(data):
    root, config = data.draw(documents())
    assert parse_config(_render(data.draw, root)) == config


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_one_mutated_token_is_located(data):
    root, _ = data.draw(documents())
    mutated, named = _mutate(data.draw, root)
    text = _render(data.draw, mutated)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert named in str(info.value), (named, str(info.value))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.xml"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", str(path)])
    assert code == 1
    assert out.getvalue().startswith(("ERROR SCHEMA ", "ERROR XML_SYNTAX ")), out.getvalue()
    assert out.getvalue().count("\n") == 1
