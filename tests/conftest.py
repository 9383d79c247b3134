import re
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings, strategies as st

from partsim.config import parse_config
from partsim.results import export_csv

# Tier-1 draws the same examples on every run: each test's inputs follow
# from its source, not from a fresh seed or a database of past failures.
# ``pytest --hypothesis-profile=explore`` draws new inputs on each run.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

COOKBOOK_XML = """
<SystemDescription majorFrame="1000us">
  <PartitionTable>
    <Partition id="0" name="pub">
      <MemoryArea start="0x100000" size="0x10000"/>
    </Partition>
    <Partition id="1" name="sub">
      <MemoryArea start="0x200000" size="0x10000"/>
    </Partition>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
    <Slot id="1" partition="1" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <QueuingChannel maxMessageSize="64" maxNoMessages="16">
      <Source partition="0" port="out"/>
      <Destination partition="1" port="in"/>
    </QueuingChannel>
  </Channels>
  <Hypervisor copyCostFixed="0ns" copyCostPerByte="0ns"/>
</SystemDescription>
"""

SAMPLING_XML = """
<SystemDescription majorFrame="1000us">
  <PartitionTable>
    <Partition id="0" name="pub"/>
    <Partition id="1" name="sub"/>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
    <Slot id="1" partition="1" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <SamplingChannel maxMessageSize="64" refreshPeriod="2ms">
      <Source partition="0" port="out"/>
      <Destination partition="1" port="in"/>
    </SamplingChannel>
  </Channels>
</SystemDescription>
"""


def partition_records(records, partition_id):
    """Project a trace onto one partition (frame wraps excluded)."""
    return [r for r in records if r.partition == partition_id]


@pytest.fixture
def cookbook():
    return parse_config(COOKBOOK_XML)


@pytest.fixture
def sampling_config():
    return parse_config(SAMPLING_XML)


def make_cookbook_scenario(
    copy_fixed="0ns",
    copy_per_byte="0ns",
    repetitions=3,
    payloads="64",
    max_message_size=64,
    extra_sections="",
):
    """Cookbook scenario text with a parameterized hypervisor copy cost."""
    return f"""
name = cookbook
mode = partitioned
seed = 1
repetitions = {repetitions}
payload_sizes = {payloads}
max_frames = 2

[system]
<SystemDescription majorFrame="1000us">
  <PartitionTable>
    <Partition id="0" name="pub">
      <MemoryArea start="0x100000" size="0x10000"/>
    </Partition>
    <Partition id="1" name="sub">
      <MemoryArea start="0x200000" size="0x10000"/>
    </Partition>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
    <Slot id="1" partition="1" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <QueuingChannel maxMessageSize="{max_message_size}" maxNoMessages="16">
      <Source partition="0" port="out"/>
      <Destination partition="1" port="in"/>
    </QueuingChannel>
  </Channels>
  <Hypervisor copyCostFixed="{copy_fixed}" copyCostPerByte="{copy_per_byte}"/>
</SystemDescription>

[script 0]
mode = once
compute 100us
send out $payload
mark tx

[script 1]
mode = once
recv in
mark rx
{extra_sections}
"""


# the zero of three other scripts' digits: Arabic-Indic, Devanagari, fullwidth
_UNICODE_ZEROS = (0x0660, 0x0966, 0xFF10)


def misspell_number(draw, token: str, fraction: bool = False) -> str:
    """``token`` with one of its numbers written in a form that no literal
    takes: one digit from another script, an ``_`` after the first digit,
    a leading ``+`` or ``--``, or, on a ``fraction``, an ``e0`` exponent."""
    number = draw(st.sampled_from(list(re.finditer(r"[0-9]+(?:\.[0-9]+)?", token))))
    text = number[0]
    op = draw(st.sampled_from(("digit", "underscore", "plus", "minus")
                              + (("exponent",) if fraction else ())))
    if op == "digit":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c != "."]))
        text = text[:i] + chr(draw(st.sampled_from(_UNICODE_ZEROS)) + int(text[i])) + text[i + 1:]
    elif op == "underscore":
        text = f"{text[0]}_{text[1:] or '0'}"
    elif op == "plus":
        text = "+" + text
    elif op == "minus":
        text = "--" + text
    else:
        text += "e0"
    return token[:number.start()] + text + token[number.end():]


class Row(NamedTuple):
    """One result CSV row with its cells converted; an empty cell is None."""

    scenario: str
    mode: str
    repetition: int
    payload_bytes: int
    t_send_ns: int | None = None
    t_recv_ns: int | None = None
    latency_ns: int | None = None
    gap_ns: int | None = None
    latency_to_gap_ratio: float | None = None
    tx_relaxed_ns: int | None = None
    tx_stressed_ns: int | None = None
    tx_delay_ns: int | None = None


def csv_text(result) -> str:
    """What ``export_csv`` writes for a run result."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        export_csv(result, path)
        return path.read_text(encoding="ascii")


def csv_rows(result) -> list[Row]:
    """The data rows ``export_csv`` writes for a run result."""
    return parse_rows(csv_text(result))


def parse_rows(text: str) -> list[Row]:
    """The data rows of a result CSV's text."""
    rows = []
    for line in text.splitlines()[1:]:
        scenario, mode, *cells = line.split(",")
        rows.append(Row(scenario, mode, *(
            None if not cell else float(cell) if i == 6 else int(cell)
            for i, cell in enumerate(cells))))
    return rows
