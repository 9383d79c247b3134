from pathlib import Path

import pytest

from partsim.config import parse_config

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
