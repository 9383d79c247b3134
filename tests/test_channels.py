"""Port semantics: overwrite vs FIFO, visibility, freshness, isolation."""

import copy
import random

import pytest

from partsim.channels import PortStatus, PortTable
from partsim.config import parse_config

from conftest import COOKBOOK_XML, SAMPLING_XML

COSTED_SAMPLING = SAMPLING_XML.replace(
    "</SystemDescription>",
    '  <Hypervisor copyCostFixed="0ns" copyCostPerByte="1ns"/>\n</SystemDescription>',
)


@pytest.fixture
def sampling_ports(sampling_config):
    return PortTable(sampling_config)


@pytest.fixture
def queuing_ports(cookbook):
    return PortTable(cookbook)


def test_sampling_overwrite(sampling_ports):
    sampling_ports.send(0, "out", 8, 1_000)
    sampling_ports.send(0, "out", 16, 2_000)
    status, msg, valid, *_ = sampling_ports.read(1, "in", 3_000)
    assert status is PortStatus.OK and valid
    assert (msg.payload_size, msg.written_at) == (16, 2_000)


def test_sampling_write_by_non_source(sampling_ports):
    status, msg, *_ = sampling_ports.send(1, "in", 8, 0)
    assert status is PortStatus.NOT_OWNER and msg is None
    status, msg, *_ = sampling_ports.send(7, "nope", 8, 0)
    assert status is PortStatus.NOT_OWNER


def test_sampling_read_empty(sampling_ports):
    assert sampling_ports.read(1, "in", 0)[0] is PortStatus.EMPTY


def test_sampling_too_large(sampling_ports):
    status, *_ = sampling_ports.send(0, "out", 65, 0)
    assert status is PortStatus.TOO_LARGE
    assert sampling_ports.read(1, "in", 10)[0] is PortStatus.EMPTY


def test_sampling_visibility_boundary():
    # 64-byte write at t with per_byte=1ns is readable at t+64ns, not before
    ports = PortTable(parse_config(COSTED_SAMPLING))
    ports.send(0, "out", 64, 1_000)
    assert ports.read(1, "in", 1_063)[0] is PortStatus.EMPTY
    status, msg, *_ = ports.read(1, "in", 1_064)
    assert status is PortStatus.OK and msg.written_at == 1_000


def test_sampling_validity_window(sampling_ports):
    # refresh period 2ms, closed bound
    sampling_ports.send(0, "out", 8, 0)
    assert sampling_ports.read(1, "in", 1_000_000)[2] is True
    _, msg, valid, *_ = sampling_ports.read(1, "in", 3_000_000)
    assert valid is False and msg is not None  # stale but still returned
    assert sampling_ports.read(1, "in", 2_000_000)[2] is True  # exactly at bound


def test_queuing_fifo_and_full(queuing_ports):
    for i in range(16):
        status, *_ = queuing_ports.send(0, "out", 8, i)
        assert status is PortStatus.OK
    status, *_ = queuing_ports.send(0, "out", 8, 99)
    assert status is PortStatus.FULL
    received = []
    while True:
        status, msg, *_ = queuing_ports.receive(1, "in", 1_000)
        if status is PortStatus.EMPTY:
            break
        received.append(msg.written_at)
    assert received == list(range(16))


def test_queuing_capacity_one():
    text = COOKBOOK_XML.replace('maxNoMessages="16"', 'maxNoMessages="1"')
    ports = PortTable(parse_config(text))
    assert ports.send(0, "out", 1, 0)[0] is PortStatus.OK
    assert ports.send(0, "out", 1, 1)[0] is PortStatus.FULL
    assert ports.receive(1, "in", 2)[0] is PortStatus.OK
    assert ports.send(0, "out", 1, 3)[0] is PortStatus.OK


def test_queuing_receive_after_decrease(queuing_ports):
    queuing_ports.send(0, "out", 8, 0)
    queuing_ports.send(0, "out", 8, 1)
    state = queuing_ports.state(0)
    assert len(state.held) == 2
    queuing_ports.receive(1, "in", 5)
    assert len(state.held) == 1


def test_queuing_head_gates_visibility():
    # per-byte copy cost: a big head hides a small later message (strict FIFO)
    text = COOKBOOK_XML.replace('copyCostPerByte="0ns"', 'copyCostPerByte="10ns"')
    text = text.replace('maxMessageSize="64"', 'maxMessageSize="1000"')
    ports = PortTable(parse_config(text))
    ports.send(0, "out", 1000, 0)  # visible at 10_000
    ports.send(0, "out", 1, 5)  # visible at 15
    assert ports.receive(1, "in", 500)[0] is PortStatus.EMPTY
    status, msg, *_ = ports.receive(1, "in", 10_000)
    assert status is PortStatus.OK and msg.payload_size == 1000


def test_non_owner_leaves_state_unchanged(queuing_ports):
    queuing_ports.send(0, "out", 8, 0)
    before = copy.deepcopy(queuing_ports.state(0).held)
    assert queuing_ports.send(1, "out", 8, 1)[0] is PortStatus.NOT_OWNER
    assert queuing_ports.receive(0, "in", 1)[0] is PortStatus.NOT_OWNER
    assert queuing_ports.state(0).held == before


def test_wrong_kind_ops(queuing_ports, sampling_ports):
    assert queuing_ports.read(1, "in", 0)[0] is PortStatus.BAD_KIND
    assert sampling_ports.receive(1, "in", 0)[0] is PortStatus.BAD_KIND


# -- reference-model equivalence ---------------------------------------------
# (the full 10,000-sequence sweep runs in the acceptance suite)

from refmodels import msg_tuple as _msg_tuple, run_queuing_sequence, run_sampling_sequence


def test_sampling_matches_model():
    rng = random.Random(101)
    config = parse_config(SAMPLING_XML)
    for _ in range(500):
        run_sampling_sequence(config, rng)


def test_queuing_matches_model():
    rng = random.Random(202)
    config = parse_config(COOKBOOK_XML)
    for _ in range(500):
        run_queuing_sequence(config, rng)


def test_queuing_conservation():
    rng = random.Random(303)
    for _ in range(50):
        ports = PortTable(parse_config(COOKBOOK_XML))
        sent, received = [], []
        now = 0
        for _ in range(60):
            now += 1
            if rng.random() < 0.6:
                status, msg, *_ = ports.send(0, "out", rng.randrange(1, 64), now)
                if status is PortStatus.OK:
                    sent.append(_msg_tuple(msg))
            else:
                status, msg, *_ = ports.receive(1, "in", now)
                if status is PortStatus.OK:
                    received.append(_msg_tuple(msg))
        while True:  # drain
            now += 1
            status, msg, *_ = ports.receive(1, "in", now)
            if status is not PortStatus.OK:
                break
            received.append(_msg_tuple(msg))
        assert received == sent  # FIFO order and full conservation at drain
