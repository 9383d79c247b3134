"""Broker delay model: closed form, load response, jitter statistics, and
the per-condition path against the reference model.  The values and model
functions check no range: the scenario reader does, and
``tests/test_cli.py::test_malformed_value_is_located`` checks each range
from a scenario."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from partsim.harness import parse_scenario, run_scenario
from partsim.middleware import (
    BrokerTopology,
    LinkModel,
    LoadProfile,
    SEED_STRIDE,
    condition_times,
    default_topology,
    repetition_rng,
    base_time,
    tx_time,
)
from partsim.units import parse_fraction

from conftest import SCENARIO_DIR, csv_rows
from refmodels import flat_cells, reference_times


def quiet_topology(per_byte=1, k=2.0):
    link = LinkModel(base_latency=100_000, per_byte=per_byte, jitter_stddev=0)
    return BrokerTopology(
        uplink=link,
        downlink=link,
        proc_fixed=10_000,
        proc_per_byte=3,
        load_factor=k,
    )


def test_zero_load_zero_jitter_closed_form():
    topo = quiet_topology()
    rng = random.Random(0)
    size = 1_000
    # link1 + processing + link2, exactly
    expected = (100_000 + 1_000) + (10_000 + 3_000) + (100_000 + 1_000)
    assert tx_time(topo, size, LoadProfile(0.0), rng) == expected


def test_full_load_scales_processing_only():
    topo = quiet_topology(k=2.0)
    rng = random.Random(0)
    relaxed = tx_time(topo, 1_000, LoadProfile(0.0), rng)
    stressed = tx_time(topo, 1_000, LoadProfile(1.0), rng)
    assert stressed - relaxed == 2 * (10_000 + 3_000)  # k * processing


def _two_decimals(low: int, high: int):
    """A fraction literal with two decimals, from low/100 to high/100."""
    return st.integers(low, high).map(lambda n: f"{n // 100}.{n % 100:02d}")


@settings(max_examples=300)
@given(
    # multiples of 50 ns make ties: 50 * m * k / 100 ends in .5 for odd m * k
    processing=st.one_of(st.integers(0, 10**4).map(lambda m: 50 * m),
                         st.integers(0, 10**18)),
    load_factor=_two_decimals(0, 400),
    cpu_load=_two_decimals(0, 100),
)
@example(processing=50, load_factor="1.00", cpu_load="0.13")  # 56.5 ns: 57, not 56
@example(processing=2**60 + 1, load_factor="1.00", cpu_load="0.50")  # past 2**53
def test_load_term_rounds_half_up_exactly(processing, load_factor, cpu_load):
    """The load-scaled processing is the exact decimal product rounded to
    the nearest ns, ties up, at any size."""
    quiet = LinkModel(0)
    topology = BrokerTopology(quiet, quiet, processing, 0, parse_fraction(load_factor))
    exact = processing * (1 + Fraction(load_factor) * Fraction(cpu_load))
    assert base_time(topology, 1, LoadProfile(parse_fraction(cpu_load))) == \
        math.floor(exact + Fraction(1, 2))


def test_determinism_same_seed():
    topo = default_topology()
    load = LoadProfile(0.5, 0.75)
    a = tx_time(topo, 4_096, load, random.Random(99))
    b = tx_time(topo, 4_096, load, random.Random(99))
    assert a == b


def test_monotone_in_cpu_load():
    topo = quiet_topology()
    rng = random.Random(0)
    values = [tx_time(topo, 10_000, LoadProfile(l / 10), rng) for l in range(11)]
    assert values == sorted(values)


def test_equal_load_jittered_delay_centers_on_zero():
    """Statistical oracle: with identical load profiles the expected delay
    is zero; the sample mean must land within 3 standard errors."""
    topo = default_topology()  # jitter enabled
    load = LoadProfile(0.6, 0.2)
    n = 400
    deltas = []
    for rep in range(n):
        rng = repetition_rng(5, rep)
        relaxed = tx_time(topo, 1_000_000, load, rng)
        stressed = tx_time(topo, 1_000_000, load, rng)
        deltas.append(stressed - relaxed)
    mean = sum(deltas) / n
    variance = sum((d - mean) ** 2 for d in deltas) / (n - 1)
    stderr = math.sqrt(variance / n)
    assert abs(mean) <= 3 * stderr


def test_mediator_cannot_be_bypassed():
    # random topologies: delivery always pays both hops' base latency
    rng = random.Random(7)
    for _ in range(200):
        link1 = LinkModel(rng.randrange(0, 10**6), rng.randrange(0, 3),
                          rng.randrange(0, 10**5))
        link2 = LinkModel(rng.randrange(0, 10**6), rng.randrange(0, 3),
                          rng.randrange(0, 10**5))
        topo = BrokerTopology(
            uplink=link1, downlink=link2,
            proc_fixed=rng.randrange(0, 10**5), proc_per_byte=rng.randrange(0, 4),
            load_factor=rng.random() * 3,
        )
        load = LoadProfile(rng.random(), rng.random())
        t = tx_time(topo, rng.randrange(1, 10**6), load, rng)
        assert t >= link1.base_latency + link2.base_latency


def test_default_calibration_magnitude():
    """1 MB under full load vs idle averages about 5 ms by calibration."""
    topo = default_topology()
    n = 200
    total = 0
    for rep in range(n):
        rng = repetition_rng(11, rep)
        relaxed = tx_time(topo, 1_000_000, LoadProfile(0.0), rng)
        stressed = tx_time(topo, 1_000_000, LoadProfile(1.0, 0.75), rng)
        total += stressed - relaxed
    mean = total / n
    assert 4_000_000 <= mean <= 6_000_000


def test_repetition_rng_streams_are_disjoint():
    a = [repetition_rng(3, 0).random() for _ in range(4)]
    b = [repetition_rng(3, 1).random() for _ in range(4)]
    assert a != b
    assert [repetition_rng(3, 0).random() for _ in range(4)] == a


@pytest.mark.parametrize("seed, repetition", [(-1, 1), (0, -1), (0, SEED_STRIDE)])
def test_repetition_rng_rejects_overlapping_streams(seed, repetition):
    """(-1, 1) would seed the stream of (0, 1_000_002)."""
    with pytest.raises(ValueError):
        repetition_rng(seed, repetition)


def link(jittered):
    return st.builds(LinkModel, st.integers(0, 10**6), st.integers(0, 3),
                     st.integers(1, 10**6) if jittered else st.just(0))


# jitter on neither link, the uplink only, the downlink only, or both
paths = st.sampled_from([(False, False), (True, False), (False, True), (True, True)]).flatmap(
    lambda jittered: st.tuples(link(jittered[0]), link(jittered[1])))
loads = st.builds(LoadProfile, st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    path=paths,
    proc_fixed=st.integers(0, 10**5),
    proc_per_byte=st.integers(0, 5),
    load_factor=st.floats(0.0, 4.0),
    relaxed=loads,
    stressed=loads,
    size=st.integers(1, 10**7),
    seed=st.integers(0, 2**40),
    first=st.integers(1, SEED_STRIDE - 12),
    count=st.integers(0, 12),
)
def test_condition_times_equal_the_reference_model(
    path, proc_fixed, proc_per_byte, load_factor, relaxed, stressed,
    size, seed, first, count,
):
    """The inline Box-Muller pairs are Random.gauss's draws, row for row: a
    change to gauss (or to seeding) in the interpreter fails here."""
    topology = BrokerTopology(*path, proc_fixed, proc_per_byte, load_factor)
    assert condition_times(topology, size, relaxed, stressed, seed, first, count) == \
        flat_cells(reference_times(topology, size, relaxed, stressed, seed, first, count))


def test_condition_times_reach_the_last_stream():
    """The last counter below the stride is a row like any other."""
    topo, relaxed, stressed = default_topology(), LoadProfile(0.0), LoadProfile(1.0)
    assert condition_times(topo, 64, relaxed, stressed, 9, SEED_STRIDE - 2, 2) == \
        flat_cells(reference_times(topo, 64, relaxed, stressed, 9, SEED_STRIDE - 2, 2))


def test_broker_run_equals_the_reference_model():
    """Through run_scenario, with three load pairs and a seed override: row
    c (counted over payloads, then pairs, then repetitions) is tx_time under
    the pair's relaxed and then stressed load on repetition_rng(seed, c)."""
    sc = parse_scenario((SCENARIO_DIR / "broker.scn").read_text()
                        .replace("repetitions = 100", "repetitions = 7")
                        .replace("jitter=50us\nproc", "jitter=0ns\nproc")
                        + "0.25,0.0 -> 0.5,0.0\n0.0,0.0 -> 0.0,0.0\n")
    assert sc.topology.downlink.jitter_stddev == 0 < sc.topology.uplink.jitter_stddev
    rows = csv_rows(run_scenario(sc, seed=424242))
    assert len(rows) == 3 * 3 * 7
    for c, row in enumerate(rows):
        relaxed, stressed = sc.load_pairs[int(row.scenario.rsplit("/", 1)[1])]
        [(relaxed_ns, stressed_ns)] = reference_times(
            sc.topology, row.payload_bytes, relaxed, stressed, 424242, c, 1)
        assert (row.repetition, row.tx_relaxed_ns, row.tx_stressed_ns, row.tx_delay_ns) == \
            (c % 7, relaxed_ns, stressed_ns, stressed_ns - relaxed_ns)
