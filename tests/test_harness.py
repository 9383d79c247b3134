"""Scenario files, experiment execution, statistics, CSV contract."""

import hashlib
import math
import random
import re
import tracemalloc

import pytest

from partsim import harness, middleware, trace as trace_mod
from partsim.harness import RunResult, ScenarioError, load_scenario, parse_scenario, run_scenario
from partsim.health import HealthAction, HmKind
from partsim.middleware import LoadProfile
from partsim.results import (
    CSV_COLUMNS,
    Condition,
    CsvError,
    EmptyResult,
    Mode,
    export_csv,
    read_csv,
    summarize,
)
from partsim.scheduler import SimState

from conftest import REPO_ROOT, SCENARIO_DIR, Row, csv_rows, csv_text, make_cookbook_scenario

PARTITIONED_SCENARIOS = ("cookbook", "overrun", "ratio_demo", "sweep")

BROKER_SCN = """
name = quiet-broker
mode = broker
seed = 3
repetitions = 50
payload_sizes = 1000

[broker]
subscribers = 1
uplink = base=100us per_byte=1ns jitter=0ns
downlink = base=100us per_byte=1ns jitter=0ns
proc_fixed = 10us
proc_per_byte = 3ns
load_factor = 2.0

[loads]
0.5,0.25 -> 0.5,0.25
"""


def test_parse_cookbook_scenario():
    sc = parse_scenario(make_cookbook_scenario())
    assert sc.name == "cookbook" and sc.mode is Mode.PARTITIONED
    assert sc.payload_sizes == (64,)
    assert sc.scripts.keys() == {0, 1}
    assert sc.system.plan.major_frame == 1_000_000


def test_parse_broker_scenario():
    sc = parse_scenario(BROKER_SCN)
    assert sc.mode is Mode.BROKER
    assert sc.topology.load_factor == 2.0
    assert sc.load_pairs == ((LoadProfile(0.5, 0.25), LoadProfile(0.5, 0.25)),)


def test_broker_section_defaults_are_the_calibration():
    text = BROKER_SCN.replace("load_factor = 2.0\n", "").replace("proc_fixed = 10us\n", "")
    topology = parse_scenario(text).topology
    default = middleware.default_topology()
    assert topology.load_factor == default.load_factor
    assert topology.proc_fixed == default.proc_fixed


def test_readme_scenario_example_parses():
    """The README example shows both modes at once: the part before
    ``[broker]`` is a partitioned scenario, and its common keys plus
    ``[broker]`` and ``[loads]`` are a broker one."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    partitioned, sep, broker_sections = example.partition("\n[broker]\n")
    assert sep
    sc = parse_scenario(partitioned, base_dir=SCENARIO_DIR)
    assert sc.mode is Mode.PARTITIONED and sc.scripts.keys() == {0, 1}

    top = partitioned.split("\n[", 1)[0].splitlines()
    common = [line for line in top
              if line.partition("=")[0].strip() in ("name", "seed", "repetitions", "payload_sizes")]
    assert len(common) == 4
    broker = parse_scenario("\n".join(common + ["mode = broker", "[broker]", broker_sections]))
    assert broker.mode is Mode.BROKER and broker.payload_sizes == sc.payload_sizes
    assert broker.load_pairs == ((LoadProfile(0.0, 0.0), LoadProfile(1.0, 0.75)),)


def test_two_load_pairs_are_summarized_apart():
    text = """
name = pairs
mode = broker
seed = 5
repetitions = 40
payload_sizes = 1,1000000

[loads]
0.0,0.0 -> 1.0,0.75
0.0,0.0 -> 0.5,0.75
"""
    sc = parse_scenario(text)
    result = run_scenario(sc)
    assert [(c.scenario, c.payload_bytes, c.mode) for c in result.conditions] == [
        (f"pairs/{k}", p, Mode.BROKER) for p in (1, 1_000_000) for k in (0, 1)]
    assert all(c.summary().count == 40 for c in result.conditions)
    # one generator per row, counted in payload -> pair -> repetition order
    rows = csv_rows(result)
    assert len(rows) == 4 * 40
    for counter, row in enumerate(rows):
        relaxed, stressed = sc.load_pairs[int(row.scenario[-1])]
        rng = middleware.repetition_rng(sc.seed, counter)
        assert row.tx_relaxed_ns == middleware.tx_time(sc.topology, row.payload_bytes, relaxed, rng)
        assert row.tx_stressed_ns == middleware.tx_time(sc.topology, row.payload_bytes, stressed, rng)
    one_pair = parse_scenario(text.replace("0.0,0.0 -> 0.5,0.75\n", ""))
    assert {r.scenario for r in csv_rows(run_scenario(one_pair))} == {"pairs"}


UPLINK_JITTER_SCN = """
name = skew
mode = broker
seed = 11
repetitions = 6
payload_sizes = 1,4096

[broker]
subscribers = 1
uplink = base=150us per_byte=2ns jitter=30us
downlink = base=90us per_byte=1ns jitter=0ns
proc_fixed = 20us
proc_per_byte = 5ns
load_factor = 1.5

[loads]
0.0,0.0 -> 1.0,0.0
0.25,0.0 -> 0.5,0.0
"""


def _model_tx_time(size, cpu_load, rng):
    """The documented delay formula, written out: one rounded, clamped
    gauss draw for the jittered uplink and none for the quiet downlink."""
    uplink = 150_000 + 2 * size + max(0, math.floor(rng.gauss(0.0, 30_000) + 0.5))
    processing = math.floor((20_000 + 5 * size) * (1.0 + 1.5 * cpu_load) + 0.5)
    return uplink + processing + 90_000 + 1 * size


def test_multi_pair_broker_rows_follow_the_documented_model():
    sc = parse_scenario(UPLINK_JITTER_SCN)
    expected = []
    counter = 0
    for payload in (1, 4096):
        for k, (relaxed_cpu, stressed_cpu) in enumerate(((0.0, 1.0), (0.25, 0.5))):
            for rep in range(6):
                rng = random.Random(11 * 1_000_003 + counter)
                counter += 1
                relaxed = _model_tx_time(payload, relaxed_cpu, rng)
                stressed = _model_tx_time(payload, stressed_cpu, rng)
                expected.append(Row(
                    f"skew/{k}", "broker", rep, payload,
                    tx_relaxed_ns=relaxed, tx_stressed_ns=stressed,
                    tx_delay_ns=stressed - relaxed,
                ))
    rows = csv_rows(run_scenario(sc))
    assert rows == expected
    assert len({r.tx_delay_ns for r in rows}) > 4  # the jitter does move rows


def test_draw_count_may_reach_the_seed_stride():
    sc = parse_scenario(BROKER_SCN)  # 1 payload x 1 load pair
    sc = sc._replace(repetitions=middleware.SEED_STRIDE)
    assert harness.validate_scenario(sc) == []
    sc = sc._replace(repetitions=sc.repetitions + 1)
    assert [f.code for f in harness.validate_scenario(sc)] == ["ROWS"]


def test_partitioned_row_count_is_bounded_too():
    """Each repetition of a payload is a CSV row in partitioned mode too,
    so the same 1,000,003-row limit refuses the scenario before it runs."""
    assert parse_scenario(make_cookbook_scenario(repetitions=500_001, payloads="8,64"))
    with pytest.raises(ScenarioError) as info:
        parse_scenario(make_cookbook_scenario(repetitions=500_002, payloads="8,64"))
    assert str(info.value) == ("ERROR ROWS scenario payload sizes x load pairs x repetitions"
                               " = 1000004 exceeds the row limit 1000003")


def test_parse_health_section():
    text = make_cookbook_scenario(extra_sections=(
        "[health]\nSLOT_OVERRUN = HALT_PARTITION\nMEMORY_VIOLATION 1 = HALT_SYSTEM\n"
    ))
    table = parse_scenario(text).health_table
    assert table.resolve(HmKind.SLOT_OVERRUN, 0) is HealthAction.HALT_PARTITION
    assert table.resolve(HmKind.MEMORY_VIOLATION, 1) is HealthAction.HALT_SYSTEM
    assert table.resolve(HmKind.MEMORY_VIOLATION, 0) is HealthAction.SUSPEND_PARTITION


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("name = x\nmode = broker\nbogus = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario("name = x\nmode = teleport\n")


def test_script_port_validation():
    """Every finding of a scenario is in the one ScenarioError the parser
    raises, joined by "; ".  A port name that no channel has is a finding;
    a port of another partition is not, since the call runs and raises a
    memory violation."""
    text = (make_cookbook_scenario().replace("send out $payload", "send elsewhere 64")
            .replace("recv in", "recv nowhere"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == (
        "ERROR SCRIPT_PORT script 0 no channel has a port 'elsewhere'; "
        "ERROR SCRIPT_PORT script 1 no channel has a port 'nowhere'")
    foreign = make_cookbook_scenario().replace("send out $payload", "send in $payload")
    assert parse_scenario(foreign).scripts[0].actions[1].port == "in"


def test_payload_exceeding_channel_rejected():
    text = make_cookbook_scenario(payloads="1,1000000", max_message_size=64)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "ERROR SCRIPT_SIZE script 0 payload sweep exceeds maxMessageSize=64"


def test_cookbook_latency_law():
    """Hand-simulated oracle: send at 100us into P0's slot, receive at the
    start of P1's slot at 500us -> latency 400us over a 100us gap."""
    rows = csv_rows(run_scenario(parse_scenario(make_cookbook_scenario(repetitions=5))))
    assert [row.repetition for row in rows] == list(range(5))
    for row in rows:
        assert row.t_send_ns == 100_000
        assert row.t_recv_ns == 500_000
        assert row.latency_ns == 400_000
        assert row.gap_ns == 100_000
        assert row.latency_to_gap_ratio == 4.0
        assert row.latency_ns == row.t_recv_ns - row.t_send_ns


@pytest.mark.parametrize("copy_ns", [1_000, 50_000])
def test_copy_cost_shifts_latency_exactly(copy_ns):
    text = make_cookbook_scenario(copy_fixed=f"{copy_ns}ns", repetitions=3)
    for row in csv_rows(run_scenario(parse_scenario(text))):
        assert row.latency_ns == 400_000 + copy_ns
        assert row.gap_ns == 100_000  # the schedule is untouched


def test_broker_equal_loads_zero_jitter():
    rows = csv_rows(run_scenario(parse_scenario(BROKER_SCN)))
    assert len(rows) == 50
    assert all(r.tx_delay_ns == 0 for r in rows)
    assert all(r.tx_relaxed_ns == r.tx_stressed_ns for r in rows)


def test_run_is_reproducible():
    text = make_cookbook_scenario(repetitions=4)
    a = csv_text(run_scenario(parse_scenario(text)))
    b = csv_text(run_scenario(parse_scenario(text)))
    assert hashlib.sha256(a.encode()).hexdigest() == hashlib.sha256(b.encode()).hexdigest()


def _simulate(sc, payload):
    sim = SimState(
        sc.system,
        scripts={pid: s.bind_payload(payload) for pid, s in sc.scripts.items()},
        health_table=sc.health_table,
        api_call_cost=sc.api_call_cost,
    )
    sim.boot()
    sim.run_until(sc.max_frames * sc.system.plan.major_frame)
    return sim


def _rows_simulating_every_repetition(sc):
    """Reference CSV lines: one fresh simulation per repetition, as a
    partitioned run would need if it drew any randomness."""
    rows = []
    if not harness._has_measurement_marks(sc.scripts):
        return rows
    for payload in sc.payload_sizes:
        for rep in range(sc.repetitions):
            sim = _simulate(sc, payload)
            measured = harness._measure(sim.trace, sc.system)
            if measured is None:
                assert sim.halted
                continue
            t_send, t_recv, gap = measured
            latency = t_recv - t_send
            ratio = f"{latency / gap:.6f}" if gap else ""
            rows.append(f"{sc.name},partitioned,{rep},{payload},{t_send},{t_recv},{latency},"
                        f"{'' if gap is None else gap},{ratio},,,")
    return rows


@pytest.mark.parametrize("name", PARTITIONED_SCENARIOS)
def test_one_simulation_per_payload_matches_every_repetition(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
    assert csv_text(run_scenario(sc)).splitlines()[1:] == _rows_simulating_every_repetition(sc)


@pytest.mark.parametrize("name", PARTITIONED_SCENARIOS)
def test_fresh_simulation_repeats_the_trace(name):
    """Reusing one simulation for every repetition is only sound while a
    partitioned run draws no randomness; this fails if a source appears.
    Both traces are compared record by record, copies included."""
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
    assert list(run_scenario(sc).trace) == list(_simulate(sc, sc.payload_sizes[0]).trace)
    for payload in sc.payload_sizes:
        assert list(_simulate(sc, payload).trace) == list(_simulate(sc, payload).trace)


LATE_RX_SCN = """
name = late_rx
mode = partitioned
seed = 1
repetitions = 2
payload_sizes = 8
max_frames = 6

[system]
<SystemDescription majorFrame="1000us">
  <PartitionTable><Partition id="0" name="pub"/><Partition id="1" name="sub"/></PartitionTable>
  <Schedule>
    <Slot id="0" partition="1" start="0us" duration="400us"/>
    <Slot id="1" partition="0" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <SamplingChannel maxMessageSize="64" refreshPeriod="2ms">
      <Source partition="0" port="out"/><Destination partition="1" port="in"/>
    </SamplingChannel>
  </Channels>
</SystemDescription>

[script 0]
mode = repeat
send out $payload
mark tx

[script 1]
mode = repeat
mark rx
read in
"""


def test_measurement_reads_the_copied_periods():
    """The consumer marks rx before it reads, so the first rx after the
    first delivery (1 ms) is the one of frame 2, which the engine only
    copies: the run repeats from frame 1 on.  The measurement still finds
    it, as in a frame-by-frame run, which builds every record."""
    sc = parse_scenario(LATE_RX_SCN)
    result = run_scenario(sc)
    built_rx = [r.time for r in result.trace.built if getattr(r, "label", None) == "rx"]
    assert built_rx == [0, 1_000_000, 6_000_000]
    assert [(r.t_send_ns, r.t_recv_ns) for r in csv_rows(result)] == [(500_000, 2_000_000)] * 2
    framed = SimState(sc.system, scripts={pid: s.bind_payload(8) for pid, s in sc.scripts.items()})
    framed.boot()
    for t in range(1_000_000, 6_000_001, 1_000_000):
        framed.run_until(t)
    assert not framed.trace.repeats
    assert harness._measure(framed.trace, sc.system)[:2] == (500_000, 2_000_000)


def test_long_run_builds_few_of_the_records_it_writes(tmp_path):
    """A 500-frame run builds the records of the frames it simulates and
    writes the rest of its trace from shifted copies of them."""
    result = run_scenario(load_scenario(SCENARIO_DIR / "overrun.scn"), frames=500)
    path = tmp_path / "t.trace"
    trace_mod.write_trace(result.trace, path)
    lines = len(path.read_text().splitlines())
    assert len(result.trace.built) * 20 < lines == result.trace.record_count()


def test_sweep_builds_one_simulation_per_payload(monkeypatch):
    built = []

    class CountingSimState(SimState):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "SimState", CountingSimState)
    sc = load_scenario(SCENARIO_DIR / "sweep.scn")
    result = run_scenario(sc)
    assert len(built) == len(sc.payload_sizes) == 3
    assert len(result) == len(csv_rows(result)) == len(sc.payload_sizes) * sc.repetitions


def test_broker_seed_changes_jittered_rows():
    text = BROKER_SCN.replace("jitter=0ns", "jitter=20us")
    text = text.replace("0.5,0.25 -> 0.5,0.25", "0.0,0.0 -> 1.0,0.5")
    base = run_scenario(parse_scenario(text))
    same = run_scenario(parse_scenario(text), seed=3)
    other = run_scenario(parse_scenario(text), seed=4)
    assert csv_text(base) == csv_text(same)
    assert csv_text(base) != csv_text(other)


# -- summarize ----------------------------------------------------------------


def test_summarize_single_repetition():
    stats = summarize("latency", [123_456], 100_000)
    assert stats.mean == stats.minimum == stats.maximum == stats.p50 == stats.p99 == 123_456


def test_summarize_fixed_arithmetic():
    stats = summarize("latency", [4_000, 1_000, 3_000, 2_000], 100_000)
    assert stats.p50 == 2_000  # nearest-rank
    assert stats.p99 == 4_000
    assert stats.mean == 2_500  # 2.5us, exact
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.p50 <= stats.p99


def test_summarize_mean_rounds_ties_up():
    stats = summarize("latency", [1, 2], 100_000)  # 1.5 -> 2
    assert stats.mean == 2


def test_summarize_ratio_example():
    stats = summarize("latency", [102_100], 100_000)
    assert stats.latency_to_gap_ratio == pytest.approx(1.021)
    assert stats.overhead_ratio == pytest.approx(0.021)
    assert f"{stats.overhead_ratio * 100:.1f}%" == "2.1%"


def test_summarize_empty():
    with pytest.raises(EmptyResult):
        summarize("latency", [])


# -- CSV ----------------------------------------------------------------------


def test_csv_header_contract():
    assert ",".join(CSV_COLUMNS) == (
        "scenario,mode,repetition,payload_bytes,t_send_ns,t_recv_ns,latency_ns,"
        "gap_ns,latency_to_gap_ratio,tx_relaxed_ns,tx_stressed_ns,tx_delay_ns"
    )


def test_csv_empty_result_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv(RunResult([]), path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_row_count(tmp_path):
    result = run_scenario(parse_scenario(make_cookbook_scenario(repetitions=100)))
    path = tmp_path / "out.csv"
    export_csv(result, path)
    assert len(path.read_text().splitlines()) == 101


def test_csv_reexport_is_byte_identical(tmp_path):
    result = run_scenario(parse_scenario(make_cookbook_scenario(repetitions=7)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(result, p1)
    export_csv(result, p2)
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


@pytest.mark.parametrize("text", [
    pytest.param(make_cookbook_scenario(repetitions=3), id="cookbook"),
    pytest.param((SCENARIO_DIR / "broker.scn").read_text().replace(
        "repetitions = 100", "repetitions = 4"), id="broker"),
])
def test_csv_round_trip(tmp_path, text):
    """What report reads back of each condition is what run kept: its
    metric values, in row order, and its first non-zero gap."""
    result = run_scenario(parse_scenario(text))
    path = tmp_path / "rt.csv"
    export_csv(result, path)
    expected = {}
    for c in result.conditions:
        if c.times is None:
            t_send, t_recv, gap = c.measurement
            expected[c.scenario, c.payload_bytes, c.mode.value] = (
                [t_recv - t_send] * c.repetitions, [], gap or None)
        else:
            expected[c.scenario, c.payload_bytes, c.mode.value] = (
                [], [s - r for r, s in c.times], None)
    read = read_csv(path)
    assert {key: (g.latencies, g.delays, g.gap) for key, g in read.items()} == expected
    assert {key: g.summary() for key, g in read.items()} == {
        (c.scenario, c.payload_bytes, c.mode.value): c.summary() for c in result.conditions}


def test_csv_edge_cells():
    result = RunResult([
        Condition("b", Mode.BROKER, 1, 2, times=[(300, 100), (7, 7)]),
        Condition("p", Mode.PARTITIONED, 64, 2, (5, 10, None)),
        Condition("p", Mode.PARTITIONED, 65, 1, (0, 2, 3)),
        Condition("p", Mode.PARTITIONED, 66, 1, (0, 1_021_000, 1_000_000)),
        Condition("p", Mode.PARTITIONED, 67, 1, (4, 6, 0)),
    ])
    assert len(result) == 7
    assert csv_text(result).splitlines()[1:] == [
        "b,broker,0,1,,,,,,300,100,-200",
        "b,broker,1,1,,,,,,7,7,0",
        "p,partitioned,0,64,5,10,5,,,,,",
        "p,partitioned,1,64,5,10,5,,,,,",
        "p,partitioned,0,65,0,2,2,3,0.666667,,,",
        "p,partitioned,0,66,0,1021000,1021000,1000000,1.021000,,,",
        "p,partitioned,0,67,4,6,2,0,,,,",
    ]


@pytest.mark.parametrize("row, message", [
    ("b,broker,0,1,,,,,,300,100", "expected 12 fields"),
    ("b,brokr,0,1,,,,,,300,100,-200", "'brokr' is not a valid Mode"),
    ("b,,0,1,,,,,,300,100,-200", "'' is not a valid Mode"),
    ("b,broker,x,1,,,,,,300,100,-200", "repetition: expected an integer, got 'x'"),
    ("b,broker,0,,,,,,,300,100,-200", "payload_bytes: expected an integer, got ''"),
    ("p,partitioned,0,64,0,2,2,3,0.6x,,,",
     "latency_to_gap_ratio: expected a decimal such as 0.5, got '0.6x'"),
    ("b,broker,0,1,,,,,,300,100,-2e2", "tx_delay_ns: expected an integer, got '-2e2'"),
    # forms that int() and float() take but export_csv never writes
    ("b,broker,0,1_0,,,,,,300,100,-200", "payload_bytes: expected an integer, got '1_0'"),
    ("b,broker,0,1,,,,,,300,100,+2_00", "tx_delay_ns: expected an integer, got '+2_00'"),
    ("b,broker,0,1,,,,,,300,100, -200", "tx_delay_ns: expected an integer, got ' -200'"),
    ("p,partitioned,0,64,0,2,2,3,4,,,",
     "latency_to_gap_ratio: expected a decimal such as 0.5, got '4'"),
    ("p,partitioned,0,64,0,2,2,3,.5,,,",
     "latency_to_gap_ratio: expected a decimal such as 0.5, got '.5'"),
])
def test_csv_read_errors_are_located(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\nb,broker,0,1,,,,,,,,\n" + row + "\n")
    with pytest.raises(CsvError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_csv_read_errors_name_the_line_whatever_the_newline(tmp_path, newline):
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join([",".join(CSV_COLUMNS), "b,broker,0,1,,,,,,,,",
                                   "b,broker,x,1,,,,,,300,100,-200", ""]).encode())
    with pytest.raises(CsvError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:3: repetition: expected an integer, got 'x'"


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_csv_lines_end_only_at_newlines(tmp_path, separator):
    """``str.splitlines`` also splits at these; ``read_csv`` does not, so
    two rows joined by one are a single line with too many fields."""
    path = tmp_path / "joined.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\nb,broker,0,1,,,,,,300,100,-200"
                    + separator + "b,broker,1,1,,,,,,7,7,0\n")
    with pytest.raises(CsvError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:2: expected 12 fields"


def test_csv_non_ascii_byte_names_its_line(tmp_path):
    """A non-ASCII byte far past the first read block is reported by the
    line that holds it, as every other malformed cell is."""
    path = tmp_path / "bad.csv"
    rows = ["b,broker,%d,1,,,,,,300,100,-200" % n for n in range(1000)]
    path.write_bytes("\n".join([",".join(CSV_COLUMNS), *rows, ""]).encode()
                     .replace(b",-200\nb,broker,900,", b",-200\nb,\xffbroker,900,"))
    with pytest.raises(CsvError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:902: cannot decode byte 0xff as ASCII"


def test_csv_read_peak_is_at_most_twice_what_it_keeps(tmp_path):
    """``read_csv`` reads bounded blocks of lines: its traced peak is
    bounded by what it keeps of the conditions, not by the size of the file."""
    sc = load_scenario(SCENARIO_DIR / "broker.scn")
    sc = sc._replace(repetitions=2_000)  # 3 payloads x 1 load pair: 6,000 rows
    path = tmp_path / "m.csv"
    export_csv(run_scenario(sc), path)
    tracemalloc.start()
    try:
        conditions = read_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(c.delays) for c in conditions.values()) == 6_000
    assert peak <= 2 * kept, f"peak {peak} B, kept {kept} B"


def test_csv_malformed_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(CsvError):
        read_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text(",".join(CSV_COLUMNS) + "\nonly,three,cells\n")
    with pytest.raises(CsvError):
        read_csv(short)


def test_broker_run_and_export_memory_per_row(tmp_path):
    """A broker run keeps each condition's times and nothing per row, and
    export writes the rows as it formats them: no row records and no
    whole-file string, so the traced peak stays below 250 bytes a row."""
    sc = load_scenario(SCENARIO_DIR / "broker.scn")
    sc = sc._replace(repetitions=2_000)  # 3 payloads x 1 load pair: 6,000 jittered rows
    tracemalloc.start()
    try:
        export_csv(run_scenario(sc), tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len((tmp_path / "m.csv").read_text().splitlines()) - 1
    assert rows == 6_000
    assert peak / rows < 250, f"{peak / rows:.0f} bytes per row"


def test_readme_mode_table_matches_the_parser_tables():
    """README "Which mode reads what" gives every top-level key and every
    section the mode that the parser's key and section tables give it."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Which mode reads what:\n\n", 1)[1].split("\n\n", 1)[0]
    keys, sections = {}, {}
    for row in table.splitlines()[2:]:
        mode, key_cell, section_cell = (cell.strip() for cell in row.strip("|").split("|"))
        owner = None if mode == "both" else Mode(mode.strip("`"))
        keys.update((key, owner) for key in re.findall(r"`(\w+)`", key_cell))
        sections.update((name.split()[0], owner)
                        for name in re.findall(r"`\[([^\]]+)\]`", section_cell))
    assert keys == {key: entry[0] for key, entry in harness._KEYS.items()}
    assert sections == {word: entry[0] for word, entry in harness._SECTIONS.items()}
