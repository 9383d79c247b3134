"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned in the assertions; nothing is calibrated at
test time.
"""

import math
import random
import time

from partsim.cli import main
from partsim.config import PartitionSpec, SchedulePlan, ScheduleSlot, SystemConfig, parse_config
from partsim.harness import parse_scenario, run_scenario
from partsim.middleware import (
    BrokerTopology,
    LinkModel,
    LoadProfile,
    default_topology,
    repetition_rng,
    tx_time,
)
from partsim.scheduler import PartitionState, SimState
from partsim.trace import EventRecord, HmRecord, format_trace
from partsim.workload import ScriptMode, parse_script

from conftest import SCENARIO_DIR, csv_rows, make_cookbook_scenario, partition_records
from refmodels import run_queuing_sequence, run_sampling_sequence

SAMPLING_XML = (
    '<SystemDescription majorFrame="1000us">'
    "<PartitionTable>"
    '<Partition id="0" name="pub"/><Partition id="1" name="sub"/>'
    "</PartitionTable>"
    "<Schedule>"
    '<Slot id="0" partition="0" start="0us" duration="400us"/>'
    '<Slot id="1" partition="1" start="500us" duration="400us"/>'
    "</Schedule>"
    "<Channels>"
    '<SamplingChannel maxMessageSize="64" refreshPeriod="2ms">'
    '<Source partition="0" port="out"/><Destination partition="1" port="in"/>'
    "</SamplingChannel>"
    "</Channels>"
    "</SystemDescription>"
)

QUEUING_XML = SAMPLING_XML.replace(
    '<SamplingChannel maxMessageSize="64" refreshPeriod="2ms">',
    '<QueuingChannel maxMessageSize="64" maxNoMessages="16">',
).replace("</SamplingChannel>", "</QueuingChannel>")


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_01_cli_determinism(tmp_path, monkeypatch):
    """Identical seeds give byte-identical CSV and trace files, in < 10 s.
    A broker run has no trace, so only its CSV is compared."""
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    outputs = {}
    for scenario in ("cookbook", "ratio_demo", "broker"):
        pair = []
        for attempt in ("a", "b"):
            csv_path = tmp_path / f"{scenario}_{attempt}.csv"
            trace_path = tmp_path / f"{scenario}_{attempt}.trace"
            traced = scenario != "broker"
            code = main([
                "run", str(SCENARIO_DIR / f"{scenario}.scn"),
                "--out", str(csv_path), "--seed", "7",
                *(("--trace", str(trace_path)) if traced else ()),
            ])
            assert code == 0
            pair.append(csv_path.read_bytes() + (trace_path.read_bytes() if traced else b""))
        outputs[scenario] = pair
    elapsed = time.monotonic() - started
    for scenario, (first, second) in outputs.items():
        assert first == second, f"{scenario}: outputs differ between runs"
    assert elapsed < 10.0, f"determinism check took {elapsed:.1f}s"
    _passed("1 determinism")


def test_02_schedule_conformance():
    """1,000 frames, 3 partitions: active time exact to 0 ns and active
    intervals pairwise disjoint by brute-force interval check."""
    frame = 1_000_000
    durations = {0: 200_000, 1: 250_000, 2: 400_000}
    cfg = SystemConfig(
        partitions=tuple(PartitionSpec(id=i, name=f"p{i}") for i in range(3)),
        plan=SchedulePlan(
            major_frame=frame,
            slots=(
                ScheduleSlot(slot_id=0, partition_id=0, start=0, duration=durations[0]),
                ScheduleSlot(slot_id=1, partition_id=1, start=300_000, duration=durations[1]),
                ScheduleSlot(slot_id=2, partition_id=2, start=600_000, duration=durations[2]),
            ),
        ),
    )
    frames = 1_000
    sim = SimState(cfg).boot()
    sim.run_until(frames * frame)  # the final SLOT_END lands exactly on the boundary

    opens, intervals, totals = {}, [], {0: 0, 1: 0, 2: 0}
    for r in sim.trace:
        if isinstance(r, EventRecord):
            if r.kind == "SLOT_START":
                opens[r.partition] = r.time
            elif r.kind == "SLOT_END":
                start = opens.pop(r.partition)
                intervals.append((start, r.time))
                totals[r.partition] += r.time - start
    for pid, duration in durations.items():
        assert totals[pid] == frames * duration, f"partition {pid} active time drifted"
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, f"active intervals overlap: [{s1},{e1}) and [{s2},{e2})"
    _passed("2 schedule conformance")


def test_03_port_model_equivalence():
    """10,000 randomized sequences per channel kind, zero divergences."""
    rng = random.Random(0xC0FFEE)
    sampling, queuing = parse_config(SAMPLING_XML), parse_config(QUEUING_XML)
    for _ in range(10_000):  # each sequence gets a fresh PortTable
        run_sampling_sequence(sampling, rng, ops=25)
    for _ in range(10_000):
        run_queuing_sequence(queuing, rng, ops=25)
    _passed("3 port model equivalence")


def test_04_exact_latency_law():
    """Cookbook: latency 400 us, gap 100 us, every repetition, 0 ns
    tolerance; copy cost c shifts latency by exactly c."""
    rows = csv_rows(run_scenario(parse_scenario(make_cookbook_scenario(repetitions=100))))
    assert len(rows) == 100
    assert all(r.latency_ns == 400_000 for r in rows)
    assert all(r.gap_ns == 100_000 for r in rows)
    for copy_ns in (1_000, 50_000):
        shifted = csv_rows(run_scenario(
            parse_scenario(make_cookbook_scenario(copy_fixed=f"{copy_ns}ns", repetitions=10))
        ))
        assert all(r.latency_ns == 400_000 + copy_ns for r in shifted)
        assert all(r.gap_ns == 100_000 for r in shifted)
    _passed("4 exact latency law")


def test_05_overhead_ratio_demo():
    """The calibrated demo reports a 2.1% transmission overhead over the
    transition gap, as deterministic arithmetic."""
    scenario = parse_scenario(
        (SCENARIO_DIR / "ratio_demo.scn").read_text(), base_dir=SCENARIO_DIR
    )
    [condition] = run_scenario(scenario).conditions
    stats = condition.summary()
    assert stats.mean == 1_021_000
    assert stats.scheduled_gap == 1_000_000
    assert stats.latency_to_gap_ratio == 1_021_000 / 1_000_000
    assert stats.overhead_ratio == 21_000 / 1_000_000
    assert f"{stats.overhead_ratio * 100:.1f}%" == "2.1%"
    _passed("5 overhead ratio demo")


def test_06_overrun_anomaly_and_isolation():
    """450 us demanded in a 400 us slot: exactly one SLOT_OVERRUN of 50 us,
    then the carry drains; the other partition's filtered trace is
    byte-identical to the fault-free run."""
    cfg = parse_config(QUEUING_XML)
    steady = parse_script(["compute 20us", "mark beat"], 1, ScriptMode.REPEAT_EACH_SLOT)

    faulty = SimState(cfg, scripts={
        0: parse_script(["compute 450us"], 0),
        1: steady,
    }).boot()
    faulty.run_until(5_000_000 - 1)

    overruns = [r for r in faulty.trace if isinstance(r, HmRecord)]
    assert len(overruns) == 1, "exactly one overrun until the carry drains"
    assert overruns[0].kind == "SLOT_OVERRUN"
    assert overruns[0].detail == "50000"
    assert overruns[0].time == 400_000
    assert faulty.partition_states[0] is PartitionState.NORMAL  # LOG keeps it running

    clean = SimState(cfg, scripts={
        0: parse_script(["compute 400us"], 0),
        1: steady,
    }).boot()
    clean.run_until(5_000_000 - 1)
    assert format_trace(partition_records(faulty.trace, 1)) == format_trace(
        partition_records(clean.trace, 1)
    )
    _passed("6 overrun anomaly and isolation")


def test_07_tx_delay_formula():
    """Equal loads with zero jitter: delay identically 0.  Equal loads with
    jitter: mean over 1,000 repetitions within 3 standard errors of 0.
    Full vs idle load at default calibration: 1 MB mean delay in [4, 6] ms."""
    quiet = BrokerTopology(LinkModel(200_000), LinkModel(200_000))
    load = LoadProfile(0.7, 0.3)
    for rep in range(100):
        rng = repetition_rng(1, rep)
        relaxed = tx_time(quiet, 1_000_000, load, rng)
        stressed = tx_time(quiet, 1_000_000, load, rng)
        assert stressed - relaxed == 0

    noisy = default_topology()
    deltas = []
    for rep in range(1_000):
        rng = repetition_rng(2, rep)
        relaxed = tx_time(noisy, 1_000_000, load, rng)
        stressed = tx_time(noisy, 1_000_000, load, rng)
        deltas.append(stressed - relaxed)
    mean = sum(deltas) / len(deltas)
    variance = sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)
    stderr = math.sqrt(variance / len(deltas))
    assert abs(mean) <= 3 * stderr, f"mean {mean:.0f} vs stderr {stderr:.0f}"

    total = 0
    reps = 200
    for rep in range(reps):
        rng = repetition_rng(3, rep)
        relaxed = tx_time(noisy, 1_000_000, LoadProfile(0.0, 0.0), rng)
        stressed = tx_time(noisy, 1_000_000, LoadProfile(1.0, 0.75), rng)
        total += stressed - relaxed
    calibrated_mean = total / reps
    assert 4_000_000 <= calibrated_mean <= 6_000_000, f"got {calibrated_mean:.0f} ns"
    _passed("7 tx-delay formula")


def test_08_payload_sweep(tmp_path):
    """The paper protocol end-to-end: {1 B, 1 MB, 6 MB} x 100 repetitions
    in both modes, full CSV column contract, in < 60 s."""
    started = time.monotonic()
    csv_path = tmp_path / "sweep.csv"
    code = main([
        "run", str(SCENARIO_DIR / "sweep.scn"), "--out", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "scenario,mode,repetition,payload_bytes,t_send_ns,t_recv_ns,latency_ns,"
        "gap_ns,latency_to_gap_ratio,tx_relaxed_ns,tx_stressed_ns,tx_delay_ns"
    )
    assert len(lines) == 1 + 3 * 100
    payloads = {int(line.split(",")[3]) for line in lines[1:]}
    assert payloads == {1, 1_000_000, 6_000_000}

    broker_csv = tmp_path / "broker.csv"
    code = main([
        "run", str(SCENARIO_DIR / "broker.scn"), "--out", str(broker_csv),
    ])
    assert code == 0
    assert len(broker_csv.read_text().splitlines()) == 1 + 3 * 100
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _passed("8 payload sweep")
