"""Virtual clock, event ordering, cyclic dispatch, partition lifecycle."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from partsim import workload
from partsim.config import (
    PartitionSpec, SchedulePlan, ScheduleSlot, SystemConfig, parse_config, validate,
)
from partsim.harness import load_scenario
from partsim.health import HealthAction, HealthTable, HmKind
from partsim.scheduler import PartitionState, SimState
from partsim.trace import (
    EventRecord, HmRecord, MarkRecord, PeriodicTrace, PortOpRecord, StateRecord, _copy_lines,
    format_trace, write_trace,
)
from partsim.workload import parse_script

from conftest import COOKBOOK_XML, SCENARIO_DIR, partition_records

# fixed tie-break order: SLOT_END < HM_EVENT < FRAME_WRAP < SLOT_START < APP_ACTION
RANK = {"SLOT_END": 0, "HM_EVENT": 1, "FRAME_WRAP": 2, "SLOT_START": 3, "APP_ACTION": 4}


def booted(cfg, scripts=None, **kwargs):
    return SimState(cfg, scripts=scripts, **kwargs).boot()


def events(records, kind=None):
    """(time, kind, partition) of the engine events among ``records``."""
    return [(r.time, r.kind, r.partition) for r in records
            if type(r) is EventRecord and kind in (None, r.kind)]


def test_boot_brings_partitions_to_normal(cookbook):
    sim = booted(cookbook)
    assert all(s is PartitionState.NORMAL for s in sim.partition_states.values())
    assert sim.now == 0
    assert events(sim.run_until(0))[0] == (0, "SLOT_START", 0)


def test_boot_after_the_clock_moved_is_rejected(cookbook):
    from partsim.scheduler import SimulationError

    sim = SimState(cookbook)
    sim.run_until(5_000_000)
    with pytest.raises(SimulationError):
        sim.boot()


def test_first_three_events(cookbook):
    sim = booted(cookbook)
    assert events(sim.run_until(500_000)) == [
        (0, "SLOT_START", 0),
        (400_000, "SLOT_END", 0),
        (500_000, "SLOT_START", 1),
    ]


def test_frame_wrap_at_every_frame_boundary(cookbook):
    sim = booted(cookbook)
    sim.run_until(3_000_000)  # fast-forwards: the trace holds copied wraps
    wraps = [t for t, _, _ in events(sim.trace, "FRAME_WRAP")]
    assert wraps == [1_000_000, 2_000_000, 3_000_000]


def test_step_on_empty_queue(cookbook):
    """Before boot the event queue is empty: running applies nothing."""
    sim = SimState(cookbook)
    assert sim.run_until(3_000_000) == []
    assert sim.now == 3_000_000


def offline_events(cfg, frames):
    """Independent construction of every scheduler event for N complete
    frames, sorted by the documented total order."""
    frame = cfg.plan.major_frame
    expected = []
    for k in range(frames):
        for s in cfg.plan.slots:
            expected.append((k * frame + s.start, "SLOT_START", s.partition_id))
            expected.append((k * frame + s.end, "SLOT_END", s.partition_id))
    for k in range(1, frames):
        expected.append((k * frame, "FRAME_WRAP", -1))
    expected.sort(key=lambda e: (e[0], RANK[e[1]], e[2]))
    return expected


def test_event_order_matches_offline_sort(cookbook):
    sim = booted(cookbook)
    sim.run_until(5 * 1_000_000 - 1)
    assert events(sim.trace) == offline_events(cookbook, 5)


def test_boot_is_deterministic(cookbook):
    traces = []
    for _ in range(2):
        sim = booted(cookbook)
        sim.run_until(10_000_000)
        traces.append(format_trace(sim.trace))
    assert traces[0] == traces[1]


def test_run_until_time_zero(cookbook):
    sim = booted(cookbook)
    records = sim.run_until(0)
    assert sim.now == 0
    assert all(r.time == 0 for r in records)


def test_run_until_rejects_backwards(cookbook):
    sim = booted(cookbook)
    sim.run_until(500)
    from partsim.scheduler import SimulationError

    with pytest.raises(SimulationError):
        sim.run_until(100)


def active_intervals(records):
    opens = {}
    intervals = []
    for r in records:
        if isinstance(r, EventRecord):
            if r.kind == "SLOT_START":
                opens[r.partition] = r.time
            elif r.kind == "SLOT_END":
                intervals.append((opens.pop(r.partition), r.time, r.partition))
    return intervals


def test_active_time_conformance(cookbook):
    frames = 10
    sim = booted(cookbook)
    sim.run_until(frames * 1_000_000 - 1)
    totals = {}
    for start, end, pid in active_intervals(sim.trace):
        totals[pid] = totals.get(pid, 0) + (end - start)
    assert totals == {0: frames * 400_000, 1: frames * 400_000}


def test_partition_with_two_slots(cookbook):
    two_slot = parse_config(COOKBOOK_XML.replace(
        '<Slot id="1" partition="1" start="500us" duration="400us"/>',
        '<Slot id="1" partition="1" start="500us" duration="200us"/>'
        '<Slot id="2" partition="0" start="750us" duration="150us"/>',
    ))
    frames = 4
    sim = booted(two_slot)
    sim.run_until(frames * 1_000_000 - 1)
    totals = {}
    for start, end, pid in active_intervals(sim.trace):
        totals[pid] = totals.get(pid, 0) + (end - start)
    assert totals == {0: frames * (400_000 + 150_000), 1: frames * 200_000}


def test_exclusivity_on_random_plans():
    rng = random.Random(424242)
    for _ in range(20):
        frame = 1_000_000
        cuts = sorted(rng.sample(range(1, frame), 6))
        slots = tuple(
            ScheduleSlot(slot_id=i, partition_id=i, start=cuts[2 * i],
                         duration=cuts[2 * i + 1] - cuts[2 * i])
            for i in range(3)
        )
        cfg = SystemConfig(
            partitions=tuple(PartitionSpec(id=i, name=f"p{i}") for i in range(3)),
            plan=SchedulePlan(major_frame=frame, slots=slots),
        )
        sim = booted(cfg)
        sim.run_until(5 * frame - 1)
        intervals = sorted(active_intervals(sim.trace))
        for (s1, e1, _), (s2, e2, _) in zip(intervals, intervals[1:]):
            assert e1 <= s2, "active intervals must be pairwise disjoint"


# -- partition lifecycle -----------------------------------------------------


def _repeat(lines, pid):
    from partsim.workload import ScriptMode

    return parse_script(lines, pid, ScriptMode.REPEAT_EACH_SLOT)


def test_halted_partition_dispatches_nothing(cookbook):
    scripts = {0: _repeat(["compute 10us", "mark work"], 0)}
    sim = booted(cookbook, scripts)
    sim.run_until(1_999_999)  # two frames of work
    marks_before = len([r for r in sim.trace if getattr(r, "label", None) == "work"])
    assert marks_before == 2
    sim.halt_partition(0)
    sim.run_until(9_999_999)
    marks_after = len([r for r in sim.trace if getattr(r, "label", None) == "work"])
    assert marks_after == marks_before
    # the halted partition's slots still elapse, just idle
    starts = [e for e in events(sim.trace, "SLOT_START") if e[2] == 0]
    assert len(starts) == 10


def test_illegal_transitions(cookbook):
    """The lifecycle only moves forward: a suspend applies only to a NORMAL
    partition, and nothing leaves HALTED."""
    sim = SimState(cookbook)
    sim.suspend_if_normal(0)  # BOOT -> SUSPENDED is not a transition
    assert sim.partition_states[0] is PartitionState.BOOT and list(sim.trace) == []
    sim.boot()
    sim.suspend_if_normal(0)
    sim.suspend_if_normal(0)  # already suspended
    sim.halt_partition(0)
    sim.halt_partition(0)  # halting a halted partition changes nothing
    sim.suspend_if_normal(0)
    assert sim.partition_states[0] is PartitionState.HALTED
    assert [(r.partition, r.old, r.new) for r in sim.trace if type(r) is StateRecord] == [
        (0, "BOOT", "NORMAL"), (1, "BOOT", "NORMAL"),
        (0, "NORMAL", "SUSPENDED"), (0, "SUSPENDED", "HALTED"),
    ]


def test_halting_one_partition_leaves_other_untouched(cookbook):
    scripts = {
        0: _repeat(["compute 10us", "mark p0"], 0),
        1: _repeat(["compute 20us", "mark p1"], 1),
    }
    faulty = booted(cookbook, scripts)
    faulty.run_until(999_999)
    faulty.halt_partition(0)
    faulty.run_until(10_000_000 - 1)

    clean = booted(cookbook, scripts)
    clean.run_until(10_000_000 - 1)

    assert format_trace(partition_records(faulty.trace, 1)) == format_trace(
        partition_records(clean.trace, 1)
    )


def test_boot_leaves_prehalted_partition_halted(cookbook):
    scripts = {0: _repeat(["compute 10us", "mark work"], 0)}
    sim = SimState(cookbook, scripts=scripts)
    sim.halt_partition(0)  # any -> HALTED, even BOOT
    sim.boot()
    assert sim.partition_states[0] is PartitionState.HALTED
    assert sim.partition_states[1] is PartitionState.NORMAL
    sim.run_until(2_000_000)
    assert [r for r in sim.trace if getattr(r, "label", None) == "work"] == []


def test_suspend_cancels_inflight_actions(cookbook):
    scripts = {0: _repeat(["compute 50us", "mark late"], 0)}
    sim = booted(cookbook, scripts)
    # the mark is scheduled for t=50us; suspend at its slot start
    sim.run_until(0)
    sim.suspend_if_normal(0)
    sim.run_until(999_999)
    assert [r for r in sim.trace if getattr(r, "label", None) == "late"] == []


# -- run_until splits anywhere ------------------------------------------------


def cookbook_sim():
    sc = load_scenario(SCENARIO_DIR / "cookbook.scn")
    scripts = {pid: s.bind_payload(sc.payload_sizes[0]) for pid, s in sc.scripts.items()}
    return SimState(sc.system, scripts=scripts, health_table=sc.health_table)


def overrun_sim(health_table=None):
    scripts = {
        0: _repeat(["compute 450us", "send out 8", "mark tx"], 0),
        1: _repeat(["recv in", "mark rx", "compute 50us"], 1),
    }
    return SimState(parse_config(COOKBOOK_XML), scripts=scripts, health_table=health_table)


def ring_sim(n=6):
    """n partitions, channel i -> i+1 alternating queuing/sampling; the
    last slot ends at the frame boundary and partition 2 overruns."""
    spacing, frame = 100_000, n * 100_000
    partitions = "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n))
    slots = "".join(
        f'<Slot id="{i}" partition="{i}" start="{i * spacing}ns" '
        f'duration="{spacing if i == n - 1 else 80_000}ns"/>' for i in range(n)
    )
    channels = []
    for j in range(n):
        ends = f'<Source partition="{j}" port="out"/><Destination partition="{(j + 1) % n}" port="in"/>'
        if j % 2 == 0:
            channels.append(f'<QueuingChannel maxMessageSize="64" maxNoMessages="2">{ends}</QueuingChannel>')
        else:
            channels.append(f'<SamplingChannel maxMessageSize="64" refreshPeriod="{frame}ns">{ends}</SamplingChannel>')
    cfg = parse_config(
        f'<SystemDescription majorFrame="{frame}ns"><PartitionTable>{partitions}</PartitionTable>'
        f'<Schedule>{slots}</Schedule><Channels>{"".join(channels)}</Channels>'
        f'<Hypervisor copyCostFixed="3us" copyCostPerByte="1ns"/></SystemDescription>'
    )
    scripts = {}
    for i in range(n):
        receive = "recv" if (i - 1) % n % 2 == 0 else "read"
        compute = "95us" if i == 2 else f"{10 + i}us"
        scripts[i] = _repeat([f"compute {compute}", "send out 16", "mark tx",
                              f"{receive} in", "mark rx"], i)
    return SimState(cfg, scripts=scripts)


def long_compute_sim():
    """A compute that spans three slots: its carry differs at two frame
    wraps where its cursor index is the same."""
    scripts = {0: _repeat(["compute 1100us", "mark tx"], 0), 1: _repeat(["mark beat"], 1)}
    return SimState(parse_config(COOKBOOK_XML), scripts=scripts)


def halting_sim():
    table = HealthTable()
    table.set_default(HmKind.SLOT_OVERRUN, HealthAction.HALT_SYSTEM)
    return overrun_sim(table)


def test_run_until_composes(cookbook):
    """Running to t_end in pieces appends the same records as one call;
    each call returns the records it built."""
    split = booted(cookbook)
    boot_records = list(split.trace)
    pieces = [split.run_until(1_700_000), split.run_until(4_300_000)]
    whole = booted(cookbook)
    whole.run_until(4_300_000)
    assert format_trace(split.trace) == format_trace(whole.trace)
    assert boot_records + pieces[0] + pieces[1] == split.trace.built
    assert split.now == whole.now == 4_300_000


def engine_state(sim):
    """The engine state a later run_until depends on, plus the event
    numbering; heap entries are compared without their tie-break."""
    ports = sim.ports
    return (
        sim.now, sim.halted, dict(sim.partition_states), dict(sim._epoch),
        {pid: (c.index, c.carry) for pid, c in sim.cursors.items()},
        [vars(ports.state(i)) for i in range(len(sim.config.channels))],
        dict(sim._record_seq),
        sorted((time, rank, pid, payload) for time, rank, pid, _, payload in sim._heap),
    )


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts the planner calls, the engine's unit of simulated work."""
    calls = [0]
    plan = workload.plan_until_next_action

    def counted(*args):
        calls[0] += 1
        return plan(*args)

    monkeypatch.setattr(workload, "plan_until_next_action", counted)
    return calls


@pytest.mark.parametrize("make, cuts", [
    (cookbook_sim, (0, 500_000, 2_000_000)),
    (overrun_sim, (400_000, 1_234_567, 40_345_678)),
    (ring_sim, (600_000, 2_345_678, 41 * 600_000 + 234_567)),
    (long_compute_sim, (1_000_000, 40_500_000)),
    (halting_sim, (399_999, 400_000, 5_000_000)),
], ids=["cookbook", "repeat_overrun", "ring", "long_compute", "halt_system"])
def test_step_loop_matches_run_until(make, cuts, plan_calls):
    """Stepping run_until through every event instant, and through cuts
    between instants, appends the same records as one call to t_end and
    ends in the same state.  The steps are too short for the engine to
    fast-forward; the one call does so on the three long periodic runs."""
    t_end = cuts[-1]
    whole = make().boot()
    whole.run_until(t_end)
    whole_plans, plan_calls[0] = plan_calls[0], 0
    stepped = make().boot()
    records = list(stepped.trace)
    for t in sorted({r.time for r in whole.trace} | set(cuts)):
        piece = stepped.run_until(t)
        assert {r.time for r in piece} <= {t}
        records += piece
    assert format_trace(stepped.trace) == format_trace(whole.trace)
    assert records == list(stepped.trace) and not stepped.trace.repeats
    assert stepped.now == whole.now == t_end
    assert engine_state(stepped) == engine_state(whole)
    kinds = {kind for _, kind, _ in events(whole.trace)}
    if make is halting_sim:
        # the first overrun halts the system at its slot end, 400 us
        assert whole.halted and kinds == {"SLOT_START", "SLOT_END", "HM_EVENT"}
        assert max(r.time for r in whole.trace) == 400_000
        assert whole.run_until(10 * t_end) == []
    else:
        assert not whole.halted
        assert {"SLOT_START", "SLOT_END", "FRAME_WRAP", "APP_ACTION"} <= kinds
    if make in (overrun_sim, ring_sim, long_compute_sim):
        assert whole_plans * 4 < plan_calls[0]


@st.composite
def queue_systems(draw):
    """A valid 1-4-partition system: slots of 20 ticks a frame, some back
    to back, or one slot that fills the frame; a queuing ring between the
    partitions; scripts that overrun their slots and call ports they do
    not own; random health actions, HALT_SYSTEM among them.  Returns
    (config, scripts, health table, run_until cut points within 60 frames)."""
    n, tick = draw(st.integers(1, 4)), draw(st.integers(1_000, 20_000))
    frame, slots, t = 20 * tick, [], 0
    if draw(st.booleans()):
        slots.append((draw(st.integers(0, n - 1)), 0, frame))
    else:
        for gap, length in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)),
                                         min_size=1, max_size=6)):
            if t + (gap + length) * tick <= frame:
                t += gap * tick
                slots.append((draw(st.integers(0, n - 1)), t, length * tick))
                t += length * tick
    channels = "".join(
        f'<QueuingChannel maxMessageSize="64" maxNoMessages="{draw(st.integers(1, 3))}">'
        f'<Source partition="{i}" port="out"/><Destination partition="{(i + 1) % n}" port="in"/>'
        f'</QueuingChannel>' for i in range(n) if n > 1)
    cfg = parse_config(
        f'<SystemDescription majorFrame="{frame}ns"><PartitionTable>'
        + "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n))
        + "</PartitionTable><Schedule>"
        + "".join(f'<Slot id="{k}" partition="{pid}" start="{start}ns" duration="{length}ns"/>'
                  for k, (pid, start, length) in enumerate(slots))
        + f"</Schedule><Channels>{channels}</Channels></SystemDescription>"
    )
    assert not validate(cfg)
    actions = st.one_of(
        st.integers(1, 2 * frame // 3).map(lambda d: f"compute {d}ns"),  # may overrun its slot
        st.sampled_from(["send out 8", "recv in", "mark m", "send in 8"]),  # "send in": a violation
    )
    scripts = {i: parse_script(draw(st.lists(actions, min_size=1, max_size=5)), i,
                               draw(st.sampled_from(workload.ScriptMode)))
               for i in range(n)}
    table = HealthTable()
    for kind in HmKind:
        table.set_default(kind, draw(st.sampled_from(HealthAction)))
    if draw(st.booleans()):
        table.set_default(draw(st.sampled_from(HmKind)), HealthAction.HALT_SYSTEM)
    cuts = sorted(draw(st.lists(st.integers(1, 60 * frame), min_size=1, max_size=8)))
    return cfg, scripts, table, cuts


SCHEDULE_RANKS = {RANK["SLOT_START"], RANK["SLOT_END"], RANK["FRAME_WRAP"]}


def test_one_queue_holds_at_most_one_frame_of_the_schedule():
    """After boot and after each run_until, nothing queued is due, the
    queue holds at most one frame of schedule events (2 per slot and the
    wrap) besides the dynamic ones, and after a halt it is empty and the
    run adds no record.  The cut run's trace is that of one call.  Across
    the examples the plans have back-to-back slots and a slot that fills
    the frame, and the runs overrun, violate, fast-forward and halt."""
    seen = set()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(queue_systems())
    def check(system):
        cfg, scripts, table, cuts = system
        sim = SimState(cfg, scripts=scripts, health_table=table).boot()
        most = 2 * len(cfg.plan.slots) + 1
        for t in [0] + cuts:
            sim.run_until(t)
            assert all(time > t for time, *_ in sim._heap)
            assert sum(rank in SCHEDULE_RANKS for _, rank, *_ in sim._heap) <= most
            if sim.halted:
                assert not sim._heap
                built = len(sim.trace.built)
                assert sim.run_until(t + 100 * cfg.plan.major_frame) == []
                assert len(sim.trace.built) == built and not sim._heap
                seen.add("halt")
                break
        whole = SimState(cfg, scripts=scripts, health_table=table).boot()
        whole.run_until(sim.now)
        assert format_trace(whole.trace) == format_trace(sim.trace)
        slots = cfg.plan.slots
        if any(a.end == b.start for a, b in zip(slots, slots[1:])):
            seen.add("back to back")
        if slots[0].duration == cfg.plan.major_frame:
            seen.add("fills the frame")
        if sim.trace.repeats:
            seen.add("repeat")
        seen.update(r.kind for r in sim.trace.built if type(r) is HmRecord)

    check()
    assert seen == {"back to back", "fills the frame", "repeat", "halt",
                    "SLOT_OVERRUN", "MEMORY_VIOLATION"}


# -- periodic fast-forward ----------------------------------------------------

HEALTH_ACTIONS = tuple(HealthAction)


class _Draws:
    """What ``ring_system`` draws, drawn by Hypothesis."""

    def __init__(self, draw):
        self.draw = draw

    def randint(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def coin(self):
        return self.draw(st.booleans())

    def lines(self, kinds):
        """1-6 script lines, each one of ``kinds``: a line, or a ``(lo, hi,
        form)`` whose ``{}`` takes a number from lo to hi."""
        return self.draw(st.lists(st.one_of(
            [st.just(k) if type(k) is str else st.integers(k[0], k[1]).map(k[2].format)
             for k in kinds]), min_size=1, max_size=6))


class _Seeded(random.Random):
    """What ``ring_system`` draws, drawn by a seeded ``random.Random``."""

    def coin(self):
        return self.random() < 0.5

    def lines(self, kinds):
        picked = [self.choice(kinds) for _ in range(self.randint(1, 6))]
        return [k if type(k) is str else k[2].format(self.randint(k[0], k[1])) for k in picked]


def ring_system(rng, steady=None):
    """A 2-5-partition ring, channel i -> i+1 of a random kind, with random
    slots, scripts, copy cost and health table, and a t_end of 2-40 frames
    that mostly ends in mid-frame, drawn by ``rng`` (``_Draws`` or
    ``_Seeded``); steady as ``steady`` says, or drawn when it is None.
    Returns (make, frame, t_end, steady)."""
    n = rng.randint(2, 5)
    spacing = 100_000
    frame = n * spacing
    partitions = "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n))
    durations = [rng.randint(20_000, spacing) for _ in range(n)]
    slots = "".join(
        f'<Slot id="{i}" partition="{i}" start="{i * spacing}ns" duration="{d}ns"/>'
        for i, d in enumerate(durations)
    )
    queuing = [rng.coin() for _ in range(n)]
    channels = []
    for j in range(n):
        ends = (f'<Source partition="{j}" port="out"/>'
                f'<Destination partition="{(j + 1) % n}" port="in"/>')
        if queuing[j]:
            capacity = rng.randint(1, 3)
            channels.append(f'<QueuingChannel maxMessageSize="64" maxNoMessages="{capacity}">'
                            f'{ends}</QueuingChannel>')
        else:
            refresh = rng.choice([spacing // 10, frame, 2 * frame])
            channels.append(f'<SamplingChannel maxMessageSize="64" refreshPeriod="{refresh}ns">'
                            f'{ends}</SamplingChannel>')
    fixed, per_byte = rng.randint(0, 30_000), rng.randint(0, 200)
    cfg = parse_config(
        f'<SystemDescription majorFrame="{frame}ns"><PartitionTable>{partitions}</PartitionTable>'
        f'<Schedule>{slots}</Schedule><Channels>{"".join(channels)}</Channels>'
        f'<Hypervisor copyCostFixed="{fixed}ns" copyCostPerByte="{per_byte}ns"/></SystemDescription>'
    )
    # a steady system repeats each pass, drains its input port every pass
    # and only logs overruns, so it almost always settles into a cycle of a
    # few frames; the others also suspend and halt, and may run one pass
    if steady is None:
        steady = rng.coin()
    scripts = {}
    for i in range(n):
        receive = "recv in" if queuing[(i - 1) % n] else "read in"
        lines = rng.lines([(1_000, 3 * spacing // 2, "compute {}ns"),
                           (1, 70, "send out {}"),  # > 64 is TOO_LARGE
                           receive, f"mark m{i}"]) + [receive]
        if not steady and rng.coin():  # a port the partition does not own
            lines.insert(rng.randint(0, len(lines)), "send in 8")
        mode = workload.ScriptMode.REPEAT_EACH_SLOT
        if not steady:
            mode = rng.choice(list(workload.ScriptMode))
        scripts[i] = parse_script(lines, i, mode)
    table = HealthTable()
    if not steady:  # partition i's violations get action (i + turn) mod 4
        turn = rng.randint(0, len(HEALTH_ACTIONS) - 1)
        for i in range(n):
            action = HEALTH_ACTIONS[(i + turn) % len(HEALTH_ACTIONS)]
            table.set_override(HmKind.MEMORY_VIOLATION, i, action)
            table.set_override(HmKind.SLOT_OVERRUN, i, rng.choice(HEALTH_ACTIONS))
    frames = 40 if steady else rng.choice([2, 5, 20, 40])
    t_end = frames * frame + rng.choice([0, 1, frame // 2, frame - 1])
    return (lambda: SimState(cfg, scripts=scripts, health_table=table)), frame, t_end, steady


@st.composite
def random_systems(draw):
    """``ring_system`` drawn by Hypothesis."""
    return ring_system(_Draws(draw))


# the seeds of the steady systems whose fast-forward the test counts, and
# of the systems whose coverage it counts: fixed lists, so neither count
# moves with the examples Hypothesis draws
STEADY_SEEDS = range(20)
COVERAGE_SEEDS = range(40)


def test_fast_forward_matches_frame_by_frame_runs(plan_calls, tmp_path):
    """One run_until to t_end, which may fast-forward, appends the same
    records and ends in the same state as one run_until per frame, which
    never can: the trace's iteration and its file are those of the framed
    run's built records.  This holds on Hypothesis's examples and on the
    systems of ``COVERAGE_SEEDS``, which between them reach every port
    result, overrun carries and every memory-violation action.  The one
    call skips planner work, and builds fewer records, on at least 3 in 4
    of the steady systems of ``STEADY_SEEDS``.  Both seed lists give the
    same systems whichever examples Hypothesis draws, so neither count
    moves with a literal in a loaded module."""
    seen = set()
    path = tmp_path / "t.trace"

    def compare(system):
        """The framed run, and whether the one call skipped planner work
        and built fewer records."""
        make, frame, t_end, steady = system
        plan_calls[0] = 0
        whole = make().boot()
        whole.run_until(t_end)
        whole_plans, plan_calls[0] = plan_calls[0], 0
        framed = make().boot()
        for t in range(frame, t_end, frame):
            framed.run_until(t)
        framed.run_until(t_end)
        assert not framed.trace.repeats
        assert list(whole.trace) == framed.trace.built
        assert whole.trace.record_count() == framed.trace.record_count()
        write_trace(whole.trace, path)
        assert path.read_bytes() == format_trace(framed.trace.built).encode()
        assert engine_state(whole) == engine_state(framed)
        assert whole_plans <= plan_calls[0]
        return framed, (whole_plans < plan_calls[0]
                        and len(whole.trace.built) < len(framed.trace.built))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(random_systems())
    def check(system):
        compare(system)

    check()
    for seed in COVERAGE_SEEDS:
        framed, _ = compare(ring_system(_Seeded(seed)))
        for r in framed.trace:
            if type(r) is PortOpRecord:
                seen.add(r.result)
            elif type(r) is HmRecord:
                seen.add((r.kind, r.action))
        if any(c.carry for c in framed.cursors.values()):
            seen.add("carry")
    assert {"OK", "STALE", "FULL", "EMPTY", "carry"} <= seen
    assert {("MEMORY_VIOLATION", a.value) for a in HEALTH_ACTIONS} <= seen
    assert ("SLOT_OVERRUN", "LOG") in seen
    skipped = [compare(ring_system(_Seeded(seed), steady=True))[1] for seed in STEADY_SEEDS]
    assert len(skipped) >= 10 and sum(skipped) * 4 >= len(skipped) * 3, skipped


def test_trace_file_writes_percent_signs_verbatim(cookbook, tmp_path):
    scripts = {0: _repeat(["compute 10us", "mark 100%d"], 0), 1: _repeat(["mark %s%%"], 1)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(20_500_000)
    assert sim.trace.repeats
    write_trace(sim.trace, tmp_path / "t.trace")
    text = (tmp_path / "t.trace").read_text()
    assert text == format_trace(sim.trace) and text.count("100%d") == 21


@pytest.mark.parametrize("make, steps", [
    (ring_sim, (41 * 600_000 + 234_567, 400 * 600_000 + 1, 2_500 * 600_000 + 77)),
    (overrun_sim, (40_345_678, 400_500_000, 1_234_567_890)),
    (long_compute_sim, (40_500_000, 600_000_000, 1_500_250_000)),
], ids=["ring", "repeat_overrun", "long_compute"])
def test_trace_file_of_several_repeats(make, steps, tmp_path):
    """A run stepped past its cycle in several long calls keeps one repeat
    descriptor per call, with the records built between them, and its
    partitions advance their ``seq`` by different gains: the file holds
    the bytes of the records as the trace iterates them."""
    sim = make().boot()
    for t in steps:
        sim.run_until(t)
    repeats = sim.trace.repeats
    ends = [end for _, end, *_ in repeats]
    assert len(repeats) == len(steps) and ends == sorted(set(ends))
    assert all(len(set(gain.values())) > 1 for *_, gain in repeats)
    if make is ring_sim:
        assert sum(periods for _, _, periods, *_ in repeats) >= 1_000
    write_trace(sim.trace, tmp_path / "t.trace")
    assert (tmp_path / "t.trace").read_bytes() == format_trace(sim.trace).encode()


def test_trace_file_is_written_one_copy_at_a_time(tmp_path):
    """Writing 2,000 copies of a period holds about one copy's text at a
    time, not the file's: the peak allows for the template's fields, each
    an arithmetic progression, and the file buffer."""
    sim = ring_sim().boot()
    sim.run_until(4_100 * 600_000 + 77)
    (start, end, periods, *rest), = sim.trace.repeats
    copy = len(format_trace(sim.trace.built[start:end]))
    assert periods >= 2_000
    tracemalloc.start()
    try:
        write_trace(sim.trace, tmp_path / "t.trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.trace").stat().st_size > periods * copy
    # CPython 3.11 peaks near 10.7, set by formatting the chunk of built
    # records before the copies; the 8 KiB file buffer is 3 of it
    assert peak < 20 * copy
    # the copy path on its own peaks near 8.6 copies on CPython 3.11, the
    # file buffer included; 2.4 copies of margin
    period = sim.trace.built[start:end]
    tracemalloc.start()
    try:
        with open(tmp_path / "c.trace", "wb") as fh:
            tracemalloc.reset_peak()
            fh.writelines(_copy_lines(period, periods, *rest))
            copy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copy_peak < 11 * copy


def test_built_records_are_written_in_bounded_chunks(tmp_path):
    """200,000 built records and no repeat: the write holds a bounded chunk
    of the text at a time, not all of it (4.7 MB here)."""
    trace = PeriodicTrace()
    for i in range(100_000):
        trace.append(EventRecord(i * 1_000, "SLOT_START", i % 4, i))
        trace.append(MarkRecord(i * 1_000 + 500, i % 4, "tx"))
    path = tmp_path / "t.trace"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == format_trace(trace).encode("ascii")
    assert path.stat().st_size > 4_000_000
    assert peak < 2_000_000


def test_the_first_record_is_taken_without_a_copy():
    """Iterating a trace yields its built records without copying their
    list: the first record of 200,000 costs a small constant amount, not
    a copy of 200,000 references (1.6 MB)."""
    trace = PeriodicTrace()
    for i in range(200_000):
        trace.append(EventRecord(i * 1_000, "SLOT_START", i % 4, i))
    tracemalloc.start()
    try:
        first = next(iter(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first is trace.built[0]
    assert peak < 10_000


def write_only_sampling_sim(n=3):
    """n partitions, each writing its sampling channel to the next in
    every slot, with a copy cost; no partition ever reads."""
    spacing = 100_000
    partitions = "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n))
    slots = "".join(f'<Slot id="{i}" partition="{i}" start="{i * spacing}ns" duration="80000ns"/>'
                    for i in range(n))
    channels = "".join(
        f'<SamplingChannel maxMessageSize="64" refreshPeriod="{spacing}ns">'
        f'<Source partition="{i}" port="out"/><Destination partition="{(i + 1) % n}" port="in"/>'
        f'</SamplingChannel>' for i in range(n)
    )
    cfg = parse_config(
        f'<SystemDescription majorFrame="{n * spacing}ns"><PartitionTable>{partitions}'
        f'</PartitionTable><Schedule>{slots}</Schedule><Channels>{channels}</Channels>'
        f'<Hypervisor copyCostFixed="3us" copyCostPerByte="1ns"/></SystemDescription>'
    )
    scripts = {i: _repeat(["compute 10us", "send out 16", "mark w", "compute 70us",
                           "send out 8"], i) for i in range(n)}
    return SimState(cfg, scripts=scripts)


def test_write_only_sampling_channel_keeps_one_visible_message(plan_calls):
    """A sampling channel that is written in every slot and never read
    holds the newest visible message and the pending ones, not every
    message; so the run repeats and fast-forwards, to the same trace."""
    frames, frame = 200, 300_000
    whole = write_only_sampling_sim().boot()
    whole.run_until(frames * frame)
    whole_plans, plan_calls[0] = plan_calls[0], 0
    framed = write_only_sampling_sim().boot()
    for t in range(frame // 2, frames * frame + 1, frame // 2):
        framed.run_until(t)
        for index in range(3):
            # as of its last write, a channel holds one visible message at most
            held = framed.ports.state(index).held
            last = max((m.written_at for m, _ in held), default=0)
            assert sum(1 for _, visible in held if visible <= last) <= 1
            assert len(held) <= 2  # the writes lie further apart than the copy cost
    assert format_trace(whole.trace) == format_trace(framed.trace)
    assert engine_state(whole) == engine_state(framed)
    actions = sum(len(s.actions) for s in whole.scripts.values())
    assert whole_plans * 4 < plan_calls[0] and whole_plans < frames * actions
