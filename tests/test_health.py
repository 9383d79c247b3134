"""Health monitor: detection, action resolution, isolation under faults."""

from hypothesis import given, strategies as st

from partsim.config import PartitionSpec, SchedulePlan, ScheduleSlot, SystemConfig
from partsim.health import DEFAULT_ACTIONS, HealthAction, HmKind, raise_event
from partsim.scheduler import PartitionState, SimState
from partsim.trace import EventRecord, HmRecord
from partsim.workload import (
    AppCursor,
    PendingAction,
    PendingOverrun,
    ScriptMode,
    parse_script,
    plan_until_next_action,
)

from conftest import partition_records
from refmodels import format_trace


def hm_actions(sim):
    """(kind, partition, action) of each HM line of ``sim``'s trace."""
    return [(r.kind, r.partition, r.action) for r in sim.trace if isinstance(r, HmRecord)]


def test_default_table_covers_every_kind(cookbook):
    assert DEFAULT_ACTIONS == {(HmKind.SLOT_OVERRUN, None): HealthAction.LOG,
                               (HmKind.MEMORY_VIOLATION, None): HealthAction.SUSPEND_PARTITION}
    sim = SimState(cookbook).boot()
    raise_event(sim, HmKind.SLOT_OVERRUN, 1, "3")
    raise_event(sim, HmKind.MEMORY_VIOLATION, 0, "SEND in")
    assert hm_actions(sim) == [("SLOT_OVERRUN", 1, "LOG"),
                               ("MEMORY_VIOLATION", 0, "SUSPEND_PARTITION")]


def test_override_beats_default(cookbook):
    table = {**DEFAULT_ACTIONS, (HmKind.MEMORY_VIOLATION, 1): HealthAction.HALT_PARTITION}
    sim = SimState(cookbook, health_table=table).boot()
    raise_event(sim, HmKind.MEMORY_VIOLATION, 1, "SEND out")
    raise_event(sim, HmKind.MEMORY_VIOLATION, 0, "SEND in")
    assert hm_actions(sim) == [("MEMORY_VIOLATION", 1, "HALT_PARTITION"),
                               ("MEMORY_VIOLATION", 0, "SUSPEND_PARTITION")]
    assert sim.partition_states == {0: PartitionState.SUSPENDED, 1: PartitionState.HALTED}


def check_overrun(demanded, remaining, start):
    """The planner reports an overrun exactly when a COMPUTE demands more
    than is left of the slot, and the engine carries the difference over."""
    script = parse_script([f"compute {demanded}ns", "mark done"], 0)
    cursor = AppCursor()
    plan = plan_until_next_action(script, cursor, start, start + remaining)
    if demanded > remaining:
        expected = PendingOverrun(demanded=demanded, remaining=remaining)
        assert cursor.index == 0
    else:  # the compute completes; on an exact fit its mark waits a slot
        assert cursor.index == 1
        expected = PendingAction(time=start + demanded, index=1) if demanded < remaining else None
    # plans are tuples, equal across kinds when their fields are: compare kinds too
    assert (type(plan), plan) == (type(expected), expected)

    # one partition whose slot is ``remaining`` long, in a frame twice that
    cfg = SystemConfig(
        partitions=(PartitionSpec(id=0, name="p0"),),
        plan=SchedulePlan(major_frame=2 * remaining, slots=(
            ScheduleSlot(slot_id=0, partition_id=0, start=0, duration=remaining),)),
    )
    sim = SimState(cfg, scripts={0: script}).boot()
    sim.run_until(remaining)
    hm = [(r.time, r.kind, r.detail) for r in sim.trace if isinstance(r, HmRecord)]
    if demanded > remaining:
        assert hm == [(remaining, "SLOT_OVERRUN", str(demanded - remaining))]
        assert sim.cursors[0].carry == demanded - remaining
    else:
        assert hm == [] and sim.cursors[0].carry == 0


def test_detect_overrun_examples():
    check_overrun(demanded=450_000, remaining=400_000, start=0)  # 50 us over
    check_overrun(demanded=400_000, remaining=400_000, start=0)  # an exact fit is legal


@given(
    demanded=st.integers(min_value=0, max_value=10**9),
    remaining=st.integers(min_value=1, max_value=10**9),
    start=st.integers(min_value=0, max_value=10**9),
)
def test_detect_overrun_property(demanded, remaining, start):
    check_overrun(demanded, remaining, start)


def test_log_action_changes_no_state(cookbook):
    sim = SimState(cookbook).boot()
    states_before = dict(sim.partition_states)
    raise_event(sim, HmKind.SLOT_OVERRUN, 0, "7")
    hm_events = [r for r in sim.trace if isinstance(r, EventRecord) and r.kind == "HM_EVENT"]
    hm_records = [r for r in sim.trace if isinstance(r, HmRecord)]
    assert len(hm_events) == 1 and len(hm_records) == 1
    assert hm_records[0].action == "LOG"
    assert sim.partition_states == states_before


def test_every_event_appears_once_with_action(cookbook):
    sim = SimState(cookbook).boot()
    raise_event(sim, HmKind.SLOT_OVERRUN, 1, "3")
    raise_event(sim, HmKind.MEMORY_VIOLATION, 1, "SEND out")
    hm_lines = [r for r in sim.trace if isinstance(r, HmRecord)]
    assert [(r.kind, r.action, r.detail) for r in hm_lines] == [
        ("SLOT_OVERRUN", "LOG", "3"),
        ("MEMORY_VIOLATION", "SUSPEND_PARTITION", "SEND out"),
    ]


def test_halt_system_ends_run(cookbook):
    table = {**DEFAULT_ACTIONS, (HmKind.MEMORY_VIOLATION, None): HealthAction.HALT_SYSTEM}
    sim = SimState(cookbook, health_table=table).boot()
    sim.run_until(250_000)
    raise_event(sim, HmKind.MEMORY_VIOLATION, 0, "SEND out")
    assert sim.halted
    sim.run_until(10_000_000)
    assert all(r.time <= 250_000 for r in sim.trace)


def test_overrun_halt_partition_isolates_other(cookbook):
    """A slot overrun mapped to HALT_PARTITION halts only its source; the
    other partition's projected trace is byte-identical to the clean run."""
    table = {**DEFAULT_ACTIONS, (HmKind.SLOT_OVERRUN, None): HealthAction.HALT_PARTITION}
    scripts = {
        0: parse_script(["compute 450us", "mark done"], 0),
        1: parse_script(["compute 20us", "mark beat"], 1, ScriptMode.REPEAT_EACH_SLOT),
    }
    faulty = SimState(cookbook, scripts=scripts, health_table=table).boot()
    faulty.run_until(10_000_000)
    assert faulty.partition_states[0] is PartitionState.HALTED
    assert [r for r in faulty.trace if getattr(r, "label", None) == "done"] == []

    clean_scripts = {
        0: parse_script(["compute 400us"], 0),  # same demand, no overrun
        1: scripts[1],
    }
    clean = SimState(cookbook, scripts=clean_scripts, health_table=table).boot()
    clean.run_until(10_000_000)
    assert format_trace(partition_records(faulty.trace, 1)) == format_trace(
        partition_records(clean.trace, 1)
    )


def test_memory_violation_suspends_writer(sampling_config):
    # partition 1 writing someone else's port is a spatial violation
    scripts = {1: parse_script(["send out 8", "mark after"], 1)}
    sim = SimState(sampling_config, scripts=scripts).boot()
    sim.run_until(2_000_000)
    assert sim.partition_states[1] is PartitionState.SUSPENDED
    hm = [r for r in sim.trace if isinstance(r, HmRecord)]
    # the engine builds the detail from the offending op and port
    assert format_trace(hm) == "500000,HM,MEMORY_VIOLATION,1,SUSPEND_PARTITION,SEND out\n"
    # the violation suspends before the same-time follow-up action runs
    assert [r for r in sim.trace if getattr(r, "label", None) == "after"] == []
