"""Script grammar and the slot-relative execution timeline."""

import pytest

from partsim.harness import parse_scenario
from partsim.scheduler import SimState
from partsim.trace import EventRecord, HmRecord, MarkRecord
from partsim.workload import (
    Compute,
    Mark,
    Read,
    Receive,
    ScriptError,
    ScriptMode,
    Send,
    parse_action,
    parse_script,
)

from conftest import make_cookbook_scenario
from refmodels import format_trace



def marks(sim, label=None):
    out = [r for r in sim.trace if isinstance(r, MarkRecord)]
    if label is not None:
        out = [r for r in out if r.label == label]
    return out


def test_action_grammar():
    # actions are tuples, so Receive("in") == Read("in"): compare kinds too
    for line, action in (("compute 100us", Compute(100_000)), ("send out 64", Send("out", 64)),
                         ("send out $payload", Send("out", None)), ("recv in", Receive("in")),
                         ("read in", Read("in")), ("mark tx", Mark("tx"))):
        parsed = parse_action(line)
        assert (type(parsed), parsed) == (type(action), action)
    for bad in ("jump 3", "compute", "send out", "mark"):
        with pytest.raises(ScriptError):
            parse_action(bad)
    # a send size is read as a positive integer, and the script names its partition
    with pytest.raises(ScriptError) as info:
        parse_script(["send out 0"], 3)
    assert str(info.value) == "partition 3: must be positive, got '0'"


def test_parse_script_skips_blanks_and_comments():
    # blank and comment lines between a script's actions are dropped with
    # every other blank and comment line, before the section is parsed
    plain = parse_scenario(make_cookbook_scenario())
    commented = parse_scenario(make_cookbook_scenario().replace(
        "compute 100us\n", "compute 100us\n\n# a comment\n   # an indented one\n  \n"))
    assert len(commented.scripts[0].actions) == 3
    assert commented.scripts == plain.scripts


def test_bind_payload():
    script = parse_script(["send out $payload", "send out 9"], 0)
    bound = script.bind_payload(1234)
    assert bound.actions == (Send("out", 1234), Send("out", 9))


def test_action_offsets(cookbook):
    scripts = {0: parse_script(["compute 100us", "send out 64", "mark tx"], 0)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(999_999)
    send = [r for r in sim.trace if getattr(r, "op", None) == "SEND"][0]
    assert send.time == 100_000
    assert marks(sim, "tx")[0].time == 100_000  # api_call_cost defaults to 0


def test_api_call_cost_shifts_following_actions(cookbook):
    scripts = {0: parse_script(["compute 100us", "send out 64", "mark tx"], 0)}
    sim = SimState(cookbook, scripts=scripts, api_call_cost=5_000).boot()
    sim.run_until(999_999)
    send = [r for r in sim.trace if getattr(r, "op", None) == "SEND"][0]
    assert send.time == 100_000  # the call itself happens at its offset
    assert marks(sim, "tx")[0].time == 105_000  # the mark pays for it


def test_overrun_truncates_and_carries(cookbook):
    scripts = {0: parse_script(["compute 450us", "mark done"], 0)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(2_000_000 - 1)
    hm = [r for r in sim.trace if isinstance(r, HmRecord)]
    assert len(hm) == 1
    assert hm[0].kind == "SLOT_OVERRUN" and hm[0].detail == "50000"
    assert hm[0].time == 400_000  # truncation happens at the slot end
    # the 50us remainder resumes at the next slot start
    assert marks(sim, "done")[0].time == 1_000_000 + 50_000


def test_multi_frame_drain(cookbook):
    scripts = {0: parse_script(["compute 1000us", "mark done"], 0)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(5_000_000)
    amounts = [r.detail for r in sim.trace if isinstance(r, HmRecord)]
    assert amounts == ["600000", "200000"]  # 1000-400, then 600-400, then fits
    assert marks(sim, "done")[0].time == 2_000_000 + 200_000


def test_exact_fit_is_legal(cookbook):
    scripts = {0: parse_script(["compute 400us", "mark fit"], 0)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(2_000_000 - 1)
    assert [r for r in sim.trace if isinstance(r, HmRecord)] == []
    # the mark no longer fits in the first slot and runs next frame
    assert marks(sim, "fit")[0].time == 1_000_000


def test_repeat_mode_restarts_each_slot(cookbook):
    scripts = {1: parse_script(["compute 10us", "mark tick"], 1, ScriptMode.REPEAT_EACH_SLOT)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(3_000_000 - 1)
    assert [m.time for m in marks(sim, "tick")] == [510_000, 1_510_000, 2_510_000]


def test_once_mode_runs_single_pass(cookbook):
    scripts = {1: parse_script(["compute 10us", "mark tick"], 1)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(3_000_000 - 1)
    assert len(marks(sim, "tick")) == 1


def test_app_actions_stay_inside_owning_slots(cookbook):
    scripts = {
        0: parse_script(["compute 50us", "send out 8", "compute 349us", "mark end0"], 0),
        1: parse_script(["recv in", "mark end1"], 1, ScriptMode.REPEAT_EACH_SLOT),
    }
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(10_000_000 - 1)
    by_pid = {0: (0, 400_000), 1: (500_000, 900_000)}
    frame = cookbook.plan.major_frame
    for r in sim.trace:
        if isinstance(r, EventRecord) and r.kind == "APP_ACTION":
            start, end = by_pid[r.partition]
            assert start <= (r.time % frame) < end


def test_compute_budget_bound(cookbook):
    frames = 7
    scripts = {0: parse_script(["compute 400us"] * 20, 0)}  # fully loaded
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(frames * 1_000_000 - 1)
    # cursor consumed exactly one slot's compute per frame
    assert sim.cursors[0].index == frames
    assert sim.cursors[0].carry == 0


def test_send_timestamp_is_dispatch_time(cookbook):
    scripts = {0: parse_script(["compute 123us", "send out 8"], 0)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(999_999)
    (held,) = sim.ports.snapshot(0)
    assert len(held) == 1
    assert held[0][1] == 123_000  # (size, written at, visible at)


def test_identical_runs_give_identical_marks(cookbook):
    scripts = {
        0: parse_script(["compute 100us", "send out 64", "mark tx"], 0),
        1: parse_script(["recv in", "mark rx"], 1),
    }
    runs = []
    for _ in range(2):
        sim = SimState(cookbook, scripts=scripts).boot()
        sim.run_until(2_000_000)
        runs.append(format_trace(sim.trace))
    assert runs[0] == runs[1]


def test_recv_empty_records_miss_and_proceeds(cookbook):
    scripts = {1: parse_script(["recv in", "mark after"], 1)}
    sim = SimState(cookbook, scripts=scripts).boot()
    sim.run_until(999_999)
    ops = [r for r in sim.trace if getattr(r, "op", None) == "RECV"]
    assert ops[0].result == "EMPTY"
    assert marks(sim, "after")[0].time == 500_000  # did not block
