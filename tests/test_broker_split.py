"""A broker run split across forked workers: the reference bytes and
delays for any worker count, no fork below ``2 * ROWS_PER_WORKER`` rows,
and no child that outlives the run or unwinds into the caller's frames."""

import errno
import os
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import refmodels
from partsim import harness, middleware
from partsim.cli import main
from partsim.harness import parse_scenario, run_scenario

from conftest import SCENARIO_DIR, csv_text
from test_golden import GOLDEN_DIR


class Forks:
    """``os.fork`` wrapped to count the children this process makes."""

    def __init__(self, monkeypatch) -> None:
        self.count, real = 0, os.fork

        def fork():
            self.count += 1
            return real()

        monkeypatch.setattr(os, "fork", fork)


def split(monkeypatch, cores: int, rows_per_worker: int = 1) -> Forks:
    """Force ``cores`` cores and ``rows_per_worker``; returns the fork count."""
    monkeypatch.setattr(harness, "ROWS_PER_WORKER", rows_per_worker)
    monkeypatch.setattr(harness, "_cores", lambda: cores)
    return Forks(monkeypatch)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def broker_text(name, sizes, pairs, repetitions, jitters, seed) -> str:
    """A broker scenario; ``jitters`` holds the uplink and downlink stddev."""
    return "\n".join([
        f"name = {name}", "mode = broker", f"seed = {seed}", f"repetitions = {repetitions}",
        f"payload_sizes = {','.join(map(str, sizes))}",
        "[broker]",
        f"uplink = base=100us per_byte=1ns jitter={jitters[0]}ns",
        f"downlink = base=80us per_byte=0ns jitter={jitters[1]}ns",
        "load_factor = 1.25",
        "[loads]",
        *(f"{relaxed},0.0 -> {stressed},0.5" for relaxed, stressed in pairs),
    ]) + "\n"


_LOAD = st.sampled_from(("0.0", "0.13", "0.5", "1.0"))


def reference_text(conditions) -> str:
    """What the per-row reference writer writes for ``RowCondition``s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.csv"
        refmodels.export_csv(conditions, path)
        return path.read_text(encoding="ascii")


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(("split", "%", "100%", "a%sb%d", "%%")),
    sizes=st.lists(st.integers(1, 10**7), min_size=1, max_size=3, unique=True),
    pairs=st.lists(st.tuples(_LOAD, _LOAD), min_size=1, max_size=3),
    repetitions=st.integers(1, 50),
    jitters=st.tuples(st.sampled_from((0, 40_000)), st.sampled_from((0, 7))),
    seed=st.integers(0, 2**32),
)
# one row: more cores than rows
@example(name="split", sizes=[64], pairs=[("0.0", "1.0")], repetitions=1, jitters=(40_000, 7),
         seed=1)
# seven rows of one condition: every split cuts it
@example(name="split", sizes=[64], pairs=[("0.0", "1.0")], repetitions=7, jitters=(40_000, 0),
         seed=2)
# three conditions of two rows: ranges end inside and between conditions
@example(name="split", sizes=[1, 2, 3], pairs=[("0.0", "1.0")], repetitions=2, jitters=(0, 7),
         seed=3)
# conditions of WRITE_ROWS - 1 to WRITE_ROWS + 1 rows under labels with a
# %, with two, one or no jittered links: one worker's rows cross a block end
@example(name="100%", sizes=[64], pairs=[("0.0", "1.0")], repetitions=1_023,
         jitters=(40_000, 7), seed=4)
@example(name="a%sb%d", sizes=[64], pairs=[("0.0", "1.0"), ("0.5", "0.13")],
         repetitions=1_024, jitters=(0, 7), seed=5)
@example(name="%", sizes=[64], pairs=[("0.0", "1.0")], repetitions=1_025, jitters=(40_000, 0),
         seed=6)
@example(name="%%", sizes=[64, 65], pairs=[("0.0", "1.0")], repetitions=1_025, jitters=(0, 0),
         seed=7)
def test_any_worker_count_writes_the_serial_bytes(name, sizes, pairs, repetitions, jitters,
                                                  seed):
    """For any number of cores, the rows the workers render are the bytes
    that the per-row reference writer writes from the reference model's
    times, and each condition's delays are those rows' tx_delay cells (in
    any order: each worker sorts its share)."""
    sc = parse_scenario(broker_text(name, sizes, pairs, repetitions, jitters, seed))
    rows = len(sizes) * len(pairs) * repetitions
    conditions = refmodels.broker_conditions(sc)
    expected = reference_text(conditions)
    delays = [sorted(stressed - relaxed for relaxed, stressed in c.times) for c in conditions]
    for cores in range(1, 6):
        with pytest.MonkeyPatch.context() as monkeypatch:
            forks = split(monkeypatch, cores)
            result = run_scenario(sc)
        assert csv_text(result) == expected
        assert [sorted(c.delays) for c in result.conditions] == delays
        assert forks.count == (min(cores, rows) - 1 if any(jitters) else 0)
        assert_no_child_left()


def test_golden_broker_case_with_the_split_forced(monkeypatch, tmp_path, capsys):
    forks = split(monkeypatch, cores=3)
    csv_path = tmp_path / "broker.csv"
    code = main(["run", str(SCENARIO_DIR / "broker.scn"), "--out", str(csv_path)])
    assert forks.count == 2
    assert f"{code}\n".encode() == (GOLDEN_DIR / "broker.exit").read_bytes()
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "broker.stdout").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN_DIR / "broker.csv").read_bytes()


@pytest.mark.parametrize("jitter", ["50us", "0ns"])
def test_a_run_below_two_workers_of_rows_never_forks(monkeypatch, jitter):
    """The shipped 300-row scenario never forks, however many cores; a
    jittered run forks from 2 * ROWS_PER_WORKER rows on, a quiet one never."""
    text = (SCENARIO_DIR / "broker.scn").read_text().replace("jitter=50us", f"jitter={jitter}")
    sc = parse_scenario(text)
    forks = split(monkeypatch, cores=64, rows_per_worker=harness.ROWS_PER_WORKER)
    run_scenario(sc)
    below = -(-2 * harness.ROWS_PER_WORKER // 3) - 1  # reps: 3 payloads x reps < 2 * R
    run_scenario(sc._replace(repetitions=below))
    assert forks.count == 0
    run_scenario(sc._replace(repetitions=below + 1))
    assert forks.count == (1 if jitter == "50us" else 0)
    assert_no_child_left()


def _big_broker():
    return parse_scenario((SCENARIO_DIR / "broker.scn").read_text())


def _fault_in(monkeypatch, where: str, fault) -> None:
    """Make ``middleware.condition_times`` call ``fault()`` first, in the
    parent's share (``where="parent"``) or in every child's."""
    parent, real = os.getpid(), middleware.condition_times

    def condition_times(*args):
        if (os.getpid() == parent) == (where == "parent"):
            fault()
        return real(*args)

    monkeypatch.setattr(middleware, "condition_times", condition_times)


def _raise(exc):
    def fault():
        raise exc
    return fault


def _run_in_this_process(sc):
    """``run_scenario``; a child that unwound this far ends with 99, which
    the parent reports as the worker's exit status."""
    parent = os.getpid()
    try:
        return run_scenario(sc)
    finally:
        if os.getpid() != parent:
            os._exit(99)


def test_a_split_run_reaps_every_child(monkeypatch):
    forks = split(monkeypatch, cores=4)
    assert len(_run_in_this_process(_big_broker())) == 300
    assert forks.count == 3
    assert_no_child_left()


@pytest.mark.parametrize("fault, message", [
    (_raise(RuntimeError("boom")), "exited with 1"),
    (_raise(SystemExit(0)), "exited with 1"),
    (_raise(KeyboardInterrupt()), "exited with 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
], ids=["error", "system_exit", "keyboard_interrupt", "killed"])
def test_a_lost_worker_is_a_worker_error(monkeypatch, fault, message):
    """Nothing a child raises unwinds into the caller: it exits 1, and a
    child killed by a signal is named by it; the run reaps every child."""
    forks = split(monkeypatch, cores=3)
    _fault_in(monkeypatch, "child", fault)
    with pytest.raises(harness.WorkerError) as info:
        _run_in_this_process(_big_broker())
    assert str(info.value) == f"the worker for broker rows 100-199 {message}"
    assert forks.count == 2
    assert_no_child_left()


def test_a_parent_share_that_raises_kills_and_reaps_the_children(monkeypatch):
    forks = split(monkeypatch, cores=3)
    _fault_in(monkeypatch, "parent", _raise(RuntimeError("parent share")))
    with pytest.raises(RuntimeError, match="parent share"):
        _run_in_this_process(_big_broker())
    assert forks.count == 2
    assert_no_child_left()


def test_a_lost_worker_exits_2_with_one_error_line_and_no_csv(monkeypatch, tmp_path, capsys):
    split(monkeypatch, cores=2)
    _fault_in(monkeypatch, "child", _raise(RuntimeError("boom")))
    out = tmp_path / "broker.csv"
    assert main(["run", str(SCENARIO_DIR / "broker.scn"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the worker for broker rows 150-299 exited with 1\n"
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
], ids=["fork", "pipe"])
def test_a_worker_that_cannot_start_exits_2_with_one_error_line_and_no_csv(
        monkeypatch, tmp_path, capsys, call, error):
    """The second worker's ``os.fork`` or ``os.pipe`` fails: the first
    worker, already forked, is killed and reaped, and no fd is left open."""
    forks = split(monkeypatch, cores=3)
    real, calls = getattr(os, call), []

    def fail_the_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return real(*args)

    monkeypatch.setattr(os, call, fail_the_second)
    fds = os.listdir("/proc/self/fd")
    out = tmp_path / "broker.csv"
    assert main(["run", str(SCENARIO_DIR / "broker.scn"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the worker for broker rows 200-299 could not start: {error}\n"
    assert not out.exists()
    assert forks.count == 1
    assert os.listdir("/proc/self/fd") == fds
    assert_no_child_left()


def test_readme_states_the_worker_rule():
    readme = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
    assert f"`min(cores, rows // {harness.ROWS_PER_WORKER})` workers" in readme
    assert f"fewer than {2 * harness.ROWS_PER_WORKER:,} rows" in readme
