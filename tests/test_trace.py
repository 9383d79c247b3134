"""The trace file writer against the record-by-record text.

Each trace here is built by hand, built records and repeat descriptors
alike, so it may hold what no engine run makes.  The file ``write_trace``
writes must be ``format_trace`` of the records the trace iterates, which
builds every copy's every record and formats it on its own.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from partsim.trace import (
    EventRecord, HmRecord, MarkRecord, PeriodicTrace, PortOpRecord, StateRecord, format_trace,
    write_trace,
)

PARTITIONS = range(-1, 4)  # -1 is FRAME_WRAP's
EVENT_KINDS = ("SLOT_START", "SLOT_END", "FRAME_WRAP", "APP_ACTION", "HM_EVENT")
STATES = ("BOOT", "NORMAL", "SUSPENDED", "HALTED")


def records(times):
    """Records of all five kinds at ``times``: mark labels and HM details
    may hold ``%``, and details ``,``."""
    partition = st.sampled_from(PARTITIONS)
    return st.one_of(
        st.builds(EventRecord, times, st.sampled_from(EVENT_KINDS), partition,
                  st.integers(0, 10**6)),
        st.builds(PortOpRecord, times, st.sampled_from(("WRITE", "READ", "SEND", "RECV")),
                  st.sampled_from(("c0", "c12", "-")), partition, st.integers(0, 64),
                  st.sampled_from(("OK", "STALE", "FULL", "EMPTY"))),
        st.builds(MarkRecord, times, partition, st.text("tx%ds", max_size=4)),
        st.builds(StateRecord, times, partition, st.sampled_from(STATES), st.sampled_from(STATES)),
        st.builds(HmRecord, times, st.sampled_from(("SLOT_OVERRUN", "MEMORY_VIOLATION")),
                  partition, st.sampled_from(("LOG", "HALT_SYSTEM")), st.text("a,%d ", max_size=6)),
    )


@st.composite
def traces(draw):
    """1-3 repeats, each of a period of 1-40 records copied 1-60 times,
    over a span with 0-9 trailing zeros, with per-partition gains of
    1-20; built records may come before and after each period."""
    trace = PeriodicTrace()
    for _ in range(draw(st.integers(1, 3))):
        zeros = draw(st.integers(0, 9))
        span = draw(st.integers(1, 999).filter(lambda s: s % 10)) * 10**zeros
        # times below 10**zeros too, whose part above the span's zeros is 0
        times = st.integers(0, 10**zeros) | st.integers(0, 10**13)
        for r in draw(st.lists(records(times), max_size=3)):
            trace.append(r)
        start = len(trace.built)
        for r in draw(st.lists(records(times), min_size=1, max_size=40)):
            trace.append(r)
        gain = {p: draw(st.integers(1, 20)) for p in PARTITIONS}
        trace.repeat(start, draw(st.integers(1, 60)), span, gain)
    for r in draw(st.lists(records(st.integers(0, 10**13)), max_size=3)):
        trace.append(r)
    return trace


def repeated(period, periods, span, gains=()):
    """A trace of one repeat of ``period``, partition p's gain
    ``gains[p]`` (1 where not given)."""
    trace = PeriodicTrace()
    for r in period:
        trace.append(r)
    trace.repeat(0, periods, span, {p: dict(gains).get(p, 1) for p in PARTITIONS})
    return trace


EXAMPLES = {
    # a span of 1,000: the part above the low 3 digits steps by 1 and gains
    # a digit, from 9 to 10 and from 99 to 100, and the low digits 500 and
    # 042 stay as they are, leading zero included
    "9 -> 10": repeated([MarkRecord(9_500, 0, "%d%%")], 3, 1_000),
    "99 -> 100": repeated([EventRecord(98_042, "SLOT_START", 1, 7),
                           MarkRecord(99_042, 1, "tx")], 2, 1_000, {1: 3}),
    # times below 10**3, whose part above the low digits is 0
    "high part 0": repeated([EventRecord(0, "FRAME_WRAP", -1, 0),
                             PortOpRecord(7, "SEND", "c0", 0, 64, "OK"),
                             HmRecord(999, "SLOT_OVERRUN", 0, "LOG", "a,b%d")], 4, 5_000),
    "one record": repeated([EventRecord(123, "APP_ACTION", 2, 5)], 60, 7),
    # the time of 30 ns over a 10 ns span steps from 3 by 1, as the seq does
    "seq shares a time's progression": repeated(
        [EventRecord(30, "SLOT_END", 0, 3), StateRecord(41, 0, "NORMAL", "HALTED")], 5, 10),
    # partitions 0 and 1 start their seq at 7 but step by 2 and 5, and the
    # time of 700 ns over a 100 ns span starts at 7 too, and steps by 1
    "same start, other step": repeated(
        [EventRecord(400, "SLOT_START", 0, 7), EventRecord(500, "SLOT_START", 1, 7),
         MarkRecord(700, 1, "tx")], 3, 100, {0: 2, 1: 5}),
}


def features(trace):
    """The edge cases of the writer that ``trace`` reaches: a time's part
    above the span's trailing zeros gains a digit, or is 0; a one-record
    period; a seq that starts and steps as a time's part does; two fields
    that start alike but step otherwise."""
    found = set()
    for *_, period, (periods, span, gain) in trace.pieces():
        if not period:
            continue
        unit = 10 ** (len(str(span)) - len(str(span).rstrip("0")))
        for r in period:
            highs = [r.time // unit + k * (span // unit) for k in range(periods + 1)]
            steps = set(zip(highs, highs[1:]))
            found |= {f"{a} -> {b}" for a, b in ((9, 10), (99, 100)) if (a, b) in steps}
            if unit > 1 and r.time < unit:
                found.add("high part 0")
        if len(period) == 1:
            found.add("one record")
        seqs = {(r.seq, gain[r.partition]) for r in period if type(r) is EventRecord}
        times = {(r.time // unit, span // unit) for r in period}
        if seqs & times:
            found.add("seq shares a time's progression")
        if len({start for start, _ in seqs | times}) < len(seqs | times):
            found.add("same start, other step")
    return found


def test_each_fixed_example_reaches_its_edge_case():
    for name, trace in EXAMPLES.items():
        assert name in features(trace)


def write_examples(test):
    for trace in EXAMPLES.values():
        test = example(trace=trace)(test)
    return test


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("trace") / "t.trace"


@settings(max_examples=60)
@given(trace=traces())
@write_examples
def test_write_trace_writes_the_text_of_every_record(trace, path):
    write_trace(trace, path)
    assert path.read_bytes() == format_trace(trace).encode("ascii")
