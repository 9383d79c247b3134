"""The block writers of ``partsim run`` against the per-row writer they
replaced, and what they hold in memory."""

import sys
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

import refmodels
from partsim import results
from partsim.harness import RunResult
from partsim.results import Condition, Mode
from refmodels import RowCondition, flat_cells

# scenario labels as a scenario name or a ``<name>/<k>`` label may be,
# with the ``%`` forms that a ``%`` template must escape
LABELS = ("s", "cookbook", "%", "%d", "%%", "a%sb%d", "100%/0", "x %% y/12")
# one block of each patched size, and the real one, which a repetition
# count of 1,025 crosses
BLOCK_ROWS = (1, 3, 7, results.WRITE_ROWS)


def _partitioned(label, payload, repetitions, t_send, latency, gap):
    return RowCondition(label, Mode.PARTITIONED, payload, repetitions,
                        measurement=(t_send, t_send + latency, gap)), ()


def _broker(label, payload, times, cuts=()):
    """A broker condition whose workers' ranges end at the rows ``cuts``."""
    return RowCondition(label, Mode.BROKER, payload, len(times), times=times), cuts


def _times(repetitions, delays, relaxed=400_000, step=37):
    """``repetitions`` (relaxed, stressed) pairs, the relaxed times ``step``
    apart from ``relaxed``, whose delays cycle through ``delays``."""
    return [(relaxed + step * rep, relaxed + step * rep + delays[rep % len(delays)])
            for rep in range(repetitions)]


def _rendered(cases):
    """The ``RunResult`` a run makes of ``(RowCondition, cuts)`` cases: each
    broker condition's rows rendered by ``broker_rows`` in pieces that end
    at its cuts, as the workers that draw them do, and joined in order."""
    conditions = []
    for c, cuts in cases:
        shared = c.scenario, c.mode, c.payload_bytes, c.repetitions
        if c.times is None:
            conditions.append(Condition(*shared, c.measurement))
            continue
        cells, bounds = flat_cells(c.times), (0, *cuts, c.repetitions)
        rows = [block for first, end in zip(bounds, bounds[1:]) for block in
                results.broker_rows(c.scenario, c.payload_bytes, first, cells[3 * first:3 * end])]
        conditions.append(Condition(*shared, rows=rows, delays=cells[2::3]))
    return RunResult(conditions)


EXAMPLES = [  # fixed results that reach every feature that the test asserts
    [],
    [_partitioned("%d", 64, 1, 100_000, 400_000, None)],
    [_partitioned("a%sb%d", 0, 8, 5, 1_000, 0), _partitioned("%%", 1_000_000, 22, 0, 123_456, 7)],
    [_broker("b/0", 1, _times(1, [0])),
     _broker("%/1", 1, _times(10, [-11_470, 0, 5]), cuts=(4,)),
     _partitioned("s", 64, 1_025, 100, 399_900, 100_000),
     _broker("x %% y/12", 6_000_000, _times(1_025, [3, -2, 0]), cuts=(2, 1_024))],
]

_LABEL = st.one_of(st.sampled_from(LABELS), st.text(alphabet="ab%d/ 09", max_size=6))
_REPETITIONS = st.one_of(st.integers(1, 24), st.sampled_from((1_023, 1_024, 1_025)))


@st.composite
def conditions(draw):
    label, payload = draw(_LABEL), draw(st.integers(0, 10 ** 7))
    repetitions = draw(_REPETITIONS)
    if draw(st.booleans()):
        return _partitioned(label, payload, repetitions, draw(st.integers(0, 10 ** 9)),
                            draw(st.integers(0, 10 ** 9)),
                            draw(st.one_of(st.none(), st.just(0), st.integers(1, 10 ** 9))))
    delay = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6))
    cuts = draw(st.sets(st.integers(1, repetitions - 1), max_size=2)) if repetitions > 1 else ()
    return _broker(label, payload, _times(
        repetitions, draw(st.lists(delay, min_size=1, max_size=5)),
        draw(st.integers(0, 10 ** 8)), draw(st.integers(-1_000, 1_000))), tuple(sorted(cuts)))


def _features(cases, rows):
    """What of the writers' cases one result reaches with blocks of ``rows``."""
    seen = set() if cases else {"empty"}
    for c, cuts in cases:
        seen.add(c.mode)
        seen.update(form for form in ("%d", "%%") if form in c.scenario)
        if c.repetitions == 1:
            seen.add("one row")
        if c.repetitions > rows and c.repetitions % rows:
            seen.add("partial last block")
        if cuts:
            seen.add("cut")
        if c.times is None:
            gap = c.measurement[2]
            seen.add("gap None" if gap is None else "gap 0" if gap == 0 else "gap > 0")
        else:
            seen.update("delay < 0" if s < r else "delay 0" for r, s in c.times if s <= r)
    return seen


def test_block_writer_writes_the_bytes_of_the_row_writer(tmp_path):
    """Over results of both modes, ``%`` in the labels, one row or rows
    across block ends, broker rows rendered in pieces as the workers do,
    every gap form and non-positive broker delays, the block writers write
    what the per-row writer writes: on the fixed ``EXAMPLES``, then on
    Hypothesis's, each with blocks of 1, 3, 7 and ``WRITE_ROWS`` rows."""
    path, expected = tmp_path / "w.csv", tmp_path / "ref.csv"
    seen = set()

    def check(cases):
        refmodels.export_csv([c for c, _ in cases], expected)
        for rows in BLOCK_ROWS:
            with mock.patch.object(results, "WRITE_ROWS", rows):
                results.export_csv(_rendered(cases), path)
            assert path.read_bytes() == expected.read_bytes(), f"blocks of {rows} rows"
            seen.update(_features(cases, rows))

    for cases in EXAMPLES:
        check(cases)
    assert seen == {"empty", Mode.PARTITIONED, Mode.BROKER, "%d", "%%", "one row",
                    "partial last block", "cut", "gap None", "gap 0", "gap > 0", "delay < 0",
                    "delay 0"}
    settings(deadline=None, max_examples=60, derandomize=True)(
        given(st.lists(conditions(), max_size=4))(check))()


def test_csv_write_peak_does_not_grow_with_the_rows(tmp_path):
    """Beyond the blocks it returns, ``broker_rows`` holds one block of rows
    at a time; ``export_csv`` writes those blocks as they are and fills a
    partitioned condition's rows one block at a time.  Both peaks are the
    same for conditions ten times as long.  The cells are made before
    tracing starts, so the peaks are the writers' own."""
    peaks = []
    for count in (6_000, 60_000):
        cells = flat_cells(_times(count, [-11_470, 0, 5]))
        tracemalloc.start()
        try:
            rows = results.broker_rows("b", 1, 0, cells)
            held = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
            render = tracemalloc.get_traced_memory()[1] - held
            result = RunResult([Condition("b", Mode.BROKER, 1, count, rows=rows, delays=[]),
                                Condition("p", Mode.PARTITIONED, 64, count, (5, 10, 3))])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            results.export_csv(result, tmp_path / f"{count}.csv")
            peaks.append((render, tracemalloc.get_traced_memory()[1] - before))
        finally:
            tracemalloc.stop()
    (small_render, small_write), (large_render, large_write) = peaks
    assert large_render <= small_render + 16 * 1024, \
        f"render peak: {small_render} B, then {large_render} B"
    assert large_write <= small_write + 16 * 1024, \
        f"write peak: {small_write} B, then {large_write} B"
