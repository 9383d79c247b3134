"""The block writer of ``partsim run`` against the per-row writer it
replaced, and what it holds in memory."""

import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

import refmodels
from partsim import results
from partsim.harness import RunResult
from partsim.results import Condition, Mode

# scenario labels as a scenario name or a ``<name>/<k>`` label may be,
# with the ``%`` forms that a ``%`` template must escape
LABELS = ("s", "cookbook", "%", "%d", "%%", "a%sb%d", "100%/0", "x %% y/12")
# one block of each patched size, and the real one, which a repetition
# count of 1,025 crosses
BLOCK_ROWS = (1, 3, 7, results.WRITE_ROWS)


def _partitioned(label, payload, repetitions, t_send, latency, gap):
    return Condition(label, Mode.PARTITIONED, payload, repetitions,
                     measurement=(t_send, t_send + latency, gap))


def _broker(label, payload, times):
    return Condition(label, Mode.BROKER, payload, len(times), times=times)


def _times(repetitions, delays, relaxed=400_000, step=37):
    """``repetitions`` (relaxed, stressed) pairs, the relaxed times ``step``
    apart from ``relaxed``, whose delays cycle through ``delays``."""
    return [(relaxed + step * rep, relaxed + step * rep + delays[rep % len(delays)])
            for rep in range(repetitions)]


EXAMPLES = [  # fixed results that reach every feature that the test asserts
    RunResult([]),
    RunResult([_partitioned("%d", 64, 1, 100_000, 400_000, None)]),
    RunResult([_partitioned("a%sb%d", 0, 8, 5, 1_000, 0),
               _partitioned("%%", 1_000_000, 22, 0, 123_456, 7)]),
    RunResult([_broker("b/0", 1, _times(1, [0])),
               _broker("%/1", 1, _times(10, [-11_470, 0, 5])),
               _partitioned("s", 64, 1_025, 100, 399_900, 100_000),
               _broker("x %% y/12", 6_000_000, _times(1_025, [3, -2, 0]))]),
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
    return _broker(label, payload, _times(
        repetitions, draw(st.lists(delay, min_size=1, max_size=5)),
        draw(st.integers(0, 10 ** 8)), draw(st.integers(-1_000, 1_000))))


def _features(result, rows):
    """What of the writer's cases one result reaches with blocks of ``rows``."""
    seen = set() if result.conditions else {"empty"}
    for c in result.conditions:
        seen.add(c.mode)
        seen.update(form for form in ("%d", "%%") if form in c.scenario)
        if c.repetitions == 1:
            seen.add("one row")
        if c.repetitions > rows and c.repetitions % rows:
            seen.add("partial last block")
        if c.times is None:
            gap = c.measurement[2]
            seen.add("gap None" if gap is None else "gap 0" if gap == 0 else "gap > 0")
        else:
            seen.update("delay < 0" if s < r else "delay 0" for r, s in c.times if s <= r)
    return seen


def test_block_writer_writes_the_bytes_of_the_row_writer(tmp_path):
    """Over results of both modes, ``%`` in the labels, one row or rows
    across block ends, every gap form and non-positive broker delays, the
    block writer writes what the per-row writer writes: on the fixed
    ``EXAMPLES``, then on Hypothesis's, each with blocks of 1, 3, 7 and
    ``WRITE_ROWS`` rows."""
    path, expected = tmp_path / "w.csv", tmp_path / "ref.csv"
    seen = set()

    def check(result):
        refmodels.export_csv(result, expected)
        for rows in BLOCK_ROWS:
            with mock.patch.object(results, "WRITE_ROWS", rows):
                results.export_csv(result, path)
            assert path.read_bytes() == expected.read_bytes(), f"blocks of {rows} rows"
            seen.update(_features(result, rows))

    for result in EXAMPLES:
        check(result)
    assert seen == {"empty", Mode.PARTITIONED, Mode.BROKER, "%d", "%%", "one row",
                    "partial last block", "gap None", "gap 0", "gap > 0", "delay < 0",
                    "delay 0"}
    settings(deadline=None, max_examples=60, derandomize=True)(
        given(st.lists(conditions(), max_size=4).map(RunResult))(check))()


def test_csv_write_peak_does_not_grow_with_the_rows(tmp_path):
    """``export_csv`` holds one block of rows at a time, the same for a
    broker condition ten times as long; the condition is built before
    tracing starts, so the peak is the writer's own."""
    peaks = []
    for count in (6_000, 60_000):
        result = RunResult([_broker("b", 1, _times(count, [-11_470, 0, 5]))])
        tracemalloc.start()
        try:
            results.export_csv(result, tmp_path / f"{count}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large <= small + 16 * 1024, f"write peak: {small} B, then {large} B"
