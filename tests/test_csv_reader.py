"""The block reader of ``partsim report`` against the per-line reader it
replaced, the shape premise it rests on, and what it holds in memory."""

import random
import re
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

import refmodels
from partsim import results
from partsim.results import CSV_HEADER, CsvError, read_csv

# scenario cells as _ROW takes them: empty, with digits, a space, a slash,
# a %, and the separators that end a line for str.splitlines but not here
LABELS = ("s", "", "bench/0", "p 9", "5% 1/2", "x\x0by", "t\x1c")
PAYLOADS = ("1", "64", "064", "0", "-0", "1000000")  # 64 and 064 are one payload
# each cell form that test_csv_read_errors_are_located names, by column
BAD_CELLS = {1: ("brokr", ""), 2: ("x", ""), 3: ("", "1_0"), 8: ("0.6x", "4", ".5"),
             11: ("-2e2", "+2_00", " -200")}
FAULTS = ("cell", "non-ascii", "blank", "join", "drop", "extra")
RUNS = ("a block read as one run", "a block with a condition boundary inside it")


def _int(rng, empty):
    if rng.random() < empty:
        return ""
    return str(rng.choice((1, -1, 1, 1)) * rng.randrange(10 ** rng.randrange(1, 12)))


def _row(rng, label, mode, payload, rep, empty):
    """One line that _ROW takes; ``empty`` is the chance of each optional cell
    being empty, and a gap is often empty or 0 so that the first non-zero gap
    of a condition is seldom its first row's."""
    gap = rng.choice(("", "0", "0", _int(rng, empty)))
    ratio = "" if rng.random() < empty else f"{rng.random() * 10:.6f}"
    cells = [label, mode, str(rep), payload, _int(rng, empty), _int(rng, empty),
             _int(rng, empty), gap, ratio, _int(rng, empty), _int(rng, empty), _int(rng, empty)]
    return ",".join(cells)


def _csv_file(conditions, runs, seed, faults, newline, final):
    """A result CSV as bytes, with its newline and the kinds of the faults
    placed: ``runs`` of rows of ``conditions`` (label, mode, payload, chance
    of an empty cell), then each fault (kind, where in the file as a share
    of its lines, seed) in turn.  A partitioned condition's rows repeat one
    measurement, as ``export_csv`` writes them."""
    rng = random.Random(seed)
    lines, reps = [], [0] * len(conditions)
    for index, length in runs:
        label, mode, payload, empty = conditions[index]
        for _ in range(length):
            row_rng = random.Random(seed + index) if mode == "partitioned" else rng
            lines.append(_row(row_rng, label, mode, payload, reps[index], empty))
            reps[index] += 1
    placed = []
    for kind, where, fseed in faults:
        frng = random.Random(fseed)
        at = int(where * len(lines))
        if kind == "blank":
            lines.insert(at, "")
        elif kind == "join":
            if len(lines) < 2:
                continue
            at = min(at, len(lines) - 2)
            lines[at:at + 2] = [frng.choice("\x0b\x0c\x1c\x1d\x1e").join(lines[at:at + 2])]
        else:  # a new line of the first condition, made faulty
            label, mode, payload, empty = conditions[0]
            cells = _row(frng, label, mode, payload, 0, empty).split(",")
            if kind == "cell":
                column = frng.choice(sorted(BAD_CELLS))
                cells[column] = frng.choice(BAD_CELLS[column])
            elif kind == "drop":
                del cells[frng.randrange(len(cells))]
            elif kind == "extra":
                cells.insert(frng.randrange(len(cells) + 1), str(frng.randrange(100)))
            line = ",".join(cells)
            if kind == "non-ascii":
                cut = frng.randrange(len(line) + 1)
                line = line[:cut] + frng.choice("\x80\xe9\xff") + line[cut:]
            lines.insert(at, line)
        placed.append(kind)
    text = newline.join([CSV_HEADER, *lines]) + (newline if final else "")
    return text.encode("latin-1"), newline, placed


@st.composite
def csv_files(draw):
    """A result CSV as ``_csv_file`` makes it: runs of rows of a few
    interleaved conditions in both modes, each up to a few blocks long, one
    newline form, a final newline or none, and, in about half the files, up
    to three faulty lines anywhere."""
    conditions = draw(st.lists(st.tuples(
        st.sampled_from(LABELS), st.sampled_from(sorted(results._MODES)),
        st.sampled_from(PAYLOADS), st.sampled_from((0.0, 0.3, 1.0))), min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.integers(0, len(conditions) - 1), st.integers(1, 120)),
                         min_size=1, max_size=8))
    seed = draw(st.integers(0, 2 ** 32))
    faults = []
    if draw(st.booleans()):
        faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.floats(0, 1),
                                         st.integers(0, 2 ** 32)), max_size=3))
    return _csv_file(conditions, runs, seed, faults,
                     draw(st.sampled_from(("\n", "\r\n", "\r"))), draw(st.booleans()))


# Files that reach every case the test requires, whatever examples
# Hypothesis draws: a gapless condition between runs of one with gaps, each
# fault kind past the first block or in it, under each newline form, and a
# first block of one condition followed by one where conditions of one label
# change at the payload alone and at the mode alone.
_TWO = [("bench/0", "broker", "64", 0.0), ("p 9", "partitioned", "1", 1.0)]
_ONE_LABEL = [("5% 1/2", "broker", "64", 0.3), ("5% 1/2", "broker", "1", 0.3),
              ("5% 1/2", "partitioned", "64", 0.3)]
EXAMPLES = [_csv_file(_TWO, [(0, 90), (1, 30), (0, 60)], 1, [], "\n", True),
            _csv_file(_ONE_LABEL, [(0, 150), (1, 5), (0, 20), (2, 5), (0, 20)], 2, [], "\n",
                      True)] + [
    _csv_file(_TWO, [(0, 90), (1, 30), (0, 60)], k, [(kind, where, k)], newline, k % 2 == 0)
    for k, (kind, where, newline) in enumerate(
        (kind, where, newline) for kind in FAULTS
        for where, newline in ((0.0, "\r"), (0.8, "\n"), (0.9, "\r\n")))]


def _blocks(path, chunk):
    """The lines of each block that ``read_csv`` reads of ``path`` when
    ``READ_CHUNK`` is ``chunk``: ``chunk`` characters and the rest of the
    last line."""
    with open(path, encoding="latin-1") as fh:
        next(fh)
        while block := fh.read(chunk):
            if len(block) == chunk and block[-1] != "\n":
                block += fh.readline()
            yield block.rstrip("\n").split("\n")


def _outcome(reader, path):
    """The conditions that ``reader`` returns, in their order, or its error."""
    try:
        conditions = reader(path)
    except CsvError as exc:
        return str(exc)
    return [(key, c.where, c.latencies, c.delays, c.gap) for key, c in conditions.items()]


def test_block_reader_returns_what_the_line_reader_returns(tmp_path):
    """Over CSVs of several blocks, with runs that cross block ends, faults
    in any block and every newline form, the block reader returns the same
    conditions, or raises the same error, as the per-line reader: on the
    fixed ``EXAMPLES``, then on Hypothesis's.  At a small chunk and at
    ``READ_CHUNK``, some block must be one run of one condition and some
    other block must hold a condition boundary; some condition's latency
    cells must all be equal, as a partitioned condition's are."""
    path = tmp_path / "r.csv"
    seen = set()

    def check(csv, chunk):
        data, newline, faults = csv
        path.write_bytes(data)
        with mock.patch.object(results, "READ_CHUNK", chunk):
            got = _outcome(read_csv, path)
        expected = _outcome(refmodels.read_csv, path)
        assert got == expected
        seen.update([newline, *faults])
        if len(data) > 3 * chunk:
            seen.add("several blocks")
        if isinstance(expected, str):
            number = int(expected[len(str(path)) + 1:].split(":")[0])
            before = data.split(newline.encode())[:number - 1]
            seen.add("error" if sum(map(len, before)) < chunk else "error past the first block")
        else:
            seen.add("read")
            gaps = {gap is None for *_, gap in expected}
            if len(gaps) == 2:  # a condition's gap must not come from another's rows
                seen.add("with and without a gap")
            if any(len(set(latencies)) == 1 < len(latencies) for _, _, latencies, *_ in expected):
                seen.add("equal latencies")
            for lines in _blocks(path, chunk):
                keys = {tuple(line.split(",")[k] for k in (0, 1, 3)) for line in lines}
                seen.add((RUNS[len(keys) > 1], chunk))

    for csv in EXAMPLES:
        for chunk in (256, results.READ_CHUNK):
            check(csv, chunk)
    assert seen == {"\n", "\r\n", "\r", "error", "read", "several blocks",
                    "error past the first block", "with and without a gap", "equal latencies",
                    *FAULTS,
                    *((runs, chunk) for runs in RUNS for chunk in (256, results.READ_CHUNK))}
    settings(deadline=None, max_examples=120, derandomize=True)(
        given(csv_files(), st.sampled_from((40, 97, 256, results.READ_CHUNK)))(check))()


_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_NUMBER = st.integers(-9999, 9999).map(str)


@st.composite
def near_rows(draw):
    r"""A line that ``_ROW`` takes, of which up to three characters are then
    replaced by any of the CSV alphabet, ``\x0b``, ``\x80`` or ``\xff``, as
    latin-1 bytes."""
    cells = [draw(st.text(alphabet="ab /0123456789", max_size=4)),
             draw(st.sampled_from(sorted(results._MODES))), draw(_NUMBER), draw(_NUMBER)]
    cells += [draw(st.one_of(st.just(""), _NUMBER)) for _ in range(4)]
    cells += [draw(st.one_of(st.just(""), st.floats(-99, 99).map("{:.3f}".format)))]
    cells += [draw(st.one_of(st.just(""), _NUMBER)) for _ in range(3)]
    line = list(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(
            "0123456789-.,abp \x0b\x80\xff"))
    return "".join(line).encode("latin-1")


def test_a_line_matches_exactly_when_its_shape_does():
    """``read_csv`` checks a line by its shape, digits 1-9 read as 0: that
    is exact only while ``_ROW`` takes every digit wherever it takes one,
    and ``_SHAPE`` maps 1-9 to 0 and nothing else."""
    assert re.sub("[1-9]", "0", bytes(range(256)).decode("latin-1")) == (
        bytes(range(256)).translate(results._SHAPE).decode("latin-1"))
    matched = []

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(near_rows())
    def check(line):
        match = results._ROW.fullmatch(line) is not None
        assert match == (results._ROW.fullmatch(line.translate(_DIGITS)) is not None), line
        matched.append(match)

    check()
    assert 50 <= sum(matched) <= len(matched) - 50, f"{sum(matched)} of {len(matched)} matched"


def _write_rows(path, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(rows)


def _traced_read(path):
    """(what read_csv keeps, its traced peak) in bytes."""
    tracemalloc.start()
    try:
        conditions = read_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return conditions, kept, peak


def _broker_rows(count):
    """Three runs of rows whose one kept cell is a tx_delay of 400,000 ns or more."""
    rng = random.Random(count)
    for rep in range(count):
        yield f"b,broker,0,{rep * 3 // count},,,,,,,,{rng.randrange(400_000, 600_000)}\n"


def test_csv_read_overhead_does_not_grow_with_the_file(tmp_path):
    """What ``read_csv`` holds beyond what it keeps is a block's worth,
    the same for a file ten times as long."""
    overheads = []
    for count in (6_000, 60_000):
        path = tmp_path / f"{count}.csv"
        _write_rows(path, _broker_rows(count))
        conditions, kept, peak = _traced_read(path)
        assert sum(len(c.delays) for c in conditions.values()) == count
        overheads.append(peak - kept)
    small, large = overheads
    assert large <= small + 32 * 1024, f"peak beyond kept: {small} B, then {large} B"


def test_csv_read_of_many_conditions_is_at_most_twice_what_it_keeps(tmp_path):
    """Every row a new scenario label, so every row its own shape."""
    def label(i):
        return "".join("abcdefghijklmnopqrstuvwxyz"[i // 26 ** k % 26] for k in range(3))

    path = tmp_path / "labels.csv"
    _write_rows(path, (f"{label(i)},broker,0,1,,,,,,,,{1000 + i}\n" for i in range(10_000)))
    conditions, kept, peak = _traced_read(path)
    assert len(conditions) == 10_000
    assert peak <= 2 * kept, f"peak {peak} B, kept {kept} B"

