"""Planted defects that the tests must catch, and a runner that replays them.

Each mutant is one exact edit of one source file: ``old`` must occur once
in it and is replaced by ``new``.  ``tests`` are the test files or node ids
of which at least one must fail on the edited tree.

    python3 tests/mutants.py [NAME ...]

copies the repository, without ``.git``, to a temporary directory for each
named mutant (every mutant when none is named), applies the edit there and
runs the mutant's tests with ``pytest -x``.  It prints one line per mutant:
``killed`` (a test failed), ``survived`` (every test passed), ``stale``
(``old`` does not occur exactly once) or ``error`` (pytest could not run
the tests), and exits 0 only when every mutant is killed.  The tests run
in the copy, so a test that starts ``partsim`` in a subprocess runs the
mutant too.  This file uses the standard library only, and pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


READER_TESTS = ("tests/test_csv_reader.py",)

MUTANTS = (
    # a cell with a 9 in it refused: the shape check reads every digit as 0
    Mutant("int-without-9", "src/partsim/results.py",
           '_INT, _RATIO = "-?[0-9]+", ', '_INT, _RATIO = "-?[0-8]+", ', READER_TESTS),
    # a line with a 9 in it checked as the line itself, not as its shape
    Mutant("shape-without-9", "src/partsim/results.py",
           'bytes.maketrans(b"123456789", b"000000000")',
           'bytes.maketrans(b"12345678", b"00000000")', READER_TESTS),
    # a block whose payload or mode changes under one label read as one run
    Mutant("one-run-by-scenario-alone", "src/partsim/results.py",
           "for column in (scenarios, payloads, modes)", "for column in (scenarios,)",
           READER_TESTS),
    # a block cut at READ_CHUNK characters, in the middle of a line
    Mutant("block-ends-mid-line", "src/partsim/results.py",
           "            block += fh.readline()\n", "            pass\n", READER_TESTS),
    # a block's distinct shapes counted as its lines, so later lines are misnamed
    Mutant("lines-counted-by-shape", "src/partsim/results.py",
           "number += len(shapes)", "number += len(set(shapes))", READER_TESTS),
    # a run's latency or delay cells all read as its first one
    Mutant("run-cells-as-first", "src/partsim/results.py",
           "if run[0] and run.count(run[0]) == length", "if run[0]", READER_TESTS),
    # a gap of 0 kept as a condition's first gap
    Mutant("zero-gap-kept", "src/partsim/results.py",
           "next(filter(None, map(int, filter(None, gaps[i:j]))), None)",
           "next(map(int, filter(None, gaps[i:j])), None)", READER_TESTS),
)


def outcome(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``stale`` or ``error``: what ``mutant``'s
    tests make of a copy of the repository with its edit applied."""
    source = (REPO_ROOT / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"))
        (root / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (str(root / "src"),
                                                           os.environ.get("PYTHONPATH"))))}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    # 1: a test failed; 2: a module failed to import, so its tests could not run
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"mutants.py: unknown mutant {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    killed = True
    for name in argv or by_name:
        result = outcome(by_name[name])
        print(f"{result:<8} {name}", flush=True)
        killed &= result == "killed"
    return 0 if killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
