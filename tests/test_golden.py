"""Output contract: every shipped scenario's CSV, trace, stdout and exit code.

The files under ``tests/golden/`` were written once by
``partsim run scenarios/<name>.scn --out <name>.csv --trace <name>.trace``
(stdout to ``<name>.stdout``, exit code to ``<name>.exit``).  A change that
alters any of these bytes must say so and replace the files on purpose.
"""

import pytest

from partsim.cli import main

from conftest import REPO_ROOT, SCENARIO_DIR

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
SCENARIOS = ("cookbook", "overrun", "ratio_demo", "sweep", "broker")


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenario_output_is_unchanged(name, tmp_path, capsys):
    csv_path, trace_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.trace"
    code = main(["run", str(SCENARIO_DIR / f"{name}.scn"),
                 "--out", str(csv_path), "--trace", str(trace_path)])
    out = capsys.readouterr().out

    def golden(suffix: str) -> bytes:
        return (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()

    assert f"{code}\n".encode() == golden("exit")
    assert out.encode() == golden("stdout")
    assert csv_path.read_bytes() == golden("csv")
    assert trace_path.read_bytes() == golden("trace")
