"""Output contract: every shipped scenario's CSV, trace, stdout and exit code.

The files under ``tests/golden/`` were written once by
``partsim run scenarios/<scenario>.scn --out <name>.csv --trace <name>.trace``
plus the case's extra flags (stdout to ``<name>.stdout``, exit code to
``<name>.exit``).  A broker scenario has no trace, so its case runs without
``--trace`` and has no trace file.  ``overrun_long`` runs about 200 frames
and ends in mid-frame, long enough for the engine to fast-forward over the
repeating part of the run; ``cookbook_long`` does the same for 250 frames
that repeat from the second one on, so its trace is almost all shifted
copies.  ``report.stdout`` and ``report.exit`` pin ``partsim report`` over
all of those CSVs at once; they were written by the code of the commit
before ``read_csv`` was rewritten and ``report`` learnt to keep modes
apart, so both changes are checked against the old output.  A change
that alters any of these bytes must say so and replace the files on
purpose.
"""

import pytest

from partsim.cli import main

from conftest import REPO_ROOT, SCENARIO_DIR

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
CASES = {  # name -> (scenario, extra flags)
    "cookbook": ("cookbook", ()),
    "overrun": ("overrun", ()),
    "ratio_demo": ("ratio_demo", ()),
    "sweep": ("sweep", ()),
    "broker": ("broker", ()),
    "overrun_long": ("overrun", ("--until", "200500us")),
    "cookbook_long": ("cookbook", ("--until", "250700us")),
}


@pytest.mark.parametrize("name", CASES)
def test_shipped_scenario_output_is_unchanged(name, tmp_path, capsys):
    scenario, flags = CASES[name]
    csv_path, trace_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.trace"
    traced = (GOLDEN_DIR / f"{name}.trace").exists()
    code = main(["run", str(SCENARIO_DIR / f"{scenario}.scn"), "--out", str(csv_path),
                 *(("--trace", str(trace_path)) if traced else ()), *flags])
    out = capsys.readouterr().out

    def golden(suffix: str) -> bytes:
        return (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()

    assert f"{code}\n".encode() == golden("exit")
    assert out.encode() == golden("stdout")
    assert csv_path.read_bytes() == golden("csv")
    assert trace_path.exists() == traced
    if traced:
        assert trace_path.read_bytes() == golden("trace")


def test_report_of_the_golden_csvs_is_unchanged(capsys):
    code = main(["report", *(str(GOLDEN_DIR / f"{name}.csv") for name in sorted(CASES))])
    assert f"{code}\n".encode() == (GOLDEN_DIR / "report.exit").read_bytes()
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "report.stdout").read_bytes()
