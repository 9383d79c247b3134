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

``validate.stdout`` and ``validate.exit`` pin ``partsim validate`` on the
malformed documents of VALIDATE_CASES, one per check that the system XML
reader makes.  Each is COOKBOOK_XML with one edit, written to
``<case>.xml`` and validated in the order of the cases; ``validate.exit``
holds one exit code per document.
"""

import re

import pytest

from partsim.cli import main

from conftest import COOKBOOK_XML, REPO_ROOT, SCENARIO_DIR

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


_SOURCE = '<Source partition="0" port="out"/>'
_DESTINATION = '<Destination partition="1" port="in"/>'
VALIDATE_CASES = {  # document -> (pattern, replacement) of its first match in COOKBOOK_XML
    "not_xml": ("</SystemDescription>", ""),
    "wrong_root": ("SystemDescription(.*)SystemDescription", r"System\1System"),
    "unknown_attribute": ("<Schedule>", '<Schedule period="1ms">'),
    "missing_attribute": (' name="sub"', ""),
    "bad_integer": ('maxNoMessages="16"', 'maxNoMessages="16.0"'),
    "negative_integer": ('<Slot id="1"', '<Slot id="-1"'),
    "zero_size": ('size="0x10000"', 'size="0"'),
    "bad_duration": ('duration="400us"', 'duration="400"'),
    "negative_duration": ('copyCostFixed="0ns"', 'copyCostFixed="-1ns"'),
    "zero_major_frame": ('majorFrame="1000us"', 'majorFrame="0ms"'),
    "unknown_element": ("<Channels>", "<Channels><Bus/>"),
    "child_of_leaf": (_SOURCE, '<Source partition="0" port="out"><Slot/></Source>'),
    "stray_text": ("</Schedule>", "idle</Schedule>"),
    "repeated_section": ("</Schedule>", "</Schedule><Schedule/>"),
    "repeated_source": (_SOURCE, _SOURCE * 2),
    "missing_section": ("<Schedule>.*</Schedule>", ""),
    "missing_destination": (_DESTINATION, ""),
    "address_overflow": ('start="0x200000"', 'start="0xffffffffffff8000"'),
}


def test_validate_messages_are_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes = []
    for name, (old, new) in VALIDATE_CASES.items():
        text, found = re.subn(old, new, COOKBOOK_XML, count=1, flags=re.DOTALL)
        assert found, name
        (tmp_path / f"{name}.xml").write_text(text, encoding="utf-8")
        codes.append(f"{main(['validate', f'{name}.xml'])}\n")
    assert "".join(codes).encode() == (GOLDEN_DIR / "validate.exit").read_bytes()
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "validate.stdout").read_bytes()
