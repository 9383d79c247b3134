"""Garbled scenario files: `partsim run` answers with a documented exit
code and never raises."""

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from partsim.cli import main

from conftest import SCENARIO_DIR

SCENARIOS = {p.name: p.read_text(encoding="utf-8") for p in sorted(SCENARIO_DIR.glob("*.scn"))}

# no large numbers, so every garbled run stays short
JUNK = ("", "abc", "-1", "0", "6x", "1xs", "one", ",", "->")


def _corrupt(line: str, junk: str) -> str:
    """Swap the value of ``key = value`` (or a line's last token) for junk."""
    if "=" in line:
        return f"{line.partition('=')[0]}= {junk}"
    tokens = line.split()
    return " ".join(tokens[:-1] + [junk])


@st.composite
def garbled_scenarios(draw):
    lines = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))].splitlines()
    edits = draw(st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(("drop", "duplicate", "corrupt")),
                  st.sampled_from(JUNK)),
        min_size=1, max_size=6,
    ))
    for index, op, junk in edits:
        if not lines:
            break
        i = index % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = _corrupt(lines[i], junk)
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=100)
@given(garbled_scenarios())
def test_garbled_scenario_gets_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copy(SCENARIO_DIR / "cookbook.xml", work / "cookbook.xml")
        scn = work / "garbled.scn"
        scn.write_text(text, encoding="utf-8")
        code = main(["run", str(scn), "--out", str(work / "o.csv"),
                     "--trace", str(work / "o.trace")])
    assert code in {0, 1, 2, 3}
