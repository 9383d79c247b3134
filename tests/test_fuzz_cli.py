"""Scenario files under fuzzing.

Garbled copies of the shipped scenarios: `partsim run` answers with a
documented exit code and never raises.  Scenarios written from the
documented grammar, with comments, blank lines, free section and key order
and free whitespace: each parses to the same Scenario as its canonical
form, and one mutated token makes `partsim run` exit with its documented
code and a message that names the token's key or section; so does a
number written in a form that no literal takes."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from partsim.cli import main
from partsim.harness import parse_scenario

from conftest import SCENARIO_DIR, misspell_number

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


# --------------------------------------------------------------------------
# scenarios written from the grammar

FUZZ_XML = """<SystemDescription majorFrame="1000us">
  <PartitionTable>
    <Partition id="0" name="pub"/>
    <Partition id="1" name="sub"/>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="0us" duration="400us"/>
    <Slot id="1" partition="1" start="500us" duration="400us"/>
  </Schedule>
  <Channels>
    <QueuingChannel maxMessageSize="64" maxNoMessages="4">
      <Source partition="0" port="q_out"/>
      <Destination partition="1" port="q_in"/>
    </QueuingChannel>
    <SamplingChannel maxMessageSize="64" refreshPeriod="2ms">
      <Source partition="0" port="s_out"/>
      <Destination partition="1" port="s_in"/>
    </SamplingChannel>
  </Channels>
</SystemDescription>"""

INDENT = st.sampled_from(("", " ", "    ", "\t"))
AROUND = st.sampled_from(("", " ", "  ", "\t"))  # either side of "=" and "->"
GAP = st.sampled_from((" ", "  ", "\t", " \t "))  # between words
COMMENTS = st.sampled_from(("", "   ", "# note", "  # indented = comment", "#[script 9]"))
DURATIONS = st.sampled_from(("1ns", "500ns", "10us", "50us"))
# invalid wherever a value, a duration or a size stands
BAD = (",", "x,y", "1,,2")


class Line(NamedTuple):
    """One line of a written scenario, before formatting.

    ``kind`` is ``pair`` (``key = value``), ``header``, ``action``,
    ``loads`` (``relaxed -> stressed``), ``xml`` or ``comment``; ``owner``
    is the key or the section an error in the line names."""

    kind: str
    owner: str
    tokens: tuple[str, ...]
    style: tuple[str, str, str, str] = ("", " ", " ", " ")  # indent, before, after, gap

    def text(self) -> str:
        indent, before, after, gap = self.style
        if self.kind == "pair":
            key, value = self.tokens
            return f"{indent}{gap.join(key.split())}{before}={after}{value}"
        if self.kind == "header":
            return f"{indent}[{before}{' '.join(self.tokens)}{after}]"
        if self.kind == "action":
            return indent + gap.join(self.tokens)
        if self.kind == "loads":
            return f"{indent}{self.tokens[0]}{before}->{after}{self.tokens[1]}"
        return self.tokens[0]


def _styled(draw, kind, owner, tokens):
    return Line(kind, owner, tuple(tokens), (draw(INDENT), draw(AROUND), draw(AROUND), draw(GAP)))


def _actions(draw, pid):
    if pid == 0:
        choices = [("compute", draw(DURATIONS)), ("send", "q_out", "$payload"),
                   ("send", "s_out", str(draw(st.integers(1, 64)))), ("mark", "tx")]
    else:
        choices = [("compute", draw(DURATIONS)), ("recv", "q_in"), ("read", "s_in"), ("mark", "rx")]
    return draw(st.lists(st.sampled_from(choices), min_size=1, max_size=5))


@st.composite
def written_scenarios(draw):
    """``(lines, canonical)``: a valid scenario as formatted lines, and the
    same scenario written canonically (fixed order, one space, an inline
    ``[system]``, no comments).  The lines' ``system_file`` names
    ``fuzz.xml``, which holds FUZZ_XML."""
    partitioned = draw(st.booleans())
    top = {"name": draw(st.text("abc_-019", min_size=1, max_size=8)),
           "mode": "partitioned" if partitioned else "broker"}
    for key, values in (("seed", st.integers(0, 99).map(str)),
                        ("repetitions", st.integers(1, 3).map(str)),
                        ("max_frames", st.integers(1, 3).map(str)),
                        ("api_call_cost", DURATIONS)):
        if (partitioned or key in ("seed", "repetitions")) and draw(st.booleans()):
            top[key] = draw(values)
    if partitioned or draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True))
        top["payload_sizes"] = ",".join(map(str, sizes))

    sections = {}  # canonical header -> body lines as (kind, tokens)
    if partitioned:
        for pid in draw(st.sampled_from(((0, 1), (1, 0), (0,), (1,), ()))):
            body = [("action", action) for action in _actions(draw, pid)]
            if draw(st.booleans()):
                mode = ("pair", ("mode", draw(st.sampled_from(("once", "repeat")))))
                body.insert(draw(st.integers(0, len(body))), mode)
            sections[f"script {pid}"] = body
        health = draw(st.lists(st.tuples(st.sampled_from(("SLOT_OVERRUN", "MEMORY_VIOLATION")),
                                         st.sampled_from(("", " 0", " 1"))),
                               unique=True, max_size=4))
        if health or draw(st.booleans()):
            sections["health"] = [
                ("pair", (kind + pid, draw(st.sampled_from(
                    ("LOG", "SUSPEND_PARTITION", "HALT_PARTITION", "HALT_SYSTEM")))))
                for kind, pid in health]
    else:
        links = st.lists(st.sampled_from(("base=200us", "per_byte=1ns", "jitter=5us")),
                         min_size=1, max_size=3, unique=True).map(" ".join)
        broker = {"subscribers": st.just("1"), "uplink": links, "downlink": links,
                  "proc_fixed": DURATIONS, "proc_per_byte": DURATIONS,
                  "load_factor": st.sampled_from(("0", "0.5", "1.0", "2"))}
        keys = draw(st.lists(st.sampled_from(sorted(broker)), unique=True))
        if keys or draw(st.booleans()):
            sections["broker"] = [("pair", (key, draw(broker[key]))) for key in keys]
        loads = st.tuples(st.sampled_from(("0", "0.25", "1.0")),
                          st.sampled_from(("0", "0.75", "1"))).map(",".join)
        pairs = draw(st.lists(st.tuples(loads, loads), max_size=2))
        if pairs or draw(st.booleans()):
            sections["loads"] = [("loads", pair) for pair in pairs]

    canonical = [f"{key} = {value}" for key, value in top.items()]
    if partitioned:
        canonical += ["[system]", FUZZ_XML]
    for header, body in sections.items():
        canonical.append(f"[{header}]")
        for kind, tokens in body:
            canonical.append(Line(kind, "", tokens).text())

    inline = partitioned and draw(st.booleans())
    if partitioned and not inline:
        top["system_file"] = "fuzz.xml"
    lines = [_styled(draw, "pair", key, (key, value))
             for key, value in draw(st.permutations(list(top.items())))]
    blocks = list(sections.items()) + ([("system", None)] if inline else [])
    for header, body in draw(st.permutations(blocks)):
        owner = f"[{header}]"
        lines.append(Line("header", owner, tuple(header.split()),
                          (draw(INDENT), draw(st.sampled_from(("", " "))),
                           draw(st.sampled_from(("", " "))), " ")))
        if body is None:
            lines += [Line("xml", owner, (text,)) for text in FUZZ_XML.splitlines()]
        else:
            lines += [_styled(draw, kind, owner, tokens) for kind, tokens in body]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), Line("comment", "", (draw(COMMENTS),)))
    return lines, "\n".join(canonical) + "\n"


def _mutations(lines):
    """Every (index, op) a written scenario offers: ``drop`` a value or a
    last word, ``duplicate`` a line, swap in ``junk``, ``respell`` a
    later ``[script N]`` id as the id of an earlier one, give the system
    ``both`` ways (a first ``system_file`` line beside a ``[system]``
    section, or a last ``[system]`` section beside a ``system_file`` line),
    or ``misspell`` a number.  Each leaves exactly one fault in the file."""
    after_script = False
    for i, line in enumerate(lines):
        if line.kind in ("pair", "header", "action", "loads") and line.owner != "name" and any(
                c.isdigit() for c in "".join(line.tokens)):
            yield i, "misspell"
        if line.kind == "pair":
            yield from ((i, op) for op in ("drop", "duplicate", "junk"))
            if line.owner == "system_file":
                yield i, "both"
        elif line.kind == "action":
            yield i, "drop"
            if line.tokens[0] in ("compute", "send"):
                yield i, "junk"
        elif line.kind == "loads":
            yield from ((i, op) for op in ("drop", "junk"))
        elif line.kind == "xml" and i and lines[i - 1].kind == "header":
            yield i, "junk"  # the root element's open tag
        elif line.kind == "header":
            yield i, "duplicate"
            if line.tokens == ("system",):
                yield i, "both"
            if line.tokens[0] == "script":
                if after_script:
                    yield i, "respell"
                after_script = True


def _mutate(draw, lines):
    """One mutated copy of ``lines``: ``(lines, exit code, text that the
    message must hold)``."""
    offered: dict[str, dict[str, list[int]]] = {}
    for i, op in _mutations(lines):
        offered.setdefault(op, {}).setdefault(lines[i].owner, []).append(i)
    # each op as likely as any other, then each key or section, then the line
    op = draw(st.sampled_from(sorted(offered)))
    owner = draw(st.sampled_from(sorted(offered[op])))
    i = draw(st.sampled_from(offered[op][owner]))
    line = lines[i]
    junk = draw(st.sampled_from(BAD))
    code = 3 if line.owner == "system_file" and op != "duplicate" else 1
    if op == "duplicate":
        return lines[:i + 1] + lines[i:], code, line.owner
    if op == "both":
        named = "system_file: give it or an inline [system] section, not both"
        if line.owner == "system_file":  # a [system] section at the end
            return (lines + [Line("header", "[system]", ("system",))]
                    + [Line("xml", "[system]", (text,)) for text in FUZZ_XML.splitlines()],
                    1, named)
        return [Line("pair", "system_file", ("system_file", "fuzz.xml"))] + lines, 1, named
    if op == "respell":
        pid = next(other.tokens[1] for other in lines[:i]
                   if other.kind == "header" and other.tokens[0] == "script")
        aliases = (f"0{pid}", f"  {pid}") + (("-0",) if pid == "0" else ())
        alias = draw(st.sampled_from(aliases))
        line = line._replace(tokens=("script", alias))
        return (lines[:i] + [line] + lines[i + 1:], code,
                f"[script {alias}]: partition {pid} already has a script section")
    if op == "misspell":
        k = draw(st.sampled_from([k for k, token in enumerate(line.tokens)
                                  if any(c.isdigit() for c in token)]))
        fraction = line.kind == "loads" or line.tokens[0] == "load_factor"
        tokens = list(line.tokens)
        tokens[k] = misspell_number(draw, tokens[k], fraction)
        line = line._replace(tokens=tuple(tokens))
        if line.kind == "header":
            named = f"[{' '.join(tokens)}]"
        elif line.kind == "pair" and line.owner.startswith("["):  # a section's key
            named = f"{line.owner} {' '.join(tokens[0].split())}"
        else:
            named = line.owner
        return lines[:i] + [line] + lines[i + 1:], 1, named
    if line.kind == "pair":
        tokens = (line.tokens[0], "" if op == "drop" else junk)
    elif line.kind == "loads":
        tokens = (line.tokens[0], "") if op == "drop" else (junk, line.tokens[1])
    elif line.kind == "action":
        tokens = line.tokens[:-1] + (() if op == "drop" else (junk,))
    else:
        tokens = (junk,)
    return lines[:i] + [line._replace(tokens=tokens)] + lines[i + 1:], code, line.owner


def _render(lines) -> str:
    return "\n".join(line.text() for line in lines) + "\n"


@settings(deadline=None, max_examples=150)
@given(written_scenarios())
def test_written_scenario_parses_as_its_canonical_form(written):
    lines, canonical = written
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fuzz.xml").write_text(FUZZ_XML, encoding="utf-8")
        assert parse_scenario(_render(lines), Path(tmp)) == parse_scenario(canonical)


@st.composite
def mutated_scenarios(draw):
    lines, _ = draw(written_scenarios())
    return _mutate(draw, lines)


@settings(deadline=None, max_examples=150)
@given(mutated_scenarios())
def test_one_mutated_token_is_located(mutated):
    lines, code, named = mutated
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "fuzz.xml").write_text(FUZZ_XML, encoding="utf-8")
        scn = work / "mutated.scn"
        scn.write_text(_render(lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            exit_code = main(["run", str(scn), "--out", str(work / "o.csv")])
        assert (exit_code, not (work / "o.csv").exists()) == (code, True), err.getvalue()
    assert named in err.getvalue(), (named, err.getvalue())
