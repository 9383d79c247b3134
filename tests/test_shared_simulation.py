"""A partitioned run simulates one payload per distinct copy cost and
shares its measurement and halted flag with the other payloads of that
cost.  Random 2-4-partition scenarios, run both ways, must give the same
conditions, summaries, halted flag, CSV bytes and trace bytes as
``refmodels.partitioned_run``, which builds one simulation per payload."""

from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import refmodels
from partsim.harness import MeasurementError, parse_scenario, run_scenario
from partsim.results import export_csv, summarize
from partsim.trace import HmRecord, format_trace, write_trace

FRAME_US = 1000


class Spec(NamedTuple):
    """A scenario: partition i has one slot of ``slots[i]`` us at
    ``i * FRAME_US // n`` us, writes port ``o<i>`` of channel i and reads
    port ``i<i>`` of channel i - 1 (queuing or sampling by ``queuing``);
    ``scripts[i]`` is its (mode, action lines), or None for none.  ``run``
    is ``run_scenario``'s bound: ``{}``, ``{"frames": k}`` or
    ``{"until": ns}``."""

    slots: tuple[int, ...]
    queuing: tuple[bool, ...]
    depth: int
    refresh_us: int
    payloads: tuple[int, ...]
    copy_fixed_ns: int
    copy_per_byte_ns: int
    scripts: tuple[tuple[str, tuple[str, ...]] | None, ...]
    health: tuple[str, ...]
    repetitions: int
    max_frames: int
    api_call_cost_ns: int
    run: dict


def scenario_text(spec: Spec) -> str:
    n = len(spec.slots)
    partitions = "".join(f'<Partition id="{i}" name="p{i}"/>' for i in range(n))
    slots = "".join(f'<Slot id="{i}" partition="{i}" start="{i * FRAME_US // n}us" '
                    f'duration="{d}us"/>' for i, d in enumerate(spec.slots))
    size = max(spec.payloads)
    channels = ""
    for i, queuing in enumerate(spec.queuing):
        ends = f'<Source partition="{i}" port="o{i}"/><Destination partition="{(i + 1) % n}" ' \
               f'port="i{(i + 1) % n}"/>'
        channels += (f'<QueuingChannel maxMessageSize="{size}" maxNoMessages="{spec.depth}">'
                     f'{ends}</QueuingChannel>' if queuing else
                     f'<SamplingChannel maxMessageSize="{size}" refreshPeriod="{spec.refresh_us}us">'
                     f'{ends}</SamplingChannel>')
    scripts = "".join(f"[script {i}]\nmode = {script[0]}\n" + "".join(f"{a}\n" for a in script[1])
                      for i, script in enumerate(spec.scripts) if script is not None)
    health = "[health]\n" + "".join(f"{line}\n" for line in spec.health) if spec.health else ""
    return f"""name = shared
mode = partitioned
repetitions = {spec.repetitions}
payload_sizes = {",".join(map(str, spec.payloads))}
max_frames = {spec.max_frames}
api_call_cost = {spec.api_call_cost_ns}ns

[system]
<SystemDescription majorFrame="{FRAME_US}us">
<PartitionTable>{partitions}</PartitionTable>
<Schedule>{slots}</Schedule>
<Channels>{channels}</Channels>
<Hypervisor copyCostFixed="{spec.copy_fixed_ns}ns" copyCostPerByte="{spec.copy_per_byte_ns}ns"/>
</SystemDescription>

{scripts}{health}"""


def actions(i: int, n: int, reads_queuing: bool, slot_us: int, max_size: int):
    """One action line of partition i: a compute that may overrun its slot,
    a ``$payload`` or literal send on its own port, a ``$payload`` send on
    another partition's port, a receive on its own port, or a mark."""
    return st.one_of(
        st.integers(1, slot_us + 60).map(lambda us: f"compute {us}us"),
        st.just(f"send o{i} $payload"),
        st.integers(1, max_size + 8).map(lambda size: f"send o{i} {size}"),
        st.integers(1, n - 1).map(lambda k: f"send o{(i + k) % n} $payload"),
        st.just(f"recv i{i}" if reads_queuing else f"read i{i}"),
        st.sampled_from(("mark tx", "mark rx")),
    )


HEALTH_KINDS = ("SLOT_OVERRUN", "MEMORY_VIOLATION")
HEALTH_ACTIONS = ("LOG", "SUSPEND_PARTITION", "HALT_PARTITION", "HALT_SYSTEM", "HALT_SYSTEM")


@st.composite
def specs(draw) -> Spec:
    n = draw(st.integers(2, 4))
    slots = tuple(draw(st.integers(40, FRAME_US // n - 10)) for _ in range(n))
    queuing = tuple(draw(st.booleans()) for _ in range(n))
    payloads = tuple(draw(st.lists(st.integers(1, 2_000), min_size=1, max_size=4, unique=True)))
    # mostly, partition 0 sends to partition 1 first, both marked
    piped = draw(st.sampled_from((True, True, True, False)))
    scripts = []
    for i in range(n):
        reads_queuing = queuing[(i - 1) % n]
        lines = draw(st.lists(actions(i, n, reads_queuing, slots[i], max(payloads)), max_size=5))
        if piped and i == 0:
            lines = ["compute 20us", "send o0 $payload", "mark tx", *lines]
        elif piped and i == 1:
            lines = ["recv i1" if reads_queuing else "read i1", "mark rx", *lines]
        mode = draw(st.sampled_from(("once", "repeat")))
        scripts.append((mode, tuple(lines)) if lines else None)
    rules = draw(st.lists(st.tuples(st.sampled_from(HEALTH_KINDS), st.integers(-1, n - 1)),
                          max_size=4, unique=True))
    health = tuple(f"{kind}{'' if pid < 0 else f' {pid}'} = {draw(st.sampled_from(HEALTH_ACTIONS))}"
                   for kind, pid in rules)
    run = draw(st.one_of(st.just({}), st.builds(dict, frames=st.integers(1, 6)),
                         st.builds(dict, until=st.integers(0, 6 * FRAME_US).map(lambda us: 1000 * us + 7))))
    return Spec(slots, queuing, draw(st.integers(1, 3)), draw(st.sampled_from((100, 2000))),
                payloads, draw(st.sampled_from((0, 1, 500, 20_000))),
                draw(st.sampled_from((0, 1, 7))), tuple(scripts), health,
                draw(st.integers(1, 5)), draw(st.integers(1, 6)),
                draw(st.sampled_from((0, 0, 3_000))), run)


PIPE = (("once", ("compute 100us", "send o0 $payload", "mark tx")), ("once", ("recv i1", "mark rx")))
BASE = Spec(slots=(400, 400), queuing=(True, True), depth=2, refresh_us=2000,
            payloads=(1, 1000, 50, 2000), copy_fixed_ns=500, copy_per_byte_ns=1, scripts=PIPE,
            health=(), repetitions=3, max_frames=2, api_call_cost_ns=0, run={})
EXAMPLES = {
    # four copy costs, each payload measured: the latencies differ
    "priced": BASE,
    # one copy cost for four payloads, three of them not simulated
    "free": BASE._replace(copy_per_byte_ns=0, queuing=(False, True), run={"frames": 3},
                          scripts=(PIPE[0], ("once", ("read i1", "mark rx")))),
    # a send on another partition's port halts the system
    "foreign halt": BASE._replace(
        scripts=(("once", ("send o1 $payload", "mark tx")), PIPE[1]),
        health=("MEMORY_VIOLATION = HALT_SYSTEM",)),
    # an overrun halts the producer before it sends, under an until bound
    "overrun": BASE._replace(
        scripts=(("repeat", ("compute 450us", "send o0 $payload", "mark tx")), PIPE[1]),
        health=("SLOT_OVERRUN 0 = HALT_PARTITION",), run={"until": 3_500_000}),
    # no tx/rx marks: no condition, the trace only
    "unmarked": BASE._replace(scripts=(("repeat", ("send o0 $payload",)), ("repeat", ("recv i1",))),
                              max_frames=5),
    # marks that never pair within max_frames: a MeasurementError
    "unpaired": BASE._replace(scripts=(("once", ("mark tx",)), ("once", ("mark rx",)))),
}


def outcome(run, sc, bounds):
    """``run(sc, **bounds)``, or the text of its MeasurementError."""
    try:
        return run(sc, **bounds)
    except MeasurementError as exc:
        return str(exc)


def features(spec: Spec, result) -> set[str]:
    """What a run of ``spec`` reaches: payloads that share a copy cost,
    more than one copy cost among measured payloads, a halt, an overrun, a
    violation, a bound, no condition and a MeasurementError."""
    if isinstance(result, str):
        return {"measurement error"}
    found = {f"bound {key}" for key in spec.run}
    costs = [spec.copy_fixed_ns + spec.copy_per_byte_ns * p for p in spec.payloads]
    if len(set(costs)) < len(costs):
        found.add("shared cost")
    if len({c.measurement[1] - c.measurement[0] for c in result.conditions}) > 1:
        found.add("latencies differ")
    if result.halted:
        found.add("halted")
    if not result.conditions:
        found.add("no condition")
    found |= {r.kind for r in result.trace if type(r) is HmRecord}
    return found


def test_each_fixed_example_reaches_its_edge_case():
    reached = {name: features(spec, outcome(run_scenario, parse_scenario(scenario_text(spec)),
                                            spec.run))
               for name, spec in EXAMPLES.items()}
    assert {"latencies differ"} <= reached["priced"]
    assert {"shared cost", "bound frames"} <= reached["free"]
    assert {"halted", "MEMORY_VIOLATION", "no condition"} <= reached["foreign halt"]
    assert {"SLOT_OVERRUN", "bound until", "no condition"} <= reached["overrun"]
    assert {"no condition"} <= reached["unmarked"]
    assert reached["unpaired"] == {"measurement error"}


def with_examples(test):
    for spec in EXAMPLES.values():
        test = example(spec=spec)(test)
    return test


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("shared")


@settings(max_examples=80)
@given(spec=specs())
@with_examples
def test_a_run_equals_one_simulation_per_payload(spec, out):
    sc = parse_scenario(scenario_text(spec))
    got = outcome(run_scenario, sc, spec.run)
    expected = outcome(refmodels.partitioned_run, sc, spec.run)
    if isinstance(expected, str):
        assert got == expected
        return
    conditions, trace, halted = expected
    assert [tuple(c)[:5] for c in got.conditions] == [tuple(c)[:5] for c in conditions]
    assert [c.summary() for c in got.conditions] == [
        summarize("latency", [c.measurement[1] - c.measurement[0]] * c.repetitions,
                  c.measurement[2]) for c in conditions]
    assert got.halted == halted
    export_csv(got, out / "got.csv")
    refmodels.export_csv(conditions, out / "expected.csv")
    assert (out / "got.csv").read_bytes() == (out / "expected.csv").read_bytes()
    write_trace(got.trace, out / "got.trace")
    assert (out / "got.trace").read_bytes() == format_trace(trace).encode("ascii")
