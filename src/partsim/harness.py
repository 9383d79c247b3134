"""Scenario files and experiment execution.

A scenario is a flat key-value file with sections.  It either embeds the
system XML (partitioned mode) or describes a broker topology (broker
mode), plus the partition scripts, the health table, payload sizes,
repetition count, and the RNG seed.  ``#`` starts a comment only at the
start of a line; later in a line it is part of the value::

    name = cookbook
    # or: broker
    mode = partitioned
    seed = 1
    repetitions = 100
    # comma-separated distinct byte counts
    payload_sizes = 64
    # per-simulation run bound
    max_frames = 2
    api_call_cost = 0ns

    # inline XML (or: system_file = rel/path.xml)
    [system]
    <SystemDescription ...> ... </SystemDescription>

    # one section per partition id
    [script 0]
    # or: repeat; at most once
    mode = once
    compute 100us
    send out $payload
    mark tx

    # optional action table overrides
    [health]
    SLOT_OVERRUN = LOG
    # per-partition override
    SLOT_OVERRUN 0 = HALT_PARTITION

    # broker mode: the one publisher -> broker -> subscriber path
    # (subscribers must be 1); omitted keys keep the default_topology()
    [broker]
    subscribers = 1
    uplink = base=200us per_byte=0ns jitter=50us
    downlink = base=200us per_byte=0ns jitter=50us
    proc_fixed = 20us
    proc_per_byte = 5ns
    load_factor = 1.0

    # broker mode: one pair per line, relaxed cpu,mem -> stressed cpu,mem
    [loads]
    0.0,0.0 -> 1.0,0.75

One reader, ``_read_pairs``, reads every ``key = value`` line (the top
level, ``[broker]``, ``[health]``, a script's ``mode``).  ``_KEYS`` gives
each top-level key, and ``_SECTIONS`` each section by its header's first
word, the mode that reads it and how it is parsed.  Only partitioned
scenarios read ``max_frames``, ``api_call_cost``, ``system_file``,
``[system]``, ``[script N]`` and ``[health]``; only broker scenarios read
``[broker]`` and ``[loads]``.  A key or section of the other mode, like a
malformed value, a second ``[script N]`` for one partition or a system XML
error, raises a ScenarioError that names it.

Each number's least value is checked once, where it is read, by its
``units`` reader: ``repetitions``, ``max_frames``, each payload size and
a script's send size are at least 1, and the seed, every duration and
``load_factor`` at least 0.  ``_parse_load`` keeps both fractions of a
load in [0,1].  ``middleware`` checks no broker value again.
``validate_scenario`` checks the values that no reader checks: the name
is a non-empty ASCII CSV cell and file name, the payload sizes are
distinct and the rows stay below the seed stride; in a partitioned
scenario, the system (``validate``), each script (below) and each health
override's partition too.  Each of these rules has this one owner: the
engine, the ports and ``summarize`` trust a parsed scenario and check
none again.

``validate_scenario`` checks a script's port calls by name only: a name
that no channel's source or destination has is a typo (``SCRIPT_PORT``).
A call on a port that another partition owns is a fault to simulate, not
a finding: it runs, and the engine raises a MEMORY_VIOLATION against the
caller, the same as through the ``SimState`` API.  Only a call on the
partition's own port is checked further (``SCRIPT_SIZE``,
``SCRIPT_KIND``).

A run's results, their statistics and the CSV are in ``results``.  Output
is byte-deterministic for a fixed scenario and seed.

A broker row depends only on the run seed and its own row number, so a
large broker run splits its row range ``[0, rows)`` into one contiguous
range per worker: ``min(cores, rows // ROWS_PER_WORKER)`` workers when a
link is jittered, else one, where ``cores`` is the number this process may
run on.  Each worker draws its range, renders those rows' CSV bytes
(``results.broker_rows``) and takes their delay column, sorted, for the
summary.  This process is the worker of the first range; each other range
runs in a child made with ``os.fork``, which sends its bytes and delays
back through a pipe as one ``marshal`` blob.  The parent only joins each
condition's bytes and delays in row order.  The bytes never depend on the
number of workers.  A child ends only through ``os._exit``; a worker
whose pipe or fork fails, or that dies or exits non-zero, is a
``WorkerError``, and every child is reaped (killed first on an error
path) before the run returns or raises.
"""

from __future__ import annotations

import _signal  # the C module under ``signal``, loaded by every interpreter
import marshal
import os
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

from . import middleware, trace as trace_mod, workload
from .config import ConfigError, Finding, SystemConfig, parse_config, validate
from .health import DEFAULT_ACTIONS, HealthAction, HmKind
from .middleware import BrokerTopology, LinkModel, LoadProfile
from .results import Condition, Mode, broker_rows
# not called here: bench/tracing.py wraps these three by their harness.*
# names, as it does scheduler's validate, until it wraps them in results
from .results import export_csv, read_csv, summarize  # noqa: F401
from .scheduler import SimState
from .units import Duration, fraction_text, parse_duration, parse_fraction, parse_integer
from .workload import AppScript, Mark, Read, Receive, ScriptMode, Send


# the most CSV rows a run may write; a broker row's number seeds its jitter,
# so it must stay below the seed stride
MAX_ROWS = middleware.SEED_STRIDE

# the fewest broker rows a worker is given: forking and reaping a worker
# took 2-4 ms, the work of 250-500 rows (about 8 us a row drawn, rendered
# and its delay sorted; 2-core Xeon, CPython 3.11), so a worker's share is
# worth at least twice its fork
ROWS_PER_WORKER = 1000


class ScenarioError(ValueError):
    """Malformed or invalid scenario file."""


class MeasurementError(RuntimeError):
    """The run ended without observing the tx/rx mark pair."""


class WorkerError(RuntimeError):
    """A broker worker could not be forked, or died or exited without
    sending its rows."""


class Scenario(NamedTuple):
    """A parsed scenario; ``parse_scenario`` sets every field."""

    name: str
    mode: Mode
    system: SystemConfig | None
    topology: BrokerTopology | None
    scripts: dict[int, AppScript]
    payload_sizes: tuple[int, ...]
    repetitions: int
    seed: int
    health_table: dict[tuple[HmKind, int | None], HealthAction]  # see health
    load_pairs: tuple[tuple[LoadProfile, LoadProfile], ...]
    api_call_cost: Duration
    max_frames: int


class RunResult:
    """``len()`` is the number of CSV rows the conditions make."""

    def __init__(self, conditions: list[Condition],
                 trace: trace_mod.PeriodicTrace | None = None, halted: bool = False) -> None:
        self.conditions, self.trace, self.halted = conditions, trace, halted

    def __len__(self) -> int:
        return sum(c.repetitions for c in self.conditions)


# --------------------------------------------------------------------------
# scenario file parsing


def _read_pairs(lines: list[str], where: str):
    """Yield each line's (key, value): split at the first ``=``, the key's
    words joined by one space, the value stripped.  ``where`` names the
    section ("" at the top level); a line without ``=`` or a repeated key
    raises a ScenarioError when it is reached, after the pairs before it."""
    seen = set()
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(
                f"{where or 'top level'}: expected 'key = value', got {line.strip()!r}")
        key = " ".join(key.split())
        if key in seen:
            raise ScenarioError(f"{f'{where} {key}'.strip()}: duplicate key")
        seen.add(key)
        yield key, value.strip()


def _split_sections(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The top-level pairs, then each section's lines by its name as
    written; blank and comment lines are dropped."""
    top_lines: list[str] = []
    blocks: list[tuple[str, list[str]]] = []
    current = top_lines
    for raw in text.splitlines():
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = []
            blocks.append((stripped[1:-1].strip(), current))
        else:
            current.append(line)
    top = dict(_read_pairs(top_lines, ""))
    sections: dict[str, list[str]] = {}
    for name, lines in blocks:
        if name in sections:
            raise ScenarioError(f"duplicate section [{name}]")
        sections[name] = lines
    return top, sections


def _convert(where: str, convert, *args):
    """``convert(*args)``, with a ValueError or ConfigError other than a
    ScenarioError re-raised as a ScenarioError that names ``where``."""
    try:
        return convert(*args)
    except ScenarioError:
        raise
    except (ValueError, ConfigError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_link(value: str) -> LinkModel:
    """``base=``, ``per_byte=`` and ``jitter=`` durations, each at most
    once and at least one of them; an omitted field is 0."""
    fields: dict[str, Duration] = {}
    for token in value.split():
        key, _, val = token.partition("=")
        if key not in ("base", "per_byte", "jitter"):
            raise ValueError(f"unknown link field {key!r}")
        if key in fields:
            raise ValueError(f"duplicate link field {key!r}")
        fields[key] = parse_duration(val)
    if not fields:
        raise ValueError("expected base=, per_byte= or jitter= fields")
    return LinkModel(fields.get("base", 0), fields.get("per_byte", 0), fields.get("jitter", 0))


def _parse_load(value: str) -> LoadProfile:
    """``cpu,mem``: two fractions, each in [0,1]."""
    parts = value.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'cpu,mem', got {value.strip()!r}")
    load = LoadProfile(*map(parse_fraction, parts))
    for name, fraction in zip(load._fields, load):
        if not 0 <= fraction <= 1:
            raise ValueError(f"{name} must be in [0,1], got {fraction_text(fraction)}")
    return load


def _parse_sizes(text: str) -> tuple[int, ...]:
    items = text.split(",")
    if not all(p.strip() for p in items):
        raise ValueError(f"empty item in {text!r}")
    return tuple(parse_integer(p, 1) for p in items)


# A section parser, ``parse(fields, where, header_id, lines)``, sets the
# Scenario ``fields`` its section gives; ``where`` is the header as written.

_BROKER_KEYS = {
    "uplink": _parse_link,
    "downlink": _parse_link,
    "proc_fixed": parse_duration,
    "proc_per_byte": parse_duration,
    "load_factor": partial(parse_fraction, least=0),
}


def _parse_broker(fields: dict, where: str, _: str, lines: list[str]) -> None:
    """The one publisher -> broker -> subscriber path; omitted keys keep
    the calibration of ``middleware.default_topology``."""
    kv = dict(_read_pairs(lines, where))
    subscribers = _convert(f"{where} subscribers", parse_integer, kv.pop("subscribers", "1"))
    if subscribers != 1:
        raise ScenarioError(
            f"{where} subscribers: exactly one subscriber is modelled, got {subscribers}")
    unknown = set(kv) - set(_BROKER_KEYS)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    fields["topology"] = fields["topology"]._replace(**{
        key: _convert(f"{where} {key}", _BROKER_KEYS[key], text) for key, text in kv.items()})


def _parse_loads(fields: dict, where: str, _: str, lines: list[str]) -> None:
    """One ``relaxed -> stressed`` pair per line; none keeps the default."""
    pairs = []
    for line in lines:
        relaxed_text, sep, stressed_text = line.partition("->")
        if not sep:
            raise ScenarioError(f"{where}: expected 'r_cpu,r_mem -> s_cpu,s_mem', got {line!r}")
        pairs.append((_convert(f"{where} relaxed", _parse_load, relaxed_text),
                      _convert(f"{where} stressed", _parse_load, stressed_text)))
    fields["load_pairs"] = tuple(pairs) or fields["load_pairs"]


def _parse_health(fields: dict, where: str, _: str, lines: list[str]) -> None:
    """``KIND [partition] = ACTION`` lines."""
    table = fields["health_table"]
    for key, value in _read_pairs(lines, where):
        parts = key.split()
        if len(parts) not in (1, 2):
            raise ScenarioError(f"{where} {key}: expected 'KIND [partition] = ACTION'")
        try:
            action = HealthAction[value]
        except KeyError:
            raise ScenarioError(f"{where}: unknown action {value!r}") from None
        try:
            kind = HmKind[parts[0]]
        except KeyError:
            raise ScenarioError(f"{where}: unknown event kind {parts[0]!r}") from None
        if len(parts) == 1:
            table[kind, None] = action
            continue
        pid = _convert(f"{where} {key}", parse_integer, parts[1])
        if (kind, pid) in table:  # an earlier line's key, spelt otherwise
            raise ScenarioError(f"{where} {key}: duplicate key")
        table[kind, pid] = action


_SCRIPT_MODES = {"once": ScriptMode.ONCE, "repeat": ScriptMode.REPEAT_EACH_SLOT}


def _parse_script_section(fields: dict, where: str, header_id: str, lines: list[str]) -> None:
    """One section per partition: a ``mode = once|repeat`` line (in any
    case) at most once, and every other line an action."""
    pid = parse_integer(header_id)
    if pid in fields["scripts"]:
        raise ScenarioError(f"{where}: partition {pid} already has a script section")
    mode_lines, action_lines = [], []
    for line in lines:
        key, sep, _ = line.partition("=")
        if sep and key.strip().lower() == "mode":
            mode_lines.append(line.lower())
        else:
            action_lines.append(line)
    mode = ScriptMode.ONCE
    for _, value in _read_pairs(mode_lines, where):
        if value not in _SCRIPT_MODES:
            raise ScenarioError(f"{where}: unknown mode {value!r}")
        mode = _SCRIPT_MODES[value]
    fields["scripts"][pid] = workload.parse_script(action_lines, pid, mode)


# Every top-level key: the mode that reads it (None: both), its converter
# and default, in the order of conversion.  ``parse_scenario`` reads the
# two without a converter first.
_KEYS = {
    "name": (None, str, None),
    "mode": (None, None, None),
    "payload_sizes": (None, _parse_sizes, (1, 1_000_000, 6_000_000)),
    "repetitions": (None, partial(parse_integer, least=1), 100),
    "seed": (None, partial(parse_integer, least=0), 0),
    "api_call_cost": (Mode.PARTITIONED, parse_duration, 0),
    "max_frames": (Mode.PARTITIONED, partial(parse_integer, least=1), 16),
    "system_file": (Mode.PARTITIONED, None, None),
}

# Every section by the first word of its header: the mode that reads it,
# whether the rest of the header is an id, and its parser.  ``[system]`` has
# none: ``parse_scenario`` reads it first, as the system.
_SECTIONS = {
    "system": (Mode.PARTITIONED, False, None),
    "script": (Mode.PARTITIONED, True, _parse_script_section),
    "health": (Mode.PARTITIONED, False, _parse_health),
    "broker": (Mode.BROKER, False, _parse_broker),
    "loads": (Mode.BROKER, False, _parse_loads),
}


def parse_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    """Parse and validate a scenario document, the one place a scenario is
    checked, each broker range included; raises ScenarioError (the
    ``validate_scenario`` findings joined by "; " when there are any), or
    OSError naming ``system_file`` when that file cannot be read."""
    top, sections = _split_sections(text)

    unknown = set(top) - set(_KEYS)
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}")
    if "name" not in top or "mode" not in top:
        raise ScenarioError("scenario needs 'name' and 'mode'")
    try:
        mode = Mode(top["mode"].lower())
    except ValueError:
        raise ScenarioError(f"mode must be partitioned or broker, got {top['mode']!r}") from None
    foreign = sorted(key for key in top if _KEYS[key][0] not in (None, mode))
    foreign += [f"[{name}]" for name in sections
                if _SECTIONS.get(name.partition(" ")[0], (mode,))[0] is not mode]
    if foreign:
        raise ScenarioError(f"{', '.join(foreign)}: not read by a {mode.value} scenario")

    system = None
    if "system" in sections and "system_file" in top:
        raise ScenarioError("system_file: give it or an inline [system] section, not both")
    if "system" in sections:
        system = _convert("[system]", parse_config, "\n".join(sections.pop("system")))
    elif "system_file" in top:
        path = Path(top["system_file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            xml = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"system_file: {exc}") from None
        system = _convert("system_file", parse_config, xml)

    broker = mode is Mode.BROKER
    fields = {"scripts": {}, "health_table": dict(DEFAULT_ACTIONS),
              "topology": middleware.default_topology() if broker else None,
              "load_pairs": ((LoadProfile(0.0, 0.0), LoadProfile(1.0, 0.75)),) if broker else ()}
    for name, lines in sections.items():
        where = f"[{name}]"
        first, _, header_id = name.partition(" ")
        _, takes_id, parse = _SECTIONS.get(first, (None, False, None))
        if parse is None or takes_id != bool(header_id):
            raise ScenarioError(f"unknown section {where}")
        _convert(where, parse, fields, where, header_id, lines)

    for key, (_, convert, default) in _KEYS.items():
        if convert is not None:
            fields[key] = _convert(key, convert, top[key]) if key in top else default
    scenario = Scenario(mode=mode, system=system, **fields)
    findings = validate_scenario(scenario)
    if findings:
        raise ScenarioError("; ".join(str(f) for f in findings))
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


def validate_scenario(sc: Scenario) -> list[Finding]:
    findings: list[Finding] = []

    def err(code: str, location: str, message: str) -> None:
        findings.append(Finding(code, location, message))

    if not sc.name:
        err("NAME", "scenario", "name must not be empty")
    if "," in sc.name:
        err("NAME", "scenario", "name must not contain ',' (it is a CSV cell)")
    if not sc.name.isascii():
        err("NAME", "scenario", "name must be ASCII (it is a CSV cell)")
    if "/" in sc.name or "\0" in sc.name:
        err("NAME", "scenario", "name must not contain '/' or NUL (it names the default CSV file)")
    if len(set(sc.payload_sizes)) != len(sc.payload_sizes):
        err("PAYLOAD", "scenario", "payload sizes must be distinct")
    rows = len(sc.payload_sizes) * max(len(sc.load_pairs), 1) * sc.repetitions
    if rows > MAX_ROWS:
        err("ROWS", "scenario", f"payload sizes x load pairs x repetitions = {rows} "
            f"exceeds the row limit {MAX_ROWS}")

    if sc.mode is Mode.PARTITIONED:
        if sc.system is None:
            err("NO_SYSTEM", "scenario", "partitioned mode needs a [system] section")
            return findings
        findings.extend(validate(sc.system))
        partitions = {p.id for p in sc.system.partitions}
        sources = {(c.source.partition_id, c.source.port): c for c in sc.system.channels}
        dests = {(d.partition_id, d.port): c
                 for c in sc.system.channels for d in c.destinations}
        ports = {port for _, port in (*sources, *dests)}
        for pid, script in sc.scripts.items():
            loc = f"script {pid}"
            if pid not in partitions:
                err("UNKNOWN_PARTITION", loc, "script references a missing partition")
                continue
            for action in script.actions:
                kind = type(action)
                if kind not in (Send, Receive, Read):
                    continue
                ch = (sources if kind is Send else dests).get((pid, action.port))
                if ch is None:  # another partition's port runs: a MEMORY_VIOLATION
                    if action.port not in ports:
                        err("SCRIPT_PORT", loc, f"no channel has a port {action.port!r}")
                elif kind is Send and action.size is None and any(
                        p > ch.max_message_size for p in sc.payload_sizes):
                    err("SCRIPT_SIZE", loc,
                        f"payload sweep exceeds maxMessageSize={ch.max_message_size}")
                elif kind is Receive and ch.capacity is None:
                    err("SCRIPT_KIND", loc, f"recv on sampling port {action.port!r} (use read)")
                elif kind is Read and ch.refresh_period is None:
                    err("SCRIPT_KIND", loc, f"read on queuing port {action.port!r} (use recv)")
        for kind, pid in sc.health_table:
            if pid is not None and pid not in partitions:
                err("UNKNOWN_PARTITION", f"health {kind.value} {pid}",
                    "health override references a missing partition")
    return findings


# --------------------------------------------------------------------------
# execution


def _has_measurement_marks(scripts: dict[int, AppScript]) -> bool:
    labels = {
        a.label for s in scripts.values() for a in s.actions if isinstance(a, Mark)
    }
    return "tx" in labels and "rx" in labels


def _measure(trace: trace_mod.PeriodicTrace, system: SystemConfig):
    """Extract (t_send, t_recv, gap) from one repetition's trace.

    t_send is the first ``tx`` mark; t_recv is the first ``rx`` mark at or
    after the first successful receive/read, so the measured endpoint
    reflects an actual delivery.

    The scan reads each piece's built records and only the first copy of
    its repeated period: the first ``tx`` or delivery of any copy is
    already among the built records, every ``rx`` of copy 1 is at or after
    each delivery built before it, and later copies repeat copy 1 later.
    So a run whose marks never pair reads no more than it built, plus one
    period per repeat, however many frames it ran.
    """
    records = chain.from_iterable(
        chain(islice(trace.built, first, end), trace_mod._copies(period, min(periods, 1), *rest))
        for first, end, period, (periods, *rest) in trace.pieces())
    t_send = send_partition = None
    delivery_time = delivery_partition = None
    t_recv = None
    for r in records:
        kind = type(r)
        if kind is trace_mod.MarkRecord:
            if r.label == "tx" and t_send is None:
                t_send, send_partition = r.time, r.partition
            elif (
                r.label == "rx"
                and delivery_time is not None
                and r.time >= delivery_time
                and t_recv is None
            ):
                t_recv = r.time
            if t_send is not None and t_recv is not None:
                break  # t_recv implies its delivery: later records change nothing
        elif (
            kind is trace_mod.PortOpRecord
            and delivery_time is None
            and r.op in ("RECV", "READ")
            and r.result in ("OK", "STALE")
        ):
            delivery_time, delivery_partition = r.time, r.partition
    if t_send is None or t_recv is None:
        return None
    plan = system.plan
    src = plan.slot_at(send_partition, t_send)
    dst = plan.slot_at(delivery_partition, delivery_time)
    return t_send, t_recv, None if src is None or dst is None or src == dst else plan.gap(src, dst)


def run_scenario(
    sc: Scenario,
    *,
    until: Duration | None = None,
    frames: int | None = None,
    seed: int | None = None,
) -> RunResult:
    """Run every payload (and load pair) of a parsed scenario, one
    Condition per (scenario label, mode, payload).  ``until`` (>= 0) or
    ``frames`` (>= 1) overrides the run bound of a partitioned scenario and
    ``seed`` (>= 0) the scenario seed (broker jitter only); the caller
    checks them, as ``cli`` does."""
    if sc.mode is Mode.PARTITIONED:
        return _run_partitioned(sc, until=until, frames=frames)
    return _run_broker(sc, seed=sc.seed if seed is None else seed)


def _run_partitioned(
    sc: Scenario, *, until: Duration | None, frames: int | None
) -> RunResult:
    """One condition per measured payload, from one simulation per
    distinct copy cost ``system.copy_cost.of(payload)``: the first payload
    of each cost is simulated and the others reuse its measurement and
    halted flag.  That is exact because a payload reaches the engine only
    through that cost and the ``maxMessageSize`` check of a ``$payload``
    send, which ``validate_scenario`` makes every own-port send pass
    (``SCRIPT_SIZE``; a send on another partition's port is NOT_OWNER
    before the check).  Only the size cells of the trace differ, and the
    run's trace is the first payload's."""
    system = sc.system
    assert system is not None
    frame = system.plan.major_frame
    explicit_bound = until is not None or frames is not None
    if until is not None:
        bound = until
    elif frames is not None:
        bound = frames * frame
    else:
        bound = sc.max_frames * frame
    measuring = _has_measurement_marks(sc.scripts)

    conditions: list[Condition] = []
    first_trace: trace_mod.PeriodicTrace | None = None
    halted = False
    runs: dict[Duration, tuple] = {}  # copy cost -> (measurement, halted) of its first payload
    for payload in sc.payload_sizes:
        cost = system.copy_cost.of(payload)
        if cost not in runs:
            sim = SimState(
                system,
                scripts={pid: s.bind_payload(payload) for pid, s in sc.scripts.items()},
                health_table=sc.health_table,
                api_call_cost=sc.api_call_cost,
            )
            sim.boot()
            sim.run_until(bound)
            if first_trace is None:
                first_trace = sim.trace
            runs[cost] = _measure(sim.trace, system) if measuring else None, sim.halted
        measured, sim_halted = runs[cost]
        halted = halted or sim_halted
        if not measuring:
            continue
        if measured is None:
            if explicit_bound or sim_halted:
                continue  # caller asked for a bounded/aborted run
            raise MeasurementError(
                f"{sc.name}: no tx/rx mark pair observed within {bound} ns"
            )
        conditions.append(Condition(sc.name, sc.mode, payload, sc.repetitions, measured))
    return RunResult(conditions, first_trace, halted)


def _cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say
    or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work, first: int, end: int, inherited: list[int]) -> tuple[int, int]:
    """Fork a child that writes ``marshal.dumps(work(first, end))`` to a
    new pipe and ends through ``os._exit``: 0 once the blob is written,
    1 on any exception, so nothing unwinds into the caller's frames.  The
    caller blocks signals around the fork; the child keeps them blocked,
    and first closes the ``inherited`` read ends of its siblings' pipes.
    The child takes no lock that another thread of the parent may hold: it
    only computes and calls ``os.write``.  Returns the child's pid and the
    pipe's read end; an OSError from ``os.pipe`` or ``os.fork`` is a
    WorkerError."""
    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError as exc:
        rows = f"{first}-{end - 1}"
        raise WorkerError(f"the worker for broker rows {rows} could not start: {exc}") from None
    if pid == 0:
        code = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            blob = memoryview(marshal.dumps(work(first, end)))
            while blob:
                blob = blob[os.write(write_fd, blob):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _split(work, rows: int, workers: int) -> list:
    """``work(first, end)`` over ``workers`` contiguous ranges that cover
    ``[0, rows)``, in range order: the first here, each other in a forked
    child (see ``_fork``).  Every child is reaped before this returns or
    raises; on an error path the ones left are killed first."""
    bounds = [rows * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end, first, end) of each forked range, in order
    try:
        mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, _signal.valid_signals())
        try:
            for first, end in zip(bounds[1:-1], bounds[2:]):
                children.append(
                    (*_fork(work, first, end, [child[1] for child in children]), first, end))
        finally:
            _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)
        pieces = [work(bounds[0], bounds[1])]
        while children:
            pid, fd, first, end = children[0]
            blob = bytearray()  # grown in place, so the blob is held once
            while chunk := os.read(fd, 1 << 16):
                blob += chunk
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            os.close(fd)
            if status:
                how = f"was killed by signal {-status}" if status < 0 else f"exited with {status}"
                raise WorkerError(f"the worker for broker rows {first}-{end - 1} {how}")
            pieces.append(marshal.loads(blob))
        return pieces
    finally:
        for pid, fd, _, _ in children:
            os.kill(pid, _signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _run_broker(sc: Scenario, *, seed: int) -> RunResult:
    topology = sc.topology
    assert topology is not None
    if len(sc.load_pairs) == 1:
        labels = [sc.name]
    else:
        labels = [f"{sc.name}/{k}" for k in range(len(sc.load_pairs))]
    # one (label, payload, relaxed, stressed) per condition, in row order;
    # condition k holds rows k * reps to (k + 1) * reps - 1, and a row's
    # number over all conditions seeds its jitter
    plan = [(label, payload, relaxed, stressed) for payload in sc.payload_sizes
            for label, (relaxed, stressed) in zip(labels, sc.load_pairs)]
    reps = sc.repetitions

    def work(first: int, end: int) -> list[tuple[int, list[bytes], list[int]]]:
        """(k, CSV blocks, sorted delays) of each condition k's part of rows
        first..end-1; sorted, the parts' delays are runs that ``summarize``
        merges in one pass."""
        pieces = []
        for k, (label, payload, relaxed, stressed) in enumerate(plan):
            lo, hi = max(first, k * reps), min(end, (k + 1) * reps)
            if lo < hi:
                cells = middleware.condition_times(topology, payload, relaxed, stressed,
                                                   seed, lo, hi - lo)
                pieces.append((k, broker_rows(label, payload, lo - k * reps, cells),
                               sorted(cells[2::3])))
        return pieces

    rows = len(plan) * reps
    jittered = topology.uplink.jitter_stddev or topology.downlink.jitter_stddev
    workers = max(1, min(_cores(), rows // ROWS_PER_WORKER)) if jittered else 1
    blocks, delays = [[] for _ in plan], [[] for _ in plan]
    for piece in _split(work, rows, workers):
        for k, part_rows, part_delays in piece:
            blocks[k] += part_rows
            delays[k] += part_delays
    return RunResult([Condition(label, sc.mode, payload, reps, rows=blocks[k], delays=delays[k])
                      for k, (label, payload, _, _) in enumerate(plan)])
