"""Seeded benchmark workloads and the outputs each one must produce.

Every generator turns a seed into scenario text plus the expected result
rows (and, for ``ring``, the expected trace record counts).  The expected
values are derived here from the documented models -- schedule arithmetic,
the hypervisor copy-cost rule and the broker delay formula -- and never
from partsim itself, so a defect in the simulator cannot hide in its own
check.  This module imports nothing from partsim.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

CSV_COLUMNS = (
    "scenario", "mode", "repetition", "payload_bytes",
    "t_send_ns", "t_recv_ns", "latency_ns", "gap_ns", "latency_to_gap_ratio",
    "tx_relaxed_ns", "tx_stressed_ns", "tx_delay_ns",
)

# Work per run at scale 1.  Chosen so one `partsim run` takes roughly half
# a second to a second on a shared 2-core machine: long enough to time, short
# enough for tens of runs in one benchmark run.
RING_FRAMES = 500
SWEEP_REPETITIONS = 800
BROKER_REPETITIONS = 4000

PAYLOADS = (1, 1_000_000, 6_000_000)


@dataclass
class Workload:
    """One generated scenario and everything needed to check its outputs.

    ``rows`` holds the expected CSV cells of every row; a ``None`` cell is
    a label that is only checked loosely (see ``check_rows``).
    ``trace_counts`` is None when the workload writes no trace.
    ``summary`` maps (scenario, payload) to the expected (count, mean) of
    the report summary, or is empty when the summary is not checked.
    """

    name: str
    scenario_name: str
    scenario: str
    seed: int
    conditions: int
    rows: list[tuple[str | None, ...]]
    trace_counts: Counter | None = None
    summary: dict[tuple[str, int], tuple[int, int]] = field(default_factory=dict)


def _ratio(latency: int, gap: int) -> str:
    return f"{latency / gap:.6f}"


def _partitioned_row(name, rep, payload, t_send, t_recv, gap):
    latency = t_recv - t_send
    return (name, "partitioned", str(rep), str(payload), str(t_send), str(t_recv),
            str(latency), str(gap), _ratio(latency, gap), "", "", "")


def _memory(pid: int) -> str:
    return f'<MemoryArea start="0x{(pid + 1) << 20:x}" size="0x10000"/>'


# --------------------------------------------------------------------------
# ring: one long simulation of a 16-partition ring


RING_PARTITIONS = 16
RING_SLOT_SPACING = 100_000  # slot i starts at i * 100 us
RING_SLOT_LENGTH = 80_000  # and lasts 80 us
RING_FRAME = RING_PARTITIONS * RING_SLOT_SPACING


def ring(seed: int, frames: int = RING_FRAMES) -> Workload:
    """16 partitions, channel i -> i+1 (even channels queuing, odd
    sampling), REPEAT scripts; one partition demands more compute than its
    slot, so it overruns on even frames and finishes its pass on odd ones.
    """
    rng = random.Random(seed)
    n, length = RING_PARTITIONS, RING_SLOT_LENGTH
    compute = [rng.randrange(1_000, length - 1_000) for _ in range(n)]
    overrunner = rng.randrange(n)
    carry = compute[overrunner]  # the overrun's remainder, run next frame
    compute[overrunner] += length
    payload = rng.randrange(1, 65)
    capacity = rng.randrange(2, 9)
    refresh = RING_FRAME
    name = "bench_ring"

    partitions = "\n".join(
        f'    <Partition id="{i}" name="p{i}">{_memory(i)}</Partition>' for i in range(n)
    )
    slots = "\n".join(
        f'    <Slot id="{i}" partition="{i}" start="{i * RING_SLOT_SPACING}ns" '
        f'duration="{length}ns"/>'
        for i in range(n)
    )
    channels = []
    for j in range(n):
        ends = (f'<Source partition="{j}" port="out"/>'
                f'<Destination partition="{(j + 1) % n}" port="in"/>')
        if j % 2 == 0:
            channels.append(f'    <QueuingChannel maxMessageSize="64" '
                            f'maxNoMessages="{capacity}">{ends}</QueuingChannel>')
        else:
            channels.append(f'    <SamplingChannel maxMessageSize="64" '
                            f'refreshPeriod="{refresh}ns">{ends}</SamplingChannel>')
    scripts = []
    for i in range(n):
        receive = "recv" if (i - 1) % n % 2 == 0 else "read"
        scripts.append(
            f"[script {i}]\nmode = repeat\ncompute {compute[i]}ns\n"
            f"send out $payload\nmark tx\n{receive} in\nmark rx\n"
        )
    scenario = (
        f"name = {name}\nmode = partitioned\nseed = {seed}\nrepetitions = 1\n"
        f"payload_sizes = {payload}\nmax_frames = {frames}\n\n[system]\n"
        f'<SystemDescription majorFrame="{RING_FRAME}ns">\n'
        f"  <PartitionTable>\n{partitions}\n  </PartitionTable>\n"
        f"  <Schedule>\n{slots}\n  </Schedule>\n"
        f"  <Channels>\n" + "\n".join(channels) + "\n  </Channels>\n"
        "</SystemDescription>\n\n" + "\n".join(scripts)
    )

    # Replay the ring frame by frame.  Slots run in partition order, so
    # within a frame every queuing producer acts before its consumer.
    counts: Counter = Counter()
    counts["FRAME_WRAP"] = frames
    counts["SLOT_START"] = n * frames + 1  # slot 0 restarts at the run bound
    counts["SLOT_END"] = n * frames
    counts["STATE", "BOOT", "NORMAL"] = n
    fifo = [0] * n
    last_write: list[int | None] = [None] * n
    first_tx = delivery = None
    for f in range(frames):
        for i in range(n):
            if i == overrunner and f % 2 == 0:
                counts["HM_EVENT"] += 1
                counts["HM", "SLOT_OVERRUN", str(i), "LOG"] += 1
                continue
            t = f * RING_FRAME + i * RING_SLOT_SPACING + (carry if i == overrunner else compute[i])
            counts["APP_ACTION"] += 4
            counts["MARK", "tx"] += 1
            counts["MARK", "rx"] += 1
            first_tx = first_tx or (t, i)
            if i % 2 == 0:
                ok = fifo[i] < capacity
                fifo[i] += ok
                counts["PORT_OP", "SEND", f"c{i}", "OK" if ok else "FULL"] += 1
            else:
                last_write[i] = t
                counts["PORT_OP", "WRITE", f"c{i}", "OK"] += 1
            j = (i - 1) % n
            if j % 2 == 0:
                result = "OK" if fifo[j] else "EMPTY"
                fifo[j] -= fifo[j] > 0
                counts["PORT_OP", "RECV", f"c{j}", result] += 1
            else:
                if last_write[j] is None:
                    result = "EMPTY"
                else:
                    result = "OK" if t - last_write[j] <= refresh else "STALE"
                counts["PORT_OP", "READ", f"c{j}", result] += 1
            if delivery is None and result in ("OK", "STALE"):
                delivery = (t, i)

    # latency from the first tx mark to the rx mark right after the first
    # delivery, against the gap between the two slots involved
    (t_send, sender), (t_recv, receiver) = first_tx, delivery
    gap = ((receiver - sender) * RING_SLOT_SPACING - length) % RING_FRAME
    return Workload(
        name="ring", scenario_name=name, scenario=scenario, seed=seed, conditions=1,
        rows=[_partitioned_row(name, 0, payload, t_send, t_recv, gap)],
        trace_counts=counts,
        summary={(name, payload): (1, t_recv - t_send)},
    )


def count_trace_lines(text: str) -> Counter:
    """Count trace lines by the fields ``ring`` predicts."""
    counts: Counter = Counter()
    for line in text.splitlines():
        f = line.split(",") + [""] * 7  # a short line still counts, under its own key
        kind = f[1]
        if kind == "PORT_OP":
            counts[kind, f[2], f[3], f[6]] += 1
        elif kind == "MARK":
            counts[kind, f[3]] += 1
        elif kind == "STATE":
            counts[kind, f[3], f[4]] += 1
        elif kind == "HM":
            counts[kind, f[2], f[3], f[4]] += 1
        else:
            counts[kind] += 1
    return counts


# --------------------------------------------------------------------------
# sweep: the paper's payload sweep, thousands of short simulations


SWEEP_TX_SLOT = (0, 400_000)  # cookbook schedule: producer slot [0, 400us)
SWEEP_RX_SLOT = (500_000, 400_000)  # consumer slot [500us, 900us)


def sweep(seed: int, repetitions: int = SWEEP_REPETITIONS) -> Workload:
    """1 B / 1 MB / 6 MB payloads on the cookbook schedule, ONCE scripts,
    two frames per simulation.  The seed draws the producer's compute time
    and a fixed copy cost no larger than the transition gap."""
    rng = random.Random(seed)
    rx_start = SWEEP_RX_SLOT[0]
    gap = rx_start - sum(SWEEP_TX_SLOT)
    compute = rng.randrange(1_000, SWEEP_TX_SLOT[1])
    copy_cost = rng.randrange(0, gap + 1)
    name = "bench_sweep"
    scenario = f"""name = {name}
mode = partitioned
seed = {seed}
repetitions = {repetitions}
payload_sizes = {",".join(map(str, PAYLOADS))}
max_frames = 2

[system]
<SystemDescription majorFrame="1000us">
  <PartitionTable>
    <Partition id="0" name="pub">{_memory(0)}</Partition>
    <Partition id="1" name="sub">{_memory(1)}</Partition>
  </PartitionTable>
  <Schedule>
    <Slot id="0" partition="0" start="{SWEEP_TX_SLOT[0]}ns" duration="{SWEEP_TX_SLOT[1]}ns"/>
    <Slot id="1" partition="1" start="{rx_start}ns" duration="{SWEEP_RX_SLOT[1]}ns"/>
  </Schedule>
  <Channels>
    <QueuingChannel maxMessageSize="{max(PAYLOADS)}" maxNoMessages="16">
      <Source partition="0" port="out"/>
      <Destination partition="1" port="in"/>
    </QueuingChannel>
  </Channels>
  <Hypervisor copyCostFixed="{copy_cost}ns" copyCostPerByte="0ns"/>
</SystemDescription>

[script 0]
mode = once
compute {compute}ns
send out $payload
mark tx

[script 1]
mode = once
recv in
mark rx
"""
    # README, "Hypervisor copy cost": the message is visible by the
    # consumer's slot start because cost <= gap, and delivery occupies the
    # consumer for the cost, so latency = schedule distance + copy cost.
    t_recv = rx_start + copy_cost
    rows = [_partitioned_row(name, rep, p, compute, t_recv, gap)
            for p in PAYLOADS for rep in range(repetitions)]
    return Workload(
        name="sweep", scenario_name=name, scenario=scenario, seed=seed,
        conditions=len(PAYLOADS), rows=rows,
        summary={(name, p): (repetitions, t_recv - compute) for p in PAYLOADS},
    )


# --------------------------------------------------------------------------
# broker: the calibrated delay model, tens of thousands of rows


BROKER_LINK_BASE = 200_000
BROKER_JITTER = 50_000
BROKER_PROC_FIXED = 20_000
BROKER_PROC_PER_BYTE = 5
BROKER_LOAD_FACTOR = 1.0
BROKER_LOAD_PAIRS = ((0.0, 1.0), (0.0, 0.5))  # relaxed cpu -> stressed cpu
BROKER_SEED_STRIDE = 1_000_003


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _broker_tx(size: int, cpu: float, rng: random.Random) -> int:
    """Uplink + load-scaled processing + downlink; each link adds one
    Gaussian jitter draw, rounded half up and clamped at zero."""
    uplink = BROKER_LINK_BASE + max(0, _round_half_up(rng.gauss(0.0, BROKER_JITTER)))
    processing = BROKER_PROC_FIXED + BROKER_PROC_PER_BYTE * size
    loaded = _round_half_up(processing * (1.0 + BROKER_LOAD_FACTOR * cpu))
    downlink = BROKER_LINK_BASE + max(0, _round_half_up(rng.gauss(0.0, BROKER_JITTER)))
    return uplink + loaded + downlink


def broker(seed: int, repetitions: int = BROKER_REPETITIONS) -> Workload:
    """The shipped broker calibration with jitter on: 3 payloads x 2 load
    pairs (idle -> full, idle -> half) x ``repetitions``."""
    scenario_seed = random.Random(seed).randrange(1, 2**31)
    name = "bench_broker"
    loads = "\n".join(f"{r:.1f},0.0 -> {s:.1f},0.75" for r, s in BROKER_LOAD_PAIRS)
    scenario = f"""name = {name}
mode = broker
seed = {scenario_seed}
repetitions = {repetitions}
payload_sizes = {",".join(map(str, PAYLOADS))}

[broker]
subscribers = 1
uplink = base={BROKER_LINK_BASE}ns per_byte=0ns jitter={BROKER_JITTER}ns
downlink = base={BROKER_LINK_BASE}ns per_byte=0ns jitter={BROKER_JITTER}ns
proc_fixed = {BROKER_PROC_FIXED}ns
proc_per_byte = {BROKER_PROC_PER_BYTE}ns
load_factor = {BROKER_LOAD_FACTOR}

[loads]
{loads}
"""
    rows = []
    counter = 0  # one generator per (payload, pair, repetition), in CSV order
    for p in PAYLOADS:
        for relaxed_cpu, stressed_cpu in BROKER_LOAD_PAIRS:
            for _ in range(repetitions):
                rng = random.Random(scenario_seed * BROKER_SEED_STRIDE + counter)
                counter += 1
                relaxed = _broker_tx(p, relaxed_cpu, rng)
                stressed = _broker_tx(p, stressed_cpu, rng)
                # scenario name and repetition index are labels: the two
                # load pairs currently share repetition indices, and the
                # check must not pin that defect
                rows.append((None, "broker", None, str(p), "", "", "", "", "",
                             str(relaxed), str(stressed), str(stressed - relaxed)))
    return Workload(
        name="broker", scenario_name=name, scenario=scenario, seed=scenario_seed,
        conditions=len(PAYLOADS) * len(BROKER_LOAD_PAIRS), rows=rows,
    )


GENERATORS = {"ring": ring, "sweep": sweep, "broker": broker}


# --------------------------------------------------------------------------
# checks: each returns (attempted, failed)


def check_rows(wl: Workload, csv_text: str) -> tuple[int, int]:
    """One check per expected row; missing or extra rows fail.  A loose
    label cell passes when the scenario cell starts with the scenario name
    or the repetition cell is a non-negative integer."""
    lines = csv_text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        return len(wl.rows) + 1, len(wl.rows) + 1
    body = lines[1:]
    failed = abs(len(body) - len(wl.rows))
    for line, want in zip(body, wl.rows):
        got = line.split(",")
        if len(got) != len(want):
            failed += 1
            continue
        for column, (cell, expected) in enumerate(zip(got, want)):
            if expected is None:
                loose_ok = cell.startswith(wl.scenario_name) if column == 0 else cell.isdigit()
                if not loose_ok:
                    break
            elif cell != expected:
                break
        else:
            continue
        failed += 1
    return max(len(body), len(wl.rows)), failed


def check_trace(wl: Workload, trace_text: str) -> tuple[int, int]:
    """One check per predicted or observed trace count key."""
    got = count_trace_lines(trace_text)
    keys = set(got) | set(wl.trace_counts)
    return len(keys), sum(got[k] != wl.trace_counts[k] for k in keys)


def check_summary(wl: Workload, report_text: str) -> tuple[int, int]:
    """One check per expected summary group: some output line names the
    scenario and payload and carries the expected count and mean."""
    lines = [line.split() for line in report_text.splitlines()]
    failed = 0
    for (scenario, payload), (count, mean) in wl.summary.items():
        wanted = {scenario, str(payload), str(count), str(mean)}
        failed += not any(wanted <= set(tokens) for tokens in lines)
    return len(wl.summary), failed
