"""Broker-mediated publish/subscribe emulation with a load-sensitive
delay model.

Every message travels publisher -> broker -> subscriber; there is no
direct path by construction.  The transmission time is

    link1(size) + processing(size) * (1 + load_factor * cpu_load) + link2(size)

plus one normal jitter draw per link, rounded to the nearest ns (ties
up), with negative draws clamped to zero; the load-scaled processing term
is rounded the same way.  A link whose jitter_stddev is 0 draws nothing.
CPU load enters multiplicatively on the broker processing term only, so
the stressed-minus-relaxed delta isolates the load-induced delay; links
are load-independent.  memory_load is validated but has no effect on
timing.

Everything is deterministic given the generator passed in.  Jitter draws
come from that generator in path order (uplink first, then downlink); the
harness derives one generator per repetition with ``repetition_rng``,
seeded ``seed * 1_000_003 + repetition``.  The streams of different
(seed, repetition) pairs stay disjoint only while the seed is
non-negative and the repetition counter stays below that stride.

The DEFAULT_* values below are a desk-scale CALIBRATION, not a
measurement: they are chosen so that a 1 MB payload under full CPU load
shows a delay of about 5 ms against the idle baseline, the order of
magnitude a physical broker deployment exhibits.  Change them freely in
scenario files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .units import Duration

# calibration constants (see module docstring)
DEFAULT_LINK_BASE = 200_000  # 200 us per hop
DEFAULT_LINK_PER_BYTE = 0
DEFAULT_JITTER_STDDEV = 50_000  # 50 us
DEFAULT_PROC_FIXED = 20_000  # 20 us
DEFAULT_PROC_PER_BYTE = 5  # 5 ns/byte -> 5 ms for 1 MB
DEFAULT_LOAD_FACTOR = 1.0

SEED_STRIDE = 1_000_003  # repetition seed = base_seed * stride + repetition


@dataclass(frozen=True)
class LinkModel:
    base_latency: Duration
    per_byte: Duration = 0
    jitter_stddev: Duration = 0

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.per_byte < 0 or self.jitter_stddev < 0:
            raise ValueError("link parameters must be non-negative")


@dataclass(frozen=True)
class LoadProfile:
    cpu_load: float
    memory_load: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_load <= 1.0:
            raise ValueError(f"cpu_load must be in [0,1], got {self.cpu_load}")
        if not 0.0 <= self.memory_load <= 1.0:
            raise ValueError(f"memory_load must be in [0,1], got {self.memory_load}")


@dataclass(frozen=True)
class BrokerTopology:
    uplink: LinkModel
    downlink: LinkModel
    proc_fixed: Duration = DEFAULT_PROC_FIXED
    proc_per_byte: Duration = DEFAULT_PROC_PER_BYTE
    load_factor: float = DEFAULT_LOAD_FACTOR

    def __post_init__(self) -> None:
        if self.proc_fixed < 0 or self.proc_per_byte < 0:
            raise ValueError("processing parameters must be non-negative")
        if not 0.0 <= self.load_factor < math.inf:
            raise ValueError(f"load_factor must be finite and >= 0, got {self.load_factor}")


def default_topology() -> BrokerTopology:
    """The calibrated demo topology (see module docstring)."""
    link = LinkModel(DEFAULT_LINK_BASE, DEFAULT_LINK_PER_BYTE, DEFAULT_JITTER_STDDEV)
    return BrokerTopology(uplink=link, downlink=link)


def repetition_rng(seed: int, repetition: int) -> random.Random:
    """Disjoint, documented per-repetition stream derivation."""
    if seed < 0 or not 0 <= repetition < SEED_STRIDE:
        raise ValueError(f"need seed >= 0 and 0 <= repetition < {SEED_STRIDE}")
    return random.Random(seed * SEED_STRIDE + repetition)


def tx_time(
    topology: BrokerTopology, size: int, load: LoadProfile, rng: random.Random
) -> Duration:
    """One publisher-to-subscriber transmission time in nanoseconds."""
    if size <= 0:
        raise ValueError("payload size must be positive")
    up, down = topology.uplink, topology.downlink
    processing = topology.proc_fixed + topology.proc_per_byte * size
    t = (
        up.base_latency + down.base_latency + (up.per_byte + down.per_byte) * size
        + math.floor(processing * (1.0 + topology.load_factor * load.cpu_load) + 0.5)
    )
    if up.jitter_stddev > 0:
        jitter = math.floor(rng.gauss(0.0, up.jitter_stddev) + 0.5)
        if jitter > 0:
            t += jitter
    if down.jitter_stddev > 0:
        jitter = math.floor(rng.gauss(0.0, down.jitter_stddev) + 0.5)
        if jitter > 0:
            t += jitter
    return t


def tx_delay(stressed: Duration, relaxed: Duration) -> Duration:
    """Stressed transmission time minus relaxed transmission time.

    Exact signed subtraction; jitter can make individual values negative
    and they are reported as-is.
    """
    return stressed - relaxed

