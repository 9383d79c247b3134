"""Broker-mediated publish/subscribe emulation with a load-sensitive
delay model.

Every message travels publisher -> broker -> subscriber; there is no
direct path by construction.  The transmission time is

    link1(size) + processing(size) * (1 + load_factor * cpu_load) + link2(size)

plus one normal jitter draw per link, rounded to the nearest ns (ties
up), with negative draws clamped to zero; the load-scaled processing term
is rounded the same way, exactly: ``load_factor`` and ``cpu_load`` enter
at their exact values (the decimals a scenario wrote, which
``units.parse_fraction`` returns as Fractions; a float is taken at its
binary value), so 50 ns at load 0.13 is 56.5 ns and rounds to 57, at any
size.  A link whose jitter_stddev is 0 draws nothing.
CPU load enters multiplicatively on the broker processing term only, so
the stressed-minus-relaxed delta isolates the load-induced delay; links
are load-independent.  memory_load has no effect on timing.

``LinkModel``, ``LoadProfile`` and ``BrokerTopology`` are plain
NamedTuples, and neither they nor ``base_time`` and ``condition_times``
check a range.  Each value is checked once, where it enters, by the
``units`` reader that reads it with its least value: in the scenario
reader (see ``harness``), which also keeps both loads, memory included,
in [0,1], or in ``cli``, for a ``--seed`` or ``PARTSIM_SEED`` override.

Everything is deterministic given the generator passed in.  Jitter draws
come from that generator in path order (uplink first, then downlink), one
``Random.gauss`` call per jittered link.  ``tx_time`` is the reference
model; ``repetition_rng`` is its reference generator for row ``c``, seeded
``seed * 1_000_003 + c``.  The streams of different (seed, c) pairs stay
disjoint only while the seed is non-negative and ``c`` stays below that
stride.  So a row depends on no other row: ``harness`` splits a large
run's rows into ``min(cores, rows // ROWS_PER_WORKER)`` contiguous ranges,
one per forked worker, and the bytes never depend on that number.

``condition_times`` evaluates a whole condition (one payload and one
relaxed/stressed load pair) to the same values as calling ``tx_time``
twice per row on ``repetition_rng(seed, c)``: relaxed first, then
stressed, on one generator.  It returns them as one flat list of three
cells a row, the row's relaxed time, stressed time and their delay
(stressed minus relaxed), with no tuple per row, so that ``results``
fills a CSV row template from the list and takes the delay column by
slice.  It computes the deterministic part
(``base_time``) once per condition and re-seeds one generator in place
per row.  ``Random.gauss`` draws its normals in Box-Muller pairs (the
cosine now, the sine on the next call), so with ``L`` jittered links a
row draws ``L`` pairs: normals ``0..L-1`` are the relaxed path's jitter
and ``L..2L-1`` the stressed path's, normal ``i`` scaled by the
``i % L``-th jittered link's stddev.  ``condition_times`` draws those
pairs inline, with ``Random.gauss``'s own arithmetic; with ``L = 0`` it
seeds nothing.

The DEFAULT_* values below are a desk-scale CALIBRATION, not a
measurement: they are chosen so that a 1 MB payload under full CPU load
shows a delay of about 5 ms against the idle baseline, the order of
magnitude a physical broker deployment exhibits.  Change them freely in
scenario files.
"""

from __future__ import annotations

import _random
import random
from math import cos, floor, log, sin, sqrt, tau
from typing import NamedTuple

from .units import Duration

# calibration constants (see module docstring)
DEFAULT_LINK_BASE = 200_000  # 200 us per hop
DEFAULT_LINK_PER_BYTE = 0
DEFAULT_JITTER_STDDEV = 50_000  # 50 us
DEFAULT_PROC_FIXED = 20_000  # 20 us
DEFAULT_PROC_PER_BYTE = 5  # 5 ns/byte -> 5 ms for 1 MB
DEFAULT_LOAD_FACTOR = 1.0

SEED_STRIDE = 1_000_003  # repetition seed = base_seed * stride + repetition


class LinkModel(NamedTuple):
    base_latency: Duration
    per_byte: Duration = 0
    jitter_stddev: Duration = 0


class LoadProfile(NamedTuple):  # a load is a float or an exact Fraction
    cpu_load: float
    memory_load: float = 0.0


class BrokerTopology(NamedTuple):
    uplink: LinkModel
    downlink: LinkModel
    proc_fixed: Duration = DEFAULT_PROC_FIXED
    proc_per_byte: Duration = DEFAULT_PROC_PER_BYTE
    load_factor: float = DEFAULT_LOAD_FACTOR


def default_topology() -> BrokerTopology:
    """The calibrated demo topology (see module docstring)."""
    link = LinkModel(DEFAULT_LINK_BASE, DEFAULT_LINK_PER_BYTE, DEFAULT_JITTER_STDDEV)
    return BrokerTopology(uplink=link, downlink=link)


def repetition_rng(seed: int, repetition: int) -> random.Random:
    """Disjoint, documented per-repetition stream derivation."""
    if seed < 0 or not 0 <= repetition < SEED_STRIDE:
        raise ValueError(f"need seed >= 0 and 0 <= repetition < {SEED_STRIDE}")
    return random.Random(seed * SEED_STRIDE + repetition)


def base_time(topology: BrokerTopology, size: int, load: LoadProfile) -> Duration:
    """The jitter-free transmission time: both links' base and per-byte
    terms plus the load-scaled processing, rounded half up in integers."""
    up, down = topology.uplink, topology.downlink
    processing = topology.proc_fixed + topology.proc_per_byte * size
    factor_num, factor_den = topology.load_factor.as_integer_ratio()
    cpu_num, cpu_den = load.cpu_load.as_integer_ratio()
    den = factor_den * cpu_den
    # processing * (den + factor * cpu) / den, plus one half, floored
    return (
        up.base_latency + down.base_latency + (up.per_byte + down.per_byte) * size
        + (2 * processing * (den + factor_num * cpu_num) + den) // (2 * den)
    )


def tx_time(
    topology: BrokerTopology, size: int, load: LoadProfile, rng: random.Random
) -> Duration:
    """One publisher-to-subscriber transmission time in nanoseconds."""
    t = base_time(topology, size, load)
    for link in (topology.uplink, topology.downlink):
        if link.jitter_stddev > 0:
            jitter = floor(rng.gauss(0.0, link.jitter_stddev) + 0.5)
            if jitter > 0:
                t += jitter
    return t


def condition_times(
    topology: BrokerTopology,
    size: int,
    relaxed: LoadProfile,
    stressed: LoadProfile,
    seed: int,
    first: int,
    count: int,
) -> list[Duration]:
    """The relaxed time, stressed time and delay of rows ``first`` to
    ``first + count - 1`` of one condition, three cells a row in one flat
    list; row ``c`` equals ``tx_time`` under ``relaxed`` and then under
    ``stressed`` on one ``repetition_rng(seed, c)`` (see module
    docstring).  The caller keeps ``seed >= 0`` and ``0 <= first <= first
    + count <= SEED_STRIDE``, as a parsed scenario's seed and rows do; this
    checks neither."""
    relaxed_base = base_time(topology, size, relaxed)
    stressed_base = base_time(topology, size, stressed)
    sigmas = [link.jitter_stddev for link in (topology.uplink, topology.downlink)
              if link.jitter_stddev > 0]
    if not sigmas:
        return [relaxed_base, stressed_base, stressed_base - relaxed_base] * count
    # the C base class: Random(x)'s state, without Random.seed's type checks
    rng = _random.Random()
    reseed, draw = rng.seed, rng.random
    start = seed * SEED_STRIDE + first
    cells = []
    # gauss(0.0, s) returns 0.0 + z * s, which rounds as z * s does
    if len(sigmas) == 1:  # one pair: cosine -> relaxed, sine -> stressed
        sigma = sigmas[0]
        for x in range(start, start + count):
            reseed(x)
            x2pi = draw() * tau
            g2rad = sqrt(-2.0 * log(1.0 - draw()))
            jr = floor(cos(x2pi) * g2rad * sigma + 0.5)
            js = floor(sin(x2pi) * g2rad * sigma + 0.5)
            t_relaxed = relaxed_base + (jr if jr > 0 else 0)
            t_stressed = stressed_base + (js if js > 0 else 0)
            cells += t_relaxed, t_stressed, t_stressed - t_relaxed
        return cells
    # two pairs, one per path: cosine -> uplink, sine -> downlink
    sigma_up, sigma_down = sigmas
    for x in range(start, start + count):
        reseed(x)
        x2pi = draw() * tau
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        ju = floor(cos(x2pi) * g2rad * sigma_up + 0.5)
        jd = floor(sin(x2pi) * g2rad * sigma_down + 0.5)
        t_relaxed = relaxed_base + (ju if ju > 0 else 0) + (jd if jd > 0 else 0)
        x2pi = draw() * tau
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        ju = floor(cos(x2pi) * g2rad * sigma_up + 0.5)
        jd = floor(sin(x2pi) * g2rad * sigma_down + 0.5)
        t_stressed = stressed_base + (ju if ju > 0 else 0) + (jd if jd > 0 else 0)
        cells += t_relaxed, t_stressed, t_stressed - t_relaxed
    return cells
