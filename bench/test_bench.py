"""Self-tests of the benchmark: deterministic generators, checks that catch
corrupted outputs, passing checks on held-out seeds, and output that
matches BENCHMARK.json.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from partsim import cli  # noqa: E402

HELD_OUT_SEED = 20261017
SMALL = {"ring": {"frames": 9}, "sweep": {"repetitions": 4}, "broker": {"repetitions": 7}}


def small(name: str, seed: int) -> workloads.Workload:
    return workloads.GENERATORS[name](seed, **SMALL[name])


def run_cli(wl: workloads.Workload, tmp: Path) -> tuple[str, str | None, str]:
    """Run and report the workload through partsim; returns the CSV text,
    the trace text (or None) and the report output."""
    scenario, csv, trace = tmp / "w.scn", tmp / "w.csv", tmp / "w.trace"
    scenario.write_text(wl.scenario)
    argv = ["run", str(scenario), "--out", str(csv), "--seed", str(wl.seed)]
    if wl.trace_counts is not None:
        argv += ["--trace", str(trace)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", str(csv)]) == 0
    trace_text = trace.read_text() if wl.trace_counts is not None else None
    return csv.read_text(), trace_text, out.getvalue()


def assert_all_pass(wl, csv_text, trace_text, report_text):
    attempted, failed = workloads.check_rows(wl, csv_text)
    assert attempted == len(wl.rows) and failed == 0
    if trace_text is not None:
        assert workloads.check_trace(wl, trace_text)[1] == 0
    assert workloads.check_summary(wl, report_text)[1] == 0


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic(name):
    a, b, other = small(name, 5), small(name, 5), small(name, 6)
    assert a == b
    assert a.scenario != other.scenario


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_held_out_seed_passes(name, tmp_path):
    wl = small(name, HELD_OUT_SEED)
    assert_all_pass(wl, *run_cli(wl, tmp_path))


def test_ring_model_matches_every_overrunner_position(tmp_path):
    """Seeds put the overrunning partition at both ends of the ring and on
    both channel kinds; the predicted counts must hold for each."""
    overrunners = set()
    for seed in range(40):
        wl = small("ring", seed)
        computes = [int(c) for c in re.findall(r"^compute (\d+)ns$", wl.scenario, re.M)]
        overrunners.add(next(i for i, c in enumerate(computes)
                             if c > workloads.RING_SLOT_LENGTH))
        assert_all_pass(wl, *run_cli(wl, tmp_path))
    assert {0, 1, workloads.RING_PARTITIONS - 1} <= overrunners


@pytest.mark.parametrize("name", ["sweep", "broker"])
def test_corrupted_rows_are_caught(name, tmp_path):
    wl = small(name, 3)
    csv_text, _, _ = run_cli(wl, tmp_path)
    lines = csv_text.splitlines()
    cells = lines[2].split(",")
    cells[-1 if name == "broker" else 6] += "1"  # one wrong delay / latency
    corrupted = "\n".join(lines[:2] + [",".join(cells)] + lines[3:])
    assert workloads.check_rows(wl, corrupted) == (len(wl.rows), 1)
    dropped = "\n".join(lines[:-1])
    assert workloads.check_rows(wl, dropped) == (len(wl.rows), 1)
    assert workloads.check_rows(wl, "")[1] == len(wl.rows) + 1


def test_corrupted_trace_count_is_caught(tmp_path):
    wl = small("ring", 3)
    _, trace_text, _ = run_cli(wl, tmp_path)
    lines = trace_text.splitlines()
    flipped = [line.replace(",OK", ",EMPTY", 1) if ",RECV," in line else line for line in lines]
    assert workloads.check_trace(wl, "\n".join(flipped))[1] > 0
    assert workloads.check_trace(wl, "\n".join(lines[:-1]))[1] == 1
    assert workloads.check_trace(wl, "\n".join(lines + ["garbage"]))[1] == 1


def test_wrong_summary_is_caught(tmp_path):
    wl = small("sweep", 3)
    _, _, report = run_cli(wl, tmp_path)
    (scenario, payload), (count, mean) = next(iter(wl.summary.items()))
    assert workloads.check_summary(wl, report.replace(f" {mean} ", f" {mean + 1} "))[1] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0),
                       ("inner", 6.0, 7.0, 0), ("leaf", 3.0, 4.0, 1)]
    totals = tracer.totals()
    assert totals["outer"] == [1, 10.0, 6.0]
    assert totals["inner"] == [2, 4.0, 3.0]
    assert sum(entry[2] for entry in totals.values()) == 10.0
    assert tracer.totals(1)["inner"][2] == 3.0  # a slice drops the outer parent


def test_tracer_restores_every_entry_point():
    import partsim.harness
    import partsim.scheduler

    before = (partsim.harness.validate, partsim.scheduler.SimState.run_until, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert partsim.harness.validate is not before[0]
    assert partsim.harness.validate is partsim.scheduler.validate
    tracer.uninstall()
    assert (partsim.harness.validate, partsim.scheduler.SimState.run_until, cli.main) == before


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |     partsim.units\n"
              "import time:      3000 |       9000 | partsim\n"
              "import time:        50 |         50 |   partsimulator\n")
    assert tracing.parse_importtime(stderr) == {"import.units_s": 120e-6,
                                                "import.partsim_s": 3000e-6}


def _bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "9",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_output_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
