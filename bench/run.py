"""partsim benchmark: host time to a checked result CSV.

Usage, from the repository root::

    python3 bench/run.py --workload ring|sweep|broker|all --seed N --seconds S --trace 0|1

The workload is generated from ``--seed`` (see ``workloads.py``) and run
through the public CLI path, ``partsim run`` then ``partsim report`` via
``partsim.cli.main``, in this one process and thread, again and again for
``--seconds``.  Every output is checked against values the benchmark
computes itself.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh
interpreter to a finished ``import partsim.cli``), ``run_s`` and
``report_s`` (medians over the timed runs) and ``peak_rss_mb`` (a fresh
process running the workload once).  ``--trace 1`` alternates untraced
and traced runs and reports the per-layer metrics (see ``tracing.py``),
the import time of each partsim module and ``trace_overhead_s``; the
first traced run's spans go to ``.bench_out/spans-<workload>.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when
``src/partsim`` is missing from the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORTTIME_RUNS = 7  # fresh interpreters parsed for import.<module>_s
MIN_TIMED_RUNS = 5
# A report of a small CSV takes a few ms, so each run is followed by as
# many reports as fill this many seconds, each one a report_s sample.
REPORT_MIN_S = 0.05
# one import.<module>_s metric per partsim module that `import partsim.cli`
# loads; "partsim" is the package's own __init__
IMPORT_MODULES = ("partsim", "units", "config", "channels", "health", "trace",
                  "workload", "scheduler", "middleware", "harness", "cli")


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, result: tuple[int, int]) -> None:
        self.attempted += result[0]
        self.failed += result[1]

    def expect(self, ok: bool) -> None:
        self.add((1, 0 if ok else 1))


def _cli(cli, argv: list[str], out: io.StringIO) -> tuple[int | None, float]:
    """Time one ``partsim`` command; returns (exit code or None, seconds)."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed run, not a benchmark error
            print(f"{type(exc).__name__}: {exc}")
            code = None
        return code, time.perf_counter() - start


def _remove(*paths: Path | None) -> None:
    for path in paths:
        if path is not None:
            path.unlink(missing_ok=True)


class Runner:
    """Runs one generated workload through the CLI and checks its outputs."""

    def __init__(self, cli, wl: workloads.Workload, work: Path):
        self.cli = cli
        self.wl = wl
        self.scenario = work / f"{wl.name}.scn"
        self.csv = work / f"{wl.name}.csv"
        self.trace = work / f"{wl.name}.trace" if wl.trace_counts is not None else None
        self.scenario.write_text(wl.scenario, encoding="ascii")
        self.checks = Checks()

    def run_argv(self, csv: Path, trace: Path | None) -> list[str]:
        argv = ["run", str(self.scenario), "--out", str(csv), "--seed", str(self.wl.seed)]
        return argv + (["--trace", str(trace)] if trace is not None else [])

    def check_run(self, code, csv: Path, trace: Path | None) -> None:
        self.checks.expect(code == 0)
        csv_text = csv.read_text(errors="replace") if csv.exists() else ""
        self.checks.add(workloads.check_rows(self.wl, csv_text))
        if trace is not None:
            trace_text = trace.read_text(errors="replace") if trace.exists() else ""
            self.checks.add(workloads.check_trace(self.wl, trace_text))

    def once(self, tracer: tracing.Tracer | None = None) -> dict:
        """One run, then reports of its CSV; returns the run time and the
        report times.  With a tracer, also the span index range of the run
        call."""
        _remove(self.csv, self.trace)
        gc.collect()
        first = len(tracer.spans) if tracer is not None else 0
        code, run_s = _cli(self.cli, self.run_argv(self.csv, self.trace), io.StringIO())
        last = len(tracer.spans) if tracer is not None else 0
        self.check_run(code, self.csv, self.trace)
        report_s = []
        while sum(report_s) < REPORT_MIN_S:
            report = io.StringIO()
            report_code, seconds = _cli(self.cli, ["report", str(self.csv)], report)
            report_s.append(seconds)
            self.checks.expect(report_code == 0)
            self.checks.add(workloads.check_summary(self.wl, report.getvalue()))
            if tracer is not None:
                break  # one traced report per run keeps the layer sums per run
        return {"run_s": run_s, "report_s": report_s, "first": first, "last": last}

    def peak_rss_mb(self, src: Path, env: dict) -> float:
        """Peak RSS of a fresh process that runs the workload once; it
        varies by less than 1% from run to run."""
        probe = Path(__file__).resolve().parent / "rss_probe.py"
        csv = self.csv.with_suffix(".probe.csv")
        trace = self.trace.with_suffix(".probe.trace") if self.trace else None
        proc = subprocess.run(
            [sys.executable, str(probe), str(src)] + self.run_argv(csv, trace),
            env=env, capture_output=True, text=True, timeout=170,
        )
        self.check_run(proc.returncode, csv, trace)
        lines = proc.stdout.split()
        return int(lines[-1]) / 1024 if proc.returncode == 0 and lines else 0.0


def spawn_seconds(argv: list[str], env: dict) -> float:
    """Wall time of a fresh interpreter running ``argv`` to its exit.

    The wait has no timeout on purpose: with one, Popen polls with sleeps
    of up to 50 ms and the result snaps to that grid.  The child only
    imports partsim."""
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env) as proc:
        code = proc.wait()
    seconds = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return seconds


def measure(runner: Runner, seconds: float, src: Path, env: dict) -> dict[str, float]:
    """End-to-end metrics.  The machine's speed drifts over seconds, so one
    set-up sample (a fresh interpreter importing partsim.cli) is taken
    after every run, spreading all samples over the same window."""
    metrics = {"peak_rss_mb": runner.peak_rss_mb(src, env)}
    setup_argv = [sys.executable, "-c", "import partsim.cli"]
    spawn_seconds(setup_argv, env)  # warm the bytecode cache
    runner.once()  # warm-up, checked but not timed
    runs, reports, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) < MIN_TIMED_RUNS:
        sample = runner.once()
        runs.append(sample["run_s"])
        reports.extend(sample["report_s"])
        setups.append(spawn_seconds(setup_argv, env))
    metrics["setup_s"] = statistics.median(setups)
    metrics["run_s"] = statistics.median(runs)
    metrics["report_s"] = statistics.median(reports)
    return metrics


def measure_layers(runner: Runner, seconds: float, env: dict, out_dir: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    runner.once()  # warm-up
    untraced, traced, first_spans = [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TIMED_RUNS:
        untraced.append(runner.once()["run_s"])
        tracer.reset()
        tracer.install()
        try:
            sample = runner.once(tracer)
        finally:
            tracer.uninstall()
        trace_bytes = runner.trace.stat().st_size if runner.trace and runner.trace.exists() else 0
        layers = tracing.layer_metrics(tracer, runner.wl.conditions, trace_bytes)
        own = tracer.totals(sample["first"], sample["last"])
        layers["traced_run_s"] = sample["run_s"]
        layers["layers_self_sum_s"] = sum(entry[2] for entry in own.values())
        # self times partition the traced run call, so they cannot exceed it
        runner.checks.expect(layers["layers_self_sum_s"] <= sample["run_s"])
        traced.append(layers)
        if first_spans is None:
            first_spans = list(tracer.spans)
    out_dir.mkdir(exist_ok=True)
    tracing.write_spans(first_spans, out_dir / f"spans-{runner.wl.name}.tsv")

    # median_low keeps counts whole: every value is one traced run's
    metrics = {key: statistics.median_low(t[key] for t in traced) for key in traced[0]}
    metrics["trace_overhead_s"] = metrics["traced_run_s"] - statistics.median(untraced)
    imports = tracing.import_times(env, IMPORTTIME_RUNS)
    for module in IMPORT_MODULES:
        metrics[f"import.{module}_s"] = imports.get(f"import.{module}_s", 0.0)
    return metrics


UNITS = {"setup_s": "s", "run_s": "s", "report_s": "s", "peak_rss_mb": "MB",
         "scheduler.records_per_s": "1/s", "scheduler.us_per_record": "us",
         "channels.ns_per_op": "ns", "middleware.ns_per_tx_time": "ns",
         "channels.ok_ratio": "ratio", "harness.sims_per_condition": "ratio",
         "trace.bytes": "bytes"}


def unit_of(name: str) -> str:
    """Metric unit: listed above, else seconds for ``*_s``, else a count."""
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"],
                        help="'all' runs each workload in turn, in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.GENERATORS]
        return max(codes)

    root = Path.cwd()
    src = root / "src"
    if not (src / "partsim" / "cli.py").is_file():
        print(f"error: no partsim sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from partsim import cli

    if Path(cli.__file__).resolve().parent != (src / "partsim").resolve():
        print(f"error: imported partsim from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PARTSIM_SEED", None)

    wl = workloads.GENERATORS[args.workload](args.seed)
    work = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, wl, work)
        # keep the expected rows out of every garbage collection partsim
        # triggers, as they would be in a fresh `partsim` process
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = measure_layers(runner, args.seconds, env, root / ".bench_out")
        else:
            metrics = measure(runner, args.seconds, src, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = runner.checks
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit_of(name)}")
    print(f"{args.workload} failed_frac {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
