"""The partsim names that ``bench/tracing.py`` wraps by name still exist,
and a traced ``partsim run`` counts every row it writes, so a refactor
cannot silently break ``bench/run.py --trace 1``.  The bench's ``ring``
trace, which the bench itself only counts by line kind, is checked here
byte for byte."""

import importlib
import importlib.util
import sys

import pytest

from partsim import cli, trace as trace_mod

from conftest import REPO_ROOT, SCENARIO_DIR


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load_bench("tracing")
workloads = _load_bench("workloads")


def test_every_entry_point_exists():
    for module_name, cls_name, attr in tracing.ENTRY_POINTS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr)), (module_name, cls_name, attr)


def test_traced_broker_run_counts_every_written_row(tmp_path, capsys):
    scn = tmp_path / "b.scn"
    scn.write_text((SCENARIO_DIR / "broker.scn").read_text()
                   .replace("repetitions = 100", "repetitions = 7")
                   + "0.0,0.0 -> 0.5,0.75\n")
    csv = tmp_path / "b.csv"
    for module_name, _, _ in tracing.ENTRY_POINTS:  # install wraps loaded modules
        importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["run", str(scn), "--out", str(csv)]) == 0
        assert cli.main(["report", str(csv)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    rows = len(csv.read_text().splitlines()) - 1
    assert rows == 3 * 2 * 7
    assert tracer.rows_exported == rows
    calls = {name: entry[0] for name, entry in tracer.totals().items()}
    assert calls["harness.export_csv"] == calls["harness.read_csv"] == 1
    assert calls["harness.summarize"] == 2 * 3 * 2  # one per condition, in run and report


@pytest.mark.parametrize("seed", [7, 123])
def test_bench_ring_trace_file_is_its_records(seed, tmp_path, monkeypatch, capsys):
    """``partsim run --trace`` on the bench's ``ring`` workload writes the
    text of every record the run's trace iterates, copies included, and
    the bench's own line-count check passes on that file."""
    wl = workloads.ring(seed)
    scn = tmp_path / "ring.scn"
    scn.write_text(wl.scenario, encoding="ascii")
    written = []
    write = trace_mod.write_trace
    monkeypatch.setattr(trace_mod, "write_trace", lambda t, path: written.append(t) or write(t, path))
    argv = ["run", str(scn), "--out", str(tmp_path / "ring.csv"), "--seed", str(seed),
            "--trace", str(tmp_path / "ring.trace")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (run_trace,) = written
    assert run_trace.repeats
    data = (tmp_path / "ring.trace").read_bytes()
    assert data == trace_mod.format_trace(run_trace).encode()
    assert workloads.check_trace(wl, data.decode())[1] == 0
