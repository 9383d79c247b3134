"""The partsim names that ``bench/tracing.py`` wraps by name still exist,
and a traced ``partsim run`` counts every row it writes, so a refactor
cannot silently break ``bench/run.py --trace 1``."""

import importlib
import importlib.util

from partsim import cli

from conftest import REPO_ROOT, SCENARIO_DIR


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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
