"""Import layout: the package re-exports nothing, the CLI loads a
module only in the subcommand that needs it, and every module imports
alone.  Each check runs in a fresh interpreter, so no module loaded by
an earlier test can hide a missing import or a cycle."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

# every module of the package but the dunder files, so a new one is covered
MODULES = sorted(path.stem for path in (REPO_ROOT / "src" / "partsim").glob("*.py")
                 if not path.stem.startswith("__"))


def modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set[str]:
    """The partsim modules in ``sys.modules`` after a fresh interpreter
    runs ``code``."""
    return {m for m in modules_after(code) if m.split(".")[0] == "partsim"}


def test_importing_the_cli_loads_no_other_module():
    assert loaded_after("import partsim.cli") == {"partsim", "partsim.cli"}


def test_validate_loads_only_the_config_parser():
    loaded = loaded_after(
        "from partsim import cli\n"
        "assert cli.main(['validate', 'scenarios/cookbook.xml']) == 0"
    )
    assert "partsim.config" in loaded
    engine = {"partsim.harness", "partsim.scheduler", "partsim.channels", "partsim.middleware"}
    assert not loaded & engine


def test_report_loads_only_the_results_module():
    assert loaded_after(
        "from partsim import cli\n"
        "assert cli.main(['report', 'tests/golden/cookbook.csv']) == 0"
    ) == {"partsim", "partsim.cli", "partsim.results"}


def test_the_results_module_imports_no_other_module():
    assert loaded_after("import partsim.results") == {"partsim", "partsim.results"}


def test_the_package_exports_nothing():
    assert loaded_after("import partsim\nassert not hasattr(partsim, 'parse_config')") == {
        "partsim"}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert f"partsim.{module}" in loaded_after(f"import partsim.{module}")


@pytest.mark.parametrize("command", ["run scenarios/cookbook.scn --out {tmp}/c.csv",
                                     "validate scenarios/cookbook.xml",
                                     "report tests/golden/cookbook.csv"],
                         ids=["run", "validate", "report"])
def test_no_command_loads_dataclasses(tmp_path, command):
    """partsim's values are NamedTuples and plain classes, so no command
    loads ``dataclasses`` or the ``inspect`` module that it imports,
    beyond what a bare interpreter loads."""
    argv = command.format(tmp=tmp_path).split()
    loaded = modules_after(f"from partsim import cli\nassert cli.main({argv!r}) == 0")
    assert not (loaded - modules_after("")) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("code", [
    "import partsim.cli",
    "from partsim import cli\nassert cli.main(['validate', 'scenarios/cookbook.xml']) == 0",
    "from partsim import cli\nassert cli.main(['report', 'tests/golden/cookbook.csv']) == 0",
], ids=["import", "validate", "report"])
def test_the_cli_loads_no_argparse(code):
    """``partsim.cli`` reads its command line from its own table: neither
    the import nor a command loads ``argparse`` or ``gettext``."""
    assert not modules_after(code) & {"argparse", "gettext"}


def test_a_split_broker_run_loads_no_process_or_thread_pool(tmp_path):
    """A broker run large enough to fork its rows across two cores uses
    ``os.fork``, a pipe and ``marshal``: it loads no ``multiprocessing``,
    ``concurrent.futures`` or ``threading`` beyond what a bare interpreter
    loads."""
    scenario = tmp_path / "big.scn"
    scenario.write_text((REPO_ROOT / "scenarios" / "broker.scn").read_text()
                        .replace("repetitions = 100", "repetitions = 1000"))
    argv = ["run", str(scenario), "--out", str(tmp_path / "big.csv")]
    loaded = modules_after(
        "import os\n"
        "from partsim import cli, harness\n"
        "harness._cores = lambda: 2\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"assert cli.main({argv!r}) == 0 and forks == [1]"
    )
    assert not [m for m in loaded - modules_after("")
                if m.split(".")[0] in ("multiprocessing", "concurrent", "threading")]
