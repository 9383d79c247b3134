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


def loaded_after(code: str) -> set[str]:
    """The partsim modules in ``sys.modules`` after a fresh interpreter
    runs ``code``."""
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    script = (f"{code}\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'partsim')))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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


def test_the_package_exports_nothing():
    assert loaded_after("import partsim\nassert not hasattr(partsim, 'parse_config')") == {
        "partsim"}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert f"partsim.{module}" in loaded_after(f"import partsim.{module}")
