"""Startup: package names resolve on first use, and a CLI call imports
only the modules its run reaches."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: Every package whose re-exports resolve through ``repro._lazy``.
LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.cluster", "repro.core", "repro.models",
    "repro.obs", "repro.reports", "repro.runtime", "repro.scenarios",
    "repro.sim", "repro.telemetry", "repro.viz", "repro.workloads",
]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_table_is_complete(name):
    pkg = importlib.import_module(name)
    assert pkg.__all__
    for export in pkg.__all__:
        assert getattr(pkg, export) is not None, export
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match=f"module '{name}' has no "
                                             "attribute 'no_such_name'"):
        getattr(pkg, "no_such_name")
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)


def test_quickstart_snippet_runs_verbatim(capsys):
    doc = repro.__doc__
    body = doc.split("Quickstart::\n", 1)[1]
    lines = []
    for line in body.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    exec(textwrap.dedent("\n".join(lines)), {})
    assert "idle wave speed:" in capsys.readouterr().out


# --------------------------------------------------------------------------
# import budget of the run path
# --------------------------------------------------------------------------

#: Modules none of the budgeted calls runs: figure drivers, the DAG
#: engine and the simulators and models only those drivers use.
NOT_ON_THE_RUN_PATH = [
    "repro.experiments",
    "repro.sim.engine",
    "repro.sim.saturation",
    "repro.sim.collectives",
    "repro.models",
    "repro.workloads.lbm",
    "repro.core.elimination",
]
MAX_REPRO_MODULES = 70

#: Runs ``repro.cli.main(argv)`` and prints its status and the loaded
#: module names as the last line.
_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def _modules_after(argv, cwd) -> "list[str]":
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0, proc.stderr
    return result["modules"]


@pytest.mark.parametrize("argv", [
    ["report", "validate", "fig7_speed"],
    ["report", "run", "fig8_decay", "--cache-dir", "cache"],
    ["scenario", "sweep", "fig8_decay_rate", "--cache-dir", "cache"],
], ids=" ".join)
def test_cli_call_imports_only_its_run_path(argv, tmp_path):
    modules = _modules_after(argv, tmp_path)
    loaded = set(modules)
    assert [m for m in NOT_ON_THE_RUN_PATH if m in loaded] == []
    # --jobs 1 runs in-process: no worker pool machinery.
    assert "concurrent.futures.process" not in loaded
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= MAX_REPRO_MODULES, ours
