"""The package namespaces load their submodules on first use.

``repro.experiments`` and ``repro.observability`` export their names
through PEP 562 ``__getattr__``, so ``import repro`` (which the scheduler
core needs) loads neither the process-pool executor, with its
``multiprocessing`` and ``concurrent.futures`` imports, nor the trace
exporters.  What a fresh interpreter has loaded is checked in a child,
since this process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
import repro.observability

#: Modules a bare ``import repro`` must leave unloaded.
UNLOADED = (
    "multiprocessing",
    "concurrent.futures",
    "repro.experiments.executor",
    "repro.observability.export",
)


def _loaded_after(statement: str) -> list:
    """Which of :data:`UNLOADED` a fresh interpreter holds after
    ``statement``."""
    code = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {list(UNLOADED)!r} "
        f"if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(child.stdout)


def test_import_repro_loads_no_executor_and_no_exporter():
    assert _loaded_after("import repro") == []


def test_one_name_loads_only_its_submodule():
    assert _loaded_after("from repro.experiments import CI_LOG_RATIOS") == []
    assert _loaded_after("from repro.experiments import RunCache") == [
        "multiprocessing",
        "concurrent.futures",
        "repro.experiments.executor",
    ]


@pytest.mark.parametrize(
    "package",
    [repro.experiments, repro.observability],
    ids=lambda package: package.__name__,
)
def test_every_exported_name_resolves(package):
    assert sorted(package.__all__) == sorted(package._HOMES)
    for name in package.__all__:
        value = getattr(package, name)
        module = sys.modules[f"{package.__name__}.{package._HOMES[name]}"]
        assert value is getattr(module, name)
        assert name in dir(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
