"""Every ``repro`` module imports on its own, in a fresh process.

An import cycle can hide behind import order.  ``repro.rivals.mechanisms``
once failed to import in a fresh interpreter, because
``repro.kernels.library`` imported ``repro.rivals.indexmac`` while that
module was only partly initialised, yet it imported fine in any process
that had loaded ``repro.kernels`` first, as every test process has.  So
each module is imported in its own process, forked from a parent that
has loaded numpy but no ``repro`` module.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = ["repro"] + sorted(
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    # Entry points: importing one runs the program.
    if not module.name.endswith(".__main__")
)

#: Runs in a clean interpreter: forks one child per module named on the
#: command line (a few at a time) and prints the names that failed.
_PARENT = r"""
import importlib
import json
import os
import sys
import traceback

import numpy  # noqa: F401 - loaded once, shared by every child

running = {}
failed = []


def reap():
    pid, status = os.wait()
    name = running.pop(pid)
    if status:
        failed.append(name)


for name in sys.argv[2:]:
    while len(running) >= int(sys.argv[1]):
        reap()
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    running[pid] = name
while running:
    reap()
print(json.dumps(sorted(failed)))
"""


def test_module_list_is_complete():
    assert "repro.rivals.mechanisms" in MODULES
    assert "repro.core.pipeline" in MODULES
    assert len(MODULES) > 100


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_every_module_imports_in_a_fresh_process():
    src = str(Path(repro.__file__).resolve().parents[1])
    jobs = str(max(2, min(4, os.cpu_count() or 1)))
    proc = subprocess.run(
        [sys.executable, "-c", _PARENT, jobs, *MODULES],
        capture_output=True,
        text=True,
        # One BLAS thread: the parent forks, so it should hold no threads.
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    failed = json.loads(proc.stdout.splitlines()[-1])
    assert failed == [], proc.stderr
