"""The package's lazy public surface."""

import os
import subprocess
import sys

import pgf


def test_every_lazy_export_resolves():
    # a pruned function whose export line stayed behind shows up here
    missing = []
    for name in sorted(pgf._EXPORTS):
        try:
            getattr(pgf, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_importing_the_layers_loads_no_process_pool():
    """Only a census with more than one job starts a process pool, so
    importing the command line and the layers loads neither the pool
    module nor multiprocessing (which also pulls in socket)."""
    layers = ("pc", "group", "table", "ops", "family", "ramification")
    layers += ("census", "verify", "cli")
    code = "".join(f"import pgf.{m}\n" for m in layers) + (
        "import sys\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(pgf.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip() == "[]"
