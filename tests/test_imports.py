"""Import-time footprint of the command-line entry point."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_pulls_in_neither_scipy_nor_networkx():
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'scipy', 'networkx'} & {m.split('.')[0] for m in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
