"""Make the checkout's ``src/`` importable by subprocesses the tests start.

``pythonpath`` in pyproject.toml puts ``src/`` on ``sys.path`` of the pytest
process only; ``python -m kypcert.cli`` children read ``PYTHONPATH``.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _src_on_child_pythonpath(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
