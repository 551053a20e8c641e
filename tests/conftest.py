"""Test-session setup shared by every test module."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pytest's ``pythonpath`` setting reaches only this process; child
    # processes that run ``python -m emi`` need ``src`` on PYTHONPATH too
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, paths)])
