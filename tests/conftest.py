"""Shared pytest configuration."""

import os


def pytest_configure(config):
    """Child processes started by the tests import ``entwit`` from ``src``,
    as the test process itself does (``pythonpath`` in ``pyproject.toml``)."""
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])
