"""Shared fixtures: scenario runs are expensive, so they are built once
per session and reused by every test module that needs realistic data."""

from __future__ import annotations

import pytest

from repro.scenarios import get_scenario


class ScenarioRun:
    """Bundle of one full pipeline run."""

    def __init__(self, name: str):
        self.scenario = get_scenario(name)
        self.graph, self.corpus, self.paths, self.result = self.scenario.run()


@pytest.fixture(scope="session")
def tiny_run() -> ScenarioRun:
    """~150-AS pipeline run: cheap enough for most integration tests."""
    return ScenarioRun("tiny")


@pytest.fixture(scope="session")
def small_run() -> ScenarioRun:
    """~300-AS pipeline run for accuracy-sensitive assertions."""
    return ScenarioRun("small")


@pytest.fixture(scope="session")
def clean_run() -> ScenarioRun:
    """Noise-free medium run: every artifact off, full feeds only."""
    return ScenarioRun("clean")


#: prepended to a ``python -c`` script, makes ``import numpy`` fail in
#: that interpreter even though numpy is installed
_MASK_NUMPY = """\
import sys


class _NumpyBlocker:
    def find_spec(self, fullname, path=None, target=None):
        if fullname.split(".", 1)[0] == "numpy":
            raise ImportError(f"{fullname} is masked")
        return None


sys.meta_path.insert(0, _NumpyBlocker())
"""


@pytest.fixture(scope="session")
def mask_numpy() -> str:
    """Script prelude that hides numpy from a child interpreter, for
    checking that a stdlib-only module never imports it."""
    return _MASK_NUMPY
