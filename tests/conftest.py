"""Shared test settings: one deterministic hypothesis profile for the
suite, and a fixture that turns a fallback of `retract` into a failure."""

import pytest
from hypothesis import settings

from newtonstrata import chamber

settings.register_profile(
    "newtonstrata", derandomize=True, deadline=None, max_examples=60,
    database=None,
)
settings.load_profile("newtonstrata")


def _no_fallback(datum, d):
    raise AssertionError(f"retract fell back to subset enumeration on {d!r}")


@pytest.fixture
def no_retract_fallback(monkeypatch):
    """The active-set path must settle every input without the safety net."""
    monkeypatch.setattr(chamber, "retract_exhaustive", _no_fallback)
