"""Shared test settings: one deterministic hypothesis profile for the
suite."""

from hypothesis import settings

settings.register_profile(
    "newtonstrata", derandomize=True, deadline=None, max_examples=60,
    database=None,
)
settings.load_profile("newtonstrata")

