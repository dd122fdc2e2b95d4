"""Shared test settings: one Hypothesis profile so that property tests
draw the same examples on every run and never fail on a timing deadline."""

from hypothesis import settings

settings.register_profile("fsstgnn", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("fsstgnn")
