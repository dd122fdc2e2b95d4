"""Shared test settings: one Hypothesis profile so that property tests
draw the same examples on every run and never fail on a timing deadline,
and an empty pipeline graph cache and examples table around every test,
so that no result depends on which tests ran before it."""

import pytest
from hypothesis import settings

from fsstgnn import pipeline

settings.register_profile("fsstgnn", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("fsstgnn")


@pytest.fixture(autouse=True)
def empty_filter_cache():
    pipeline._FILTER_CACHE.clear()
    pipeline._EXAMPLES.clear()
    yield
    pipeline._FILTER_CACHE.clear()
    pipeline._EXAMPLES.clear()
