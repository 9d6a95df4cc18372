"""The suite's checks need no figure-campaign store."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _prewarm_bench_cache():
    """Replaces ``benchmarks/conftest.py``'s prewarm for this directory."""
    yield
