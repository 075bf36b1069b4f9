import pytest

from benchmarks.harness import registry


@pytest.fixture
def clean_registry():
    """Run a test against an empty workload registry, restoring after."""
    saved = registry.clear()
    try:
        yield registry
    finally:
        registry.restore(saved)
