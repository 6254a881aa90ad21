import pytest

from varproj import oracle


@pytest.fixture(autouse=True)
def _no_kept_plans():
    """Start every test with no kept verdict plan, so none leaks in from an earlier test."""
    oracle._kept_plan.cache_clear()
    yield
