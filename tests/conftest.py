import pytest

from varproj import oracle


def _clear_kept():
    """Drop every kept verdict plan and every kept base."""
    oracle._kept_plan.cache_clear()
    oracle._kept_base.cache_clear()


@pytest.fixture(autouse=True)
def _no_kept_plans():
    """Start every test with no kept verdict plan or base, so none leaks in from an earlier test."""
    _clear_kept()
    yield


@pytest.fixture
def clear_kept():
    """The function that drops every kept plan and base, for a test that needs cold caches part way through."""
    return _clear_kept
