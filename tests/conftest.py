"""Marks the two grid acceptance tests as ``slow`` so that
``pytest -m "not slow"`` leaves them out; a plain ``pytest`` runs them."""

import pytest

SLOW_TESTS = {
    ("test_acceptance.py", "test_07_query_aware_scalar_grid"),
    ("test_acceptance.py", "test_08_distance_grid_error_ordering"),
}


def pytest_collection_modifyitems(items):
    for item in items:
        if (item.path.name, item.name) in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
