"""Tests of the package namespace."""

import pairq


def test_every_exported_name_resolves():
    missing = [name for name in pairq.__all__ if not hasattr(pairq, name)]
    assert missing == []
