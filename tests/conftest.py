"""Shared fixtures."""

from collections import Counter

import pytest

from artifact.quadring import QuadInt

# QuadInt's arithmetic operators and its order; a search that runs on
# integer coordinates calls none of them
QUADINT_OPERATIONS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__pow__", "__lt__", "__le__", "__gt__", "__ge__", "sign",
)


@pytest.fixture
def quadint_calls(monkeypatch):
    """A Counter of the QuadInt operations called while the test runs."""
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in QUADINT_OPERATIONS:
        monkeypatch.setattr(QuadInt, name, counted(name, getattr(QuadInt, name)))
    return calls
