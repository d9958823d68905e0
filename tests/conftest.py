from collections import Counter

import pytest

from kronkit import _native
from kronkit.corpus import connected_graphs


@pytest.fixture(scope="session")
def connected_upto_6():
    return [g for n in range(1, 7) for g in connected_graphs(n)]


@pytest.fixture(scope="session")
def connected_upto_8():
    return [g for n in range(1, 9) for g in connected_graphs(n)]


class _CountingLibrary:
    """The kernel library, counting the calls into each of its functions."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            return fn(*args)
        return call


@pytest.fixture
def kernel(monkeypatch):
    """The kernel library that every route calls, counting the calls."""
    counting = _CountingLibrary(_native.library())
    monkeypatch.setattr(_native, "library", lambda: counting)
    return counting
