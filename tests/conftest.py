"""Shared fixtures: field contexts and parameter sets reused across the suite."""

import concurrent.futures
import os

import pytest

from kasamilab import build_field, derive_params


@pytest.fixture(scope="session")
def ctx4():
    return build_field(4)


@pytest.fixture(scope="session")
def ctx6():
    return build_field(6)


@pytest.fixture(scope="session")
def ctx8():
    return build_field(8)


@pytest.fixture(scope="session")
def p41():
    return derive_params(4, 1)


@pytest.fixture(scope="session")
def p61():
    return derive_params(6, 1)


@pytest.fixture(scope="session")
def p62():
    return derive_params(6, 2)


@pytest.fixture(scope="session")
def p82():
    return derive_params(8, 2)


@pytest.fixture
def recording_pool(monkeypatch):
    """Four CPUs, and a thread pool that only records its size and tasks.

    Returns the list of (max_workers, task count) of every pool opened; the
    tasks run in the calling thread, so no thread is started. The pool is
    patched where `distribution._summed` imports it from when it opens one.
    """
    opened = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            opened.append((self.max_workers, len(items)))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    return opened
