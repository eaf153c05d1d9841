"""Fixtures shared by the tests of the forked worker."""

import os

import pytest

from privateyes import aggregation


class Forks(list):
    """The workers this process forked, in order. The process has two CPUs
    until ``cpus`` says otherwise; ``cpus(1)`` forces the serial path."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def cpus(self, count: int) -> None:
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def forks(monkeypatch):
    started = Forks(monkeypatch)

    class Recorded(aggregation.ForkedWorker):
        def __init__(self, fn):
            super().__init__(fn)
            started.append(self)

    monkeypatch.setattr(aggregation, "ForkedWorker", Recorded)
    started.cpus(2)
    return started
