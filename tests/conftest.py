"""Fixtures shared by the test modules: the CPU affinity mask that decides how many processes run."""

from __future__ import annotations

import os

import pytest


@pytest.fixture
def one_cpu(monkeypatch) -> None:
    """An affinity mask of one CPU, under which starting a process fails the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was started"))


@pytest.fixture
def two_cpus(monkeypatch) -> list[int]:
    """An affinity mask of two CPUs; collects the pid of every process forked."""
    pids = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return pids
