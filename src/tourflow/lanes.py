"""Lanes: one process per CPU of the affinity mask, the caller being lane 0.

:func:`run_lanes` is the one lane rule.  It deals the items of some
work to the lanes, runs each lane's items in order until one raises,
and raises the earliest failure once every lane has ended, so the error
is the one a serial run gives.  ``tourflow build`` parses a large
check-in log in byte pieces through it, and ``tourflow analyze`` runs
its Top-k units, one direction and k each.  Every lane but lane 0 is a
child process started with ``os.fork``, which reports through a pipe.
``taskset`` limits them; there is no setting.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import IO, Callable, TypeVar

T = TypeVar("T")


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask: the most lanes worth running."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Pickler(pickle.Pickler):
    """Pickles an exception that does not survive pickling as a RuntimeError naming it."""

    def reducer_override(self, obj):
        if isinstance(obj, BaseException):
            try:
                pickle.loads(pickle.dumps(obj))
            except Exception:
                return RuntimeError, (f"{type(obj).__name__}: {obj}",)
        return NotImplemented


def _deal(weights: list[int], lanes: int) -> list[list[int]]:
    """The item indices of each lane, each lane's in ascending order.

    Longest processing time first: items taken by descending weight,
    ties by index, each to the least loaded lane, ties to the lowest
    lane.
    """
    loads = [0] * lanes
    dealt: list[list[int]] = [[] for _ in range(lanes)]
    for index in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        lane = loads.index(min(loads))
        dealt[lane].append(index)
        loads[lane] += weights[index]
    return [sorted(indices) for indices in dealt]


def _lane(task: Callable[[int], T], indices: list[int]) -> tuple[list[T], BaseException | None]:
    """Run ``task`` on ``indices`` in order; the results, and the exception that stopped it."""
    results = []
    for index in indices:
        try:
            results.append(task(index))
        except BaseException as exc:  # raised by run_lanes once every lane has ended
            return results, exc
    return results, None


def _flush_std_streams() -> None:
    """Flush stdout and stderr, passing over one that is missing or closed."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _fork(task: Callable[[int], T], indices: list[int]) -> tuple[int, IO[bytes]]:
    """Start a lane that runs ``indices`` in a forked child; its pid, and the pipe it reports through.

    The child pickles :func:`_lane`'s outcome into the pipe and exits 0
    once all of it is written; it never returns into the caller's stack.
    """
    reader, writer = os.pipe()
    _flush_std_streams()  # else the child would write the buffered text again
    pid = os.fork()
    if pid:
        os.close(writer)
        return pid, open(reader, "rb")
    code = 1
    try:
        os.close(reader)
        with open(writer, "wb") as pipe:
            _Pickler(pipe, pickle.HIGHEST_PROTOCOL).dump(_lane(task, indices))
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(code)


def run_lanes(task: Callable[[int], T], weights: list[int], what: str) -> list[T]:
    """Run ``task(i)`` for each item ``i`` in ``range(len(weights))``; return the results in item order.

    The items are dealt by weight to ``min(cpu_count(), len(weights))``
    lanes (:func:`_deal`).  Lane 0 runs in this process, every other
    lane in a child forked with ``os.fork`` (:func:`_fork`) that sends
    its results back through a pipe; every child is reaped before this
    returns or raises.  Each lane runs its items in index order and
    stops at the first that raises.  Once every lane has ended, the
    exception of the earliest item that raised is raised: every item
    before it has run, so a serial run would raise it too.  An exception from a child that
    does not pickle arrives as a ``RuntimeError`` naming its type and
    message; a child that exits before reporting fails at its first item
    with ``RuntimeError("<what> lane N exited with code C before
    reporting")``, C being -signum for a child that a signal ended.
    """
    dealt = _deal(weights, max(1, min(cpu_count(), len(weights))))
    # A forked child inherits its task's inputs instead of being sent them,
    # and its CPU time counts in this process's RUSAGE_CHILDREN.  Starting
    # one takes a pipe and a fork, no helper thread, and the pipeline
    # starts no thread of its own, so forking is safe.
    children = []
    try:
        for indices in dealt[1:]:
            children.append(_fork(task, indices))
        outcomes = [_lane(task, dealt[0])]
        payloads = [pipe.read() for _, pipe in children]
    finally:
        codes = []
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for lane, (payload, code) in enumerate(zip(payloads, codes), start=1):
        outcomes.append(pickle.loads(payload) if payload and code == 0 else ([], RuntimeError(
            f"{what} lane {lane} exited with code {code} before reporting")))
    failures = [(indices[len(done)], exc)
                for indices, (done, exc) in zip(dealt, outcomes) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {}
    for indices, (done, _) in zip(dealt, outcomes):
        results.update(zip(indices, done))
    return [results[index] for index in range(len(weights))]
