"""Lanes: one process per CPU of the affinity mask, the caller being lane 0.

:func:`run_lanes` is the one lane rule.  It deals the items of some
work to the lanes, runs each lane's items in order until one raises,
and raises the earliest failure once every lane has ended, so the error
is the one a serial run gives.  ``tourflow build`` parses a large
check-in log in byte pieces through it, and ``tourflow analyze`` runs
its Top-k units, one direction and k each.  Every lane but lane 0 is a
forked child process.
``taskset`` limits them; there is no setting.
"""

from __future__ import annotations

import io
import os
import pickle
from typing import Callable, TypeVar

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


def _child(task: Callable[[int], T], indices: list[int], conn) -> None:
    """A forked lane: run its items, then send back the outcome."""
    payload = io.BytesIO()
    _Pickler(payload, pickle.HIGHEST_PROTOCOL).dump(_lane(task, indices))
    conn.send_bytes(payload.getbuffer())
    conn.close()


def run_lanes(task: Callable[[int], T], weights: list[int], what: str) -> list[T]:
    """Run ``task(i)`` for each item ``i`` in ``range(len(weights))``; return the results in item order.

    The items are dealt by weight to ``min(cpu_count(), len(weights))``
    lanes (:func:`_deal`).  Lane 0 runs in this process, every other
    lane in a forked child that sends its results back through a one-way
    pipe.  Each lane runs its items in index order and stops at the
    first that raises.  Once every lane has ended, the exception of the
    earliest item that raised is raised: every item before it has run,
    so a serial run would raise it too.  An exception from a child that
    does not pickle arrives as a ``RuntimeError`` naming its type and
    message; a child that exits before reporting fails at its first item
    with ``RuntimeError("<what> lane N exited with code C before
    reporting")``.
    """
    dealt = _deal(weights, max(1, min(cpu_count(), len(weights))))
    children = []
    try:
        if len(dealt) > 1:
            import multiprocessing

            # fork: a child inherits its task's inputs instead of being sent
            # them, and its CPU time counts in this process's
            # RUSAGE_CHILDREN.  Process and Pipe start no thread here, and
            # the pipeline starts none, so forking is safe.
            context = multiprocessing.get_context("fork")
            for indices in dealt[1:]:
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(target=_child, args=(task, indices, writer))
                child.start()
                writer.close()
                children.append((child, reader))
        outcomes = [_lane(task, dealt[0])]
        for lane, (child, reader) in enumerate(children, start=1):
            try:
                outcomes.append(pickle.loads(reader.recv_bytes()))
            except EOFError:
                child.join()
                outcomes.append(([], RuntimeError(
                    f"{what} lane {lane} exited with code {child.exitcode} before reporting")))
    finally:
        for child, reader in children:
            reader.close()
            child.join()
    failures = [(indices[len(done)], exc)
                for indices, (done, exc) in zip(dealt, outcomes) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {}
    for indices, (done, _) in zip(dealt, outcomes):
        results.update(zip(indices, done))
    return [results[index] for index in range(len(weights))]
