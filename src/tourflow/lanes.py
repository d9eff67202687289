"""Lanes: one process per CPU of the affinity mask, the caller being lane 0.

``tourflow build`` parses a large check-in log in byte pieces, and
``tourflow analyze`` runs its Top-k units, each in lanes through
:func:`run_lanes`.  Every lane but lane 0 is a forked child process.
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


def _child(work: Callable[[int], T], lane: int, conn) -> None:
    """A forked lane: run its work, then send back the outcome."""
    try:
        outcome = work(lane), None
    except BaseException as exc:  # reported by the caller once every lane has ended
        outcome = None, exc
    payload = io.BytesIO()
    _Pickler(payload, pickle.HIGHEST_PROTOCOL).dump(outcome)
    conn.send_bytes(payload.getbuffer())
    conn.close()


def run_lanes(
    work: Callable[[int], T], count: int, what: str
) -> list[tuple[T | None, BaseException | None]]:
    """Run ``work(lane)`` for each lane in ``range(count)``; return the outcomes in lane order.

    Lane 0 runs in this process, every other lane in a forked child that
    sends its outcome back through a one-way pipe.  An outcome is
    ``(result, None)``, or ``(None, exception)`` if the lane's work
    raised; an exception anywhere in a child's outcome that does not
    pickle arrives as a ``RuntimeError`` naming its type and message.
    A child that exits before reporting gives ``RuntimeError("<what>
    lane N exited with code C before reporting")``.  Nothing is raised
    here: every child has been joined when this returns.
    """
    children = []
    try:
        if count > 1:
            import multiprocessing

            # fork: a child inherits its work's inputs instead of being sent
            # them, and its CPU time counts in this process's
            # RUSAGE_CHILDREN.  Process and Pipe start no thread here, and
            # the pipeline starts none, so forking is safe.
            context = multiprocessing.get_context("fork")
            for lane in range(1, count):
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(target=_child, args=(work, lane, writer))
                child.start()
                writer.close()
                children.append((child, reader))
        try:
            outcomes: list = [(work(0), None)]
        except BaseException as exc:  # reported by the caller once every lane has ended
            outcomes = [(None, exc)]
        for lane, (child, reader) in enumerate(children, start=1):
            try:
                outcomes.append(pickle.loads(reader.recv_bytes()))
            except EOFError:
                child.join()
                outcomes.append((None, RuntimeError(
                    f"{what} lane {lane} exited with code {child.exitcode} before reporting")))
    finally:
        for child, reader in children:
            reader.close()
            child.join()
    return outcomes
