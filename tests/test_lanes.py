"""The lane rule: dealing by weight, stopping a lane at its first failure, raising the earliest."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tourflow import lanes
from tourflow.lanes import run_lanes

from conftest import assert_reaped


class Failure(Exception):
    pass


def failing_at(failing: set[int], log: Path | None = None):
    """A task that returns ``(i, pid)``, raises ``Failure(i)`` for ``i`` in ``failing``,
    and appends each item it starts to ``log``."""

    def task(i: int) -> tuple[int, int]:
        if log is not None:
            with open(log, "a") as handle:
                handle.write(f"{i}\n")
        if i in failing:
            raise Failure(i)
        return i, os.getpid()

    return task


def test_deal_balances_the_lanes() -> None:
    # analyze's units: one direction and k each, weighing k.
    for k_values in (range(1, 11), (1, 2, 3), (1, 2, 3, 4), (2, 5)):
        weights = [k for _ in ("out", "in") for k in k_values]
        half = len(k_values)
        dealt = lanes._deal(weights, 2)
        # Lane 0 is dealt every Out unit, lane 1 every In unit.
        assert dealt == [list(range(half)), list(range(half, 2 * half))]
        assert [sum(weights[i] for i in lane) for lane in dealt] == [sum(k_values)] * 2
    assert lanes._deal(weights, 1) == [list(range(len(weights)))]
    # Equal weights: item i to lane i.
    assert lanes._deal([1] * 3, 3) == [[0], [1], [2]]


def test_results_come_back_in_item_order(two_cpus: list) -> None:
    # Lane 0 is dealt items 0 and 2; the forked lane 1, 3 and 4.
    results = run_lanes(failing_at(set()), [3, 1, 2, 1, 3], "test")
    assert [i for i, _ in results] == list(range(5))
    assert [i for i, pid in results if pid != os.getpid()] == [1, 3, 4]
    assert len(two_cpus) == 1
    assert_reaped(two_cpus)


@pytest.mark.parametrize("failing, earliest", [
    ({1, 2}, 1),  # lane 1's failure is the earlier
    ({0, 3}, 0),  # lane 0's
    ({3}, 3),
    ({2, 3}, 2),
])
def test_the_earliest_failure_wins_in_either_lane(
    monkeypatch, two_cpus: list, failing: set, earliest: int
) -> None:
    # Lane 0 is dealt items 0 and 2, lane 1 items 1 and 3.
    for mask in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
        with pytest.raises(Failure) as raised:
            run_lanes(failing_at(failing), [1] * 4, "test")
        assert raised.value.args == (earliest,)
        assert_reaped(two_cpus)
    assert len(two_cpus) == 1


@pytest.mark.parametrize("failing, started", [
    ({2}, [0, 1, 2, 3, 5]),  # lane 0 (0, 2, 4) stops at 2
    ({3}, [0, 1, 2, 3, 4]),  # lane 1 (1, 3, 5) stops at 3
    ({0, 1}, [0, 1]),
])
def test_a_lane_stops_at_its_first_failure(
    tmp_path: Path, two_cpus: list, failing: set, started: list
) -> None:
    log = tmp_path / "started"
    with pytest.raises(Failure):
        run_lanes(failing_at(failing, log), [1] * 6, "test")
    assert sorted(int(line) for line in log.read_text().split()) == started


@pytest.mark.parametrize("failing, error, message", [
    # Lane 1 (items 1 and 3) dies at item 3 and is reported at item 1,
    # before lane 0's failure at item 2, but after one at item 0.
    ({2}, RuntimeError, "^test lane 1 exited with code 3 before reporting$"),
    ({0}, Failure, "^0$"),
])
def test_a_child_that_dies_fails_at_its_first_item(
    two_cpus: list, failing: set, error: type, message: str
) -> None:
    fail = failing_at(failing)

    def task(i: int) -> tuple[int, int]:
        if i == 3:
            os._exit(3)
        return fail(i)

    with pytest.raises(error, match=message):
        run_lanes(task, [1] * 4, "test")
    assert_reaped(two_cpus)


def test_a_child_that_a_signal_ends_reports_minus_signum(two_cpus: list) -> None:
    def task(i: int) -> int:
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match=f"^test lane 1 exited with code -{signal.SIGKILL:d} "):
        run_lanes(task, [1, 1], "test")
    assert_reaped(two_cpus)


def test_text_buffered_before_a_fork_is_written_once() -> None:
    # Both streams are block-buffered into pipes, and a child flushes them
    # on leaving: unflushed text from before the fork would come out twice.
    code = """if True:
        import os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from tourflow.lanes import run_lanes
        print("out", end="")
        print("err", end="", file=sys.stderr)
        results = run_lanes(lambda i: print(f"[{i}]", end="") or os.getpid(), [1, 1], "test")
        assert results[0] == os.getpid() != results[1]
    """
    package_root = str(Path(lanes.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    result = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": package_root}, capture_output=True,
                            text=True, check=True)
    # Lane 1's text is flushed as its child exits, lane 0's as this process does.
    assert (result.stdout, result.stderr) == ("out[1][0]", "err")


def test_an_exception_that_does_not_pickle_arrives_by_name(two_cpus: list) -> None:
    class Unpicklable(Exception):
        pass  # local, so pickle cannot find its class by name

    def task(i: int) -> int:
        if i == 1:
            raise Unpicklable("lost in transit")
        return i

    with pytest.raises(RuntimeError, match="Unpicklable: lost in transit"):
        run_lanes(task, [1, 1], "test")


def test_one_cpu_forks_nothing(one_cpu) -> None:
    assert run_lanes(failing_at(set()), [1, 2, 3], "test") == [(i, os.getpid()) for i in range(3)]
    with pytest.raises(Failure) as raised:
        run_lanes(failing_at({1, 2}), [1, 2, 3], "test")
    assert raised.value.args == (1,)
    assert run_lanes(failing_at(set()), [], "test") == []
