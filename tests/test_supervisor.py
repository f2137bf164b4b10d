"""Fake-clock tests of the job supervisor's state machine.

No real processes and no sleeps: a :class:`FakeClock` stands in for
``time.monotonic`` and a :class:`FakeLauncher` returns scripted attempts,
each of which finishes (or goes silent) at a chosen simulated time.
Real-process coverage of the same machine lives in
``test_experiment_service.py`` and ``test_server.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.experiments import protocol
from repro.experiments.supervisor import (
    BACKOFF_CAP,
    STRAGGLER_FLOOR_SECONDS,
    Supervisor,
    Task,
)

#: Simulated seconds per tick (a binary fraction, so clock sums are exact).
STEP = 0.25


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeAttempt:
    """A scripted attempt: ends with ``status`` after ``duration`` seconds;
    a ``silent`` attempt never heartbeats."""

    def __init__(self, clock: FakeClock, task: Task, duration: float,
                 status: str, silent: bool) -> None:
        self.clock = clock
        self.started = clock()
        self.pid = 0
        self.name = task.name
        self.duration = duration
        self.status = status
        self.silent = silent
        self.killed = False

    def outcome(self):
        assert not self.killed, "a killed attempt must not be polled again"
        if self.clock() - self.started < self.duration:
            return None
        if self.status == "ok":
            return {"status": "ok", "digest": {"name": self.name}}
        return {"status": self.status, "traceback": f"{self.status} trace"}

    def silence(self) -> float:
        return self.clock() - self.started if self.silent else 0.0

    def kill(self) -> None:
        self.killed = True


class FakeLauncher:
    """``script[(name, attempt)] = (duration, status, silent)``; anything
    unscripted succeeds after one second."""

    def __init__(self, clock: FakeClock,
                 script: Dict[Tuple[str, int], Tuple[float, str, bool]]
                 = None) -> None:
        self.clock = clock
        self.script = dict(script or {})
        self.launched: List[Tuple[str, int, float]] = []
        self.attempts: List[FakeAttempt] = []

    def __call__(self, task: Task) -> FakeAttempt:
        self.launched.append((task.name, task.attempt, self.clock()))
        duration, status, silent = self.script.get(
            (task.name, task.attempt), (1.0, "ok", False))
        attempt = FakeAttempt(self.clock, task, duration, status, silent)
        self.attempts.append(attempt)
        return attempt


def make(script=None, **kwargs):
    clock = FakeClock()
    launcher = FakeLauncher(clock, script)
    journal: List[Dict[str, object]] = []
    kwargs.setdefault("workers", 1)
    supervisor = Supervisor(launcher, journal=journal, clock=clock, **kwargs)
    return supervisor, clock, launcher, journal


def submit(supervisor: Supervisor, *names: str) -> List[Task]:
    tasks = [Task(key=f"key-{name}", name=name, item=name) for name in names]
    for task in tasks:
        supervisor.submit(task)
    return tasks


def drive(supervisor: Supervisor, clock: FakeClock,
          until: float = float("inf")) -> List[Task]:
    """Tick until idle (or until the clock reaches ``until``)."""
    finished: List[Task] = []
    for _ in range(100_000):
        if not supervisor.busy or clock.now >= until:
            return finished
        finished.extend(supervisor.tick())
        clock.now += STEP
    raise AssertionError("supervisor never went idle")


def events(journal) -> List[str]:
    return [record["event"] for record in journal]


class TestTimeoutAndLease:
    def test_timeout_kills_then_retries(self):
        supervisor, clock, launcher, journal = make(
            {("a", 1): (100.0, "ok", False)}, timeout=5.0, backoff=1.0)
        [task] = submit(supervisor, "a")
        assert drive(supervisor, clock) == [task]
        assert launcher.attempts[0].killed
        assert task.status == protocol.JOB_DONE and task.attempt == 2
        assert supervisor.counters["timeouts"] == 1
        assert supervisor.counters["retries"] == 1
        assert supervisor.counters["executed"] == 1
        failed = [r for r in journal if r["event"] == "attempt_failed"]
        assert [(r["attempt"], r["reason"]) for r in failed] == [(1, "timeout")]
        # Killed past 5 s, relaunched one backoff (1 s) later.
        (_, _, first), (_, _, second) = launcher.launched
        assert first == 0.0 and second >= 5.0 + 1.0

    def test_silent_heartbeat_is_reclaimed_and_retried(self):
        supervisor, clock, launcher, journal = make(
            {("a", 1): (100.0, "ok", True)}, lease_seconds=2.0, backoff=0.5)
        [task] = submit(supervisor, "a")
        drive(supervisor, clock)
        assert launcher.attempts[0].killed
        assert task.status == protocol.JOB_DONE
        assert task.attempt == 2 and task.reclaims == 1
        assert supervisor.counters["lease_reclaims"] == 1
        assert supervisor.counters["retries"] == 1
        assert events(journal) == ["attempt_started", "lease_reclaimed",
                                   "attempt_failed", "attempt_started"]
        reclaim = journal[1]
        assert reclaim["attempt"] == 1 and reclaim["silent_seconds"] > 2.0
        assert journal[2]["reason"] == "lease_reclaim"

    def test_heartbeating_slow_job_is_left_alone(self):
        supervisor, clock, launcher, _journal = make(
            {("a", 1): (30.0, "ok", False)}, lease_seconds=2.0)
        [task] = submit(supervisor, "a")
        drive(supervisor, clock)
        assert task.attempt == 1 and not launcher.attempts[0].killed
        assert supervisor.counters["lease_reclaims"] == 0


class TestRetryAndQuarantine:
    def test_backoff_doubles_up_to_the_cap(self):
        retries = 6
        script = {("a", n): (1.0, "transient", False)
                  for n in range(1, retries + 1)}
        supervisor, clock, launcher, _journal = make(
            script, retries=retries, backoff=1.0)
        [task] = submit(supervisor, "a")
        drive(supervisor, clock)
        assert BACKOFF_CAP == 8.0
        assert task.backoff_schedule == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
        assert task.status == protocol.JOB_DONE
        assert task.attempt == retries + 1
        # Each relaunch waits out its backoff after the failed attempt.
        starts = [at for _name, _attempt, at in launcher.launched]
        gaps = [later - (earlier + 1.0)
                for earlier, later in zip(starts, starts[1:])]
        for gap, delay in zip(gaps, task.backoff_schedule):
            assert delay <= gap < delay + 2 * STEP

    def test_quarantine_after_retries_plus_one_attempts(self):
        script = {("a", n): (1.0, "error", False) for n in range(1, 10)}
        supervisor, clock, launcher, journal = make(script, retries=2,
                                                    backoff=0.5)
        [task] = submit(supervisor, "a")
        assert drive(supervisor, clock) == [task]
        assert task.status == protocol.JOB_FAILED
        assert len(launcher.launched) == 3
        assert task.failure == {"name": "a", "key": "key-a", "attempts": 3,
                                "reason": "error",
                                "traceback": "error trace"}
        assert supervisor.counters["errors"] == 3
        assert supervisor.counters["retries"] == 2
        assert supervisor.counters["quarantined"] == 1
        assert events(journal)[-2:] == ["attempt_failed", "job_quarantined"]
        assert journal[-1]["reason"] == "error"

    def test_last_allowed_attempt_still_completes(self):
        script = {("a", 1): (1.0, "error", False),
                  ("a", 2): (1.0, "error", False)}
        supervisor, clock, _launcher, _journal = make(script, retries=2,
                                                      backoff=0.5)
        [task] = submit(supervisor, "a")
        drive(supervisor, clock)
        assert task.status == protocol.JOB_DONE and task.attempt == 3
        assert supervisor.counters["quarantined"] == 0

    def test_failure_reasons_and_counters(self):
        script = {("c", 1): (1.0, "crash", False),
                  ("t", 1): (1.0, "transient", False),
                  ("e", 1): (1.0, "error", False)}
        supervisor, clock, _launcher, journal = make(script, workers=3,
                                                     backoff=0.5)
        tasks = submit(supervisor, "c", "t", "e")
        drive(supervisor, clock)
        assert all(task.status == protocol.JOB_DONE for task in tasks)
        reasons = {r["name"]: r["reason"] for r in journal
                   if r["event"] == "attempt_failed"}
        assert reasons == {"c": "crash", "t": "transient", "e": "error"}
        counters = supervisor.counters
        assert (counters["crashes"], counters["transient_failures"],
                counters["errors"]) == (1, 1, 1)
        assert counters["retries"] == 3 and counters["executed"] == 3
        assert counters["timeouts"] == counters["lease_reclaims"] == 0


class TestScheduling:
    def test_straggler_needs_three_completions(self):
        script = {("slow", 1): (20.0, "ok", False)}
        supervisor, clock, _launcher, journal = make(script, workers=4)
        tasks = submit(supervisor, "q1", "q2", "q3", "slow")
        drive(supervisor, clock)
        slow = tasks[-1]
        assert slow.straggler and not any(t.straggler for t in tasks[:3])
        assert supervisor.counters["stragglers"] == 1
        [record] = [r for r in journal if r["event"] == "straggler"]
        # Flagged past 4x the 1 s median, not before.
        assert record["name"] == "slow"
        assert max(4.0, STRAGGLER_FLOOR_SECONDS) < record["elapsed"] <= 4.5

    def test_no_straggler_with_two_completions(self):
        script = {("slow", 1): (20.0, "ok", False)}
        supervisor, clock, _launcher, journal = make(script, workers=3)
        tasks = submit(supervisor, "q1", "q2", "slow")
        drive(supervisor, clock)
        assert not any(task.straggler for task in tasks)
        assert "straggler" not in events(journal)

    def test_cancelled_queued_job_never_launches(self):
        script = {("busy", 1): (5.0, "ok", False)}
        supervisor, clock, launcher, _journal = make(script, workers=1)
        busy, queued = submit(supervisor, "busy", "queued")
        drive(supervisor, clock, until=1.0)
        assert busy.status == protocol.JOB_LEASED
        assert supervisor.cancel(queued) is True
        assert supervisor.cancel(busy) is False  # running: left to land
        drive(supervisor, clock)
        assert [name for name, _attempt, _at in launcher.launched] == ["busy"]
        assert queued.status == protocol.JOB_CANCELLED
        assert queued.attempt == 0
        assert busy.status == protocol.JOB_DONE

    def test_deferred_jobs_keep_their_fifo_position(self):
        script = {("a", 1): (1.0, "transient", False),
                  ("x", 1): (1.0, "transient", False),
                  ("b", 1): (10.0, "ok", False),
                  ("c", 1): (10.0, "ok", False)}
        supervisor, clock, launcher, _journal = make(script, workers=2,
                                                     backoff=5.0)
        submit(supervisor, "a", "x")
        drive(supervisor, clock, until=2.0)  # both failed; eligible at 6
        submit(supervisor, "b", "c", "d")
        drive(supervisor, clock)
        order = [(name, attempt) for name, attempt, _at in launcher.launched]
        # b and c take the free slots while a and x wait out their
        # backoff; the deferred pair then launches ahead of d, in order.
        assert order == [("a", 1), ("x", 1), ("b", 1), ("c", 1),
                         ("a", 2), ("x", 2), ("d", 1)]

    def test_workers_bound_concurrency(self):
        supervisor, clock, launcher, _journal = make(workers=2)
        submit(supervisor, "j0", "j1", "j2", "j3", "j4")
        drive(supervisor, clock)
        starts = sorted(at for _name, _attempt, at in launcher.launched)
        for at in starts:
            overlapping = sum(1 for other in starts if other <= at < other + 1.0)
            assert overlapping <= 2
        assert supervisor.counters["executed"] == 5


@pytest.mark.parametrize("retries", [0, 1, 3])
def test_attempt_count_is_retries_plus_one(retries):
    script = {("a", n): (1.0, "crash", False) for n in range(1, 10)}
    supervisor, clock, launcher, _journal = make(script, retries=retries,
                                                 backoff=0.25)
    [task] = submit(supervisor, "a")
    drive(supervisor, clock)
    assert task.status == protocol.JOB_FAILED
    assert len(launcher.launched) == task.failure["attempts"] == retries + 1
