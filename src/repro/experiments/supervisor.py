"""One job supervisor for the experiment service and the experiment server.

:class:`Supervisor` is a state machine with an injected clock and process
launcher.  The in-process service (:mod:`repro.experiments.service`) ticks
it from a blocking poll loop, the server (:mod:`repro.experiments.server`)
from its asyncio scheduler.  A run without a store is the same machine
with no journal, so every local job is supervised and a hard worker death
(``os._exit``, segfault, OOM-kill) costs one attempt, never a hang.

:class:`ProcessLauncher` forks one worker per attempt; the worker always
heartbeats by touching ``<key16>.a<N>.hb`` and atomically writes its
outcome to ``<key16>.a<N>.json`` in the scratch directory.  Both files are
unlinked once the outcome is read or the attempt is killed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import statistics
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.experiments import protocol
from repro.experiments.faultinject import (
    FaultPlan,
    NetworkFaultPlan,
    TransientFault,
)

#: Default lease: a worker silent for this long is presumed dead.
DEFAULT_LEASE_SECONDS = 2.0

#: Default worker heartbeat period (must be well under the lease).
DEFAULT_HEARTBEAT_INTERVAL = 0.2

#: Retry backoff doubles per attempt up to this many seconds.
BACKOFF_CAP = 8.0

#: A running job this many times slower than the median completed job (and
#: past the absolute floor) is flagged as a straggler.
STRAGGLER_FACTOR = 4.0
STRAGGLER_FLOOR_SECONDS = 0.25

#: Attempt-failure reason -> the counter it increments.
FAILURE_COUNTERS = {"crash": "crashes", "timeout": "timeouts",
                    "lease_reclaim": "lease_reclaims",
                    "transient": "transient_failures", "error": "errors"}

#: Counters a supervisor keeps (a subset of :func:`service_counters`).
ATTEMPT_COUNTERS = ("executed", "retries", *FAILURE_COUNTERS.values(),
                    "quarantined", "stragglers")


def service_counters(jobs: int, mode: str) -> Dict[str, object]:
    """The counters every ``execute`` (local or remote) starts from."""
    counters: Dict[str, object] = {"jobs": jobs, "mode": mode,
                                   "cache_hits": 0, "cache_misses": 0}
    counters.update(dict.fromkeys(ATTEMPT_COUNTERS, 0))
    counters.update(resumed_interrupted=0, journal_corrupt_lines=0,
                    store_corrupt_objects=0, resubmits=0)
    return counters


def job_details(attempts: int, cache_hit: bool = False,
                backoff_schedule: Sequence[float] = (),
                straggler: bool = False) -> Dict[str, object]:
    """One ``job_details`` entry of an ``execute`` outcome."""
    return {"attempts": attempts, "cache_hit": cache_hit,
            "backoff_schedule": list(backoff_schedule),
            "straggler": straggler}


@dataclass(eq=False)
class Task:
    """One supervised job: identity, worker payload and attempt state."""

    key: str
    name: str
    item: object
    status: str = protocol.JOB_QUEUED
    attempt: int = 0
    eligible_at: float = 0.0
    backoff_schedule: List[float] = field(default_factory=list)
    reclaims: int = 0
    straggler: bool = False
    digest: Optional[Dict[str, object]] = None
    failure: Optional[Dict[str, object]] = None
    #: The running attempt's launcher handle and start time.
    handle: object = None
    started: float = 0.0


class Supervisor:
    """Attempts, timeouts, lease reclaim, backoff, retry and quarantine.

    Each tick launches eligible queued tasks FIFO, up to ``workers`` at a
    time (a task waiting out its backoff keeps its queue position), and
    ends running attempts ``ok`` or with a :data:`FAILURE_COUNTERS`
    reason: ``crash`` (died without reporting), ``timeout``,
    ``lease_reclaim`` (heartbeat silent past ``lease_seconds``),
    ``transient`` (:class:`TransientFault`) or ``error``.  A failed task
    is requeued after ``backoff * 2**(n-1)`` seconds (capped at
    :data:`BACKOFF_CAP`) or, after ``retries + 1`` attempts, quarantined.
    It journals ``attempt_started``, ``attempt_failed``,
    ``lease_reclaimed``, ``straggler`` and ``job_quarantined``; the
    ``job_completed`` record follows the caller's store commit.

    ``launcher(task)`` returns a handle with a ``pid``, ``outcome()``
    (``None`` while running, else a dict whose ``status`` is ``ok`` or a
    failure reason), ``silence()`` (seconds since the last heartbeat) and
    ``kill()``.  ``journal`` is anything with ``append(record)``, or None.
    """

    def __init__(self, launcher: Callable[[Task], object], workers: int,
                 retries: int = 2, backoff: float = 0.25,
                 timeout: Optional[float] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 journal: Optional[object] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.launcher = launcher
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.lease_seconds = lease_seconds
        self.journal = journal
        self.clock = clock
        self.queue: Deque[Task] = deque()
        self.running: List[Task] = []
        #: Wall seconds of every successful attempt (straggler median,
        #: the server's ``retry_after`` hint).
        self.durations: List[float] = []
        self.counters: Dict[str, int] = dict.fromkeys(ATTEMPT_COUNTERS, 0)

    @property
    def busy(self) -> bool:
        return bool(self.queue or self.running)

    def submit(self, task: Task) -> None:
        task.status = protocol.JOB_QUEUED
        self.queue.append(task)

    def cancel(self, task: Task) -> bool:
        """Dequeue a queued task; a running or finished one is left alone."""
        if task.status != protocol.JOB_QUEUED:
            return False
        self.queue.remove(task)
        task.status = protocol.JOB_CANCELLED
        return True

    def stop(self) -> None:
        """Kill every running attempt (shutdown); the tasks stay running."""
        for task in self.running:
            task.handle.kill()

    def tick(self) -> List[Task]:
        """Launch eligible tasks, poll running ones; return those finished
        this tick (status ``done`` with a digest, or ``failed``)."""
        now = self.clock()
        self._launch(now)
        return [task for task in list(self.running) if self._poll(task, now)]

    def _launch(self, now: float) -> None:
        deferred: List[Task] = []
        while self.queue and len(self.running) < self.workers:
            task = self.queue.popleft()
            if task.eligible_at > now:
                deferred.append(task)
                continue
            task.attempt += 1
            task.status = protocol.JOB_LEASED
            task.started = now
            task.handle = self.launcher(task)
            self.running.append(task)
            self._journal({"event": "attempt_started", "key": task.key,
                           "name": task.name, "attempt": task.attempt,
                           "pid": task.handle.pid})
        # Backoff-deferred tasks keep their queue position (front, in order).
        self.queue.extendleft(reversed(deferred))

    def _poll(self, task: Task, now: float) -> bool:
        outcome = task.handle.outcome()
        elapsed = now - task.started
        if outcome is None:
            if self.timeout is not None and elapsed > self.timeout:
                task.handle.kill()
                return self._fail(task, "timeout", None)
            silence = task.handle.silence()
            if silence > self.lease_seconds:
                task.handle.kill()
                task.reclaims += 1
                self._journal({"event": "lease_reclaimed", "key": task.key,
                               "name": task.name, "attempt": task.attempt,
                               "silent_seconds": round(silence, 3)})
                return self._fail(task, "lease_reclaim", None)
            if (not task.straggler and len(self.durations) >= 3
                    and elapsed > max(STRAGGLER_FACTOR
                                      * statistics.median(self.durations),
                                      STRAGGLER_FLOOR_SECONDS)):
                task.straggler = True
                self.counters["stragglers"] += 1
                self._journal({"event": "straggler", "key": task.key,
                               "name": task.name,
                               "elapsed": round(elapsed, 3)})
            return False
        if outcome["status"] != "ok":
            return self._fail(task, outcome["status"], outcome.get("traceback"))
        self.running.remove(task)
        self.durations.append(elapsed)
        task.digest = outcome["digest"]
        task.status = protocol.JOB_DONE
        self.counters["executed"] += 1
        return True

    def _fail(self, task: Task, reason: str, trace: Optional[str]) -> bool:
        """Requeue with backoff, or quarantine; True when quarantined."""
        self.running.remove(task)
        self.counters[FAILURE_COUNTERS[reason]] += 1
        self._journal({"event": "attempt_failed", "key": task.key,
                       "name": task.name, "attempt": task.attempt,
                       "reason": reason})
        if task.attempt > self.retries:
            task.status = protocol.JOB_FAILED
            task.failure = {"name": task.name, "key": task.key,
                            "attempts": task.attempt, "reason": reason,
                            "traceback": trace}
            self.counters["quarantined"] += 1
            self._journal({"event": "job_quarantined", "key": task.key,
                           "name": task.name, "reason": reason})
            return True
        delay = min(self.backoff * (2.0 ** (task.attempt - 1)), BACKOFF_CAP)
        task.backoff_schedule.append(round(delay, 6))
        task.eligible_at = self.clock() + delay
        self.counters["retries"] += 1
        self.submit(task)
        return False

    def _journal(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)


class ProcessLauncher:
    """The real launcher: each attempt is a forked daemon worker process.

    ``worker(item)`` must be module-level and return a JSON-serialisable
    digest.  ``listen_fd`` (the server's listening socket) is closed in
    the worker; it may be set after construction, once the socket is bound.
    """

    def __init__(self, worker: Callable[[object], Dict[str, object]],
                 scratch: Path, fault_plan: Optional[FaultPlan] = None,
                 net_plan: Optional[NetworkFaultPlan] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 listen_fd: Optional[int] = None) -> None:
        self.worker = worker
        self.scratch = Path(scratch)
        self.fault_plan = fault_plan
        self.net_plan = net_plan
        self.heartbeat_interval = heartbeat_interval
        self.listen_fd = listen_fd

    def __call__(self, task: Task) -> "_Attempt":
        stem = f"{task.key[:16]}.a{task.attempt}"
        result = self.scratch / f"{stem}.json"
        heartbeat = self.scratch / f"{stem}.hb"
        result.unlink(missing_ok=True)
        heartbeat.touch()
        process = multiprocessing.Process(
            target=_worker_entry,
            args=(self.worker, task.item, task.name, task.attempt,
                  self.fault_plan, self.net_plan, str(heartbeat), str(result),
                  self.heartbeat_interval, self.listen_fd))
        process.daemon = True
        process.start()
        return _Attempt(process, result, heartbeat)


class _Attempt:
    """A running worker process and its scratch files."""

    def __init__(self, process: multiprocessing.Process, result: Path,
                 heartbeat: Path) -> None:
        self.process = process
        self.pid = process.pid
        self.result = result
        self.heartbeat = heartbeat

    def outcome(self) -> Optional[Dict[str, object]]:
        if self.process.is_alive():
            return None
        self.process.join()
        outcome = _read_result(self.result)
        self._unlink()
        if outcome is None:
            return {"status": "crash",
                    "traceback": f"worker exited with code "
                                 f"{self.process.exitcode} before reporting "
                                 f"a result"}
        return outcome

    def silence(self) -> float:
        try:
            return time.time() - os.stat(self.heartbeat).st_mtime
        except OSError:
            return float("inf")

    def kill(self) -> None:
        _kill(self.process)
        self._unlink()

    def _unlink(self) -> None:
        self.result.unlink(missing_ok=True)
        self.heartbeat.unlink(missing_ok=True)


def _kill(process: multiprocessing.Process) -> None:
    process.terminate()
    process.join(0.5)
    if process.is_alive():
        process.kill()
        process.join()


def _read_result(path: Path) -> Optional[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _heartbeat_loop(path: str, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            os.utime(path, None)
        except OSError:
            pass


def _worker_entry(worker: Callable[[object], Dict[str, object]],
                  item: object, name: str, attempt: int,
                  fault_plan: Optional[FaultPlan],
                  net_plan: Optional[NetworkFaultPlan],
                  heartbeat_path: str, result_path: str,
                  heartbeat_interval: float,
                  listen_fd: Optional[int]) -> None:
    """Worker-process entry: heartbeat while running one job attempt.

    The heartbeat runs on a daemon thread (the simulation holds the GIL,
    but the interpreter's switch interval keeps the thread beating); a
    ``drop_heartbeat`` fault suppresses the thread and stalls the work —
    a silent owner the supervisor must reclaim.  The outcome file is
    written atomically, so the supervisor never reads a torn result and
    an abrupt death leaves no file at all.
    """
    # The fork inherited the parent's signal plumbing: under the server the
    # wakeup fd is the parent's asyncio self-pipe, so a SIGTERM aimed at
    # this worker (a timeout or reclaim kill) would trigger a spurious
    # drain.  Detach it and restore default dispositions.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    if listen_fd is not None:
        # A worker outliving a SIGKILLed server would otherwise keep the
        # port bound and block the restarted server's bind.
        try:
            os.close(listen_fd)
        except OSError:
            pass
    stop = threading.Event()
    silence = (net_plan.heartbeat_drop(name, attempt)
               if net_plan is not None else None)
    if silence is None:
        threading.Thread(target=_heartbeat_loop,
                         args=(heartbeat_path, heartbeat_interval, stop),
                         daemon=True).start()
    try:
        if silence is not None:
            time.sleep(silence.stall_seconds)
        if fault_plan is not None:
            fault_plan.apply(name, attempt)
        outcome: Dict[str, object] = {"status": "ok", "digest": worker(item)}
    except TransientFault:
        outcome = {"status": "transient", "traceback": traceback.format_exc()}
    except BaseException:  # noqa: BLE001 - every worker failure is reported
        outcome = {"status": "error", "traceback": traceback.format_exc()}
    finally:
        stop.set()
    tmp = f"{result_path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    os.replace(tmp, result_path)
