"""Fault-tolerant experiment service: durable, cached, supervised jobs.

The durable job runner shared by every host-parallel path in the repo
(sweeps, the parity lattice, the fuzzer, the perf benches):

* every job is **content-addressed** (:func:`repro.experiments.store
  .content_key` over the point configuration + base seed), journaled to
  an append-only JSONL work log, and its completed digest lands in a
  :class:`~repro.experiments.store.ResultStore` — so re-running any
  sweep, figure or parity slice reuses every already-computed point and
  a killed host resumes from the journal and finishes with a digest
  byte-identical to a straight-line run;
* execution is **supervised** (:mod:`repro.experiments.supervisor`):
  each attempt runs in its own heartbeating worker process with an
  optional wall-clock timeout, a heartbeat lease, bounded retries with
  exponential backoff, and straggler detection; a worker crash
  (``os._exit``), hang or transient exception costs one attempt, never
  the run;
* degraded modes are graceful: a job that exhausts its retries is
  **quarantined** — its name, reason and traceback are recorded under
  ``failed_points`` in the digest while every other point completes;
* determinism is preserved: job identity (and therefore the per-point
  crc32 seed) never depends on scheduling, results are merged in
  submission order, and the ``simulated_sha256`` fingerprint of a
  faulted, resumed, or cached run equals the fault-free ``workers=1``
  run exactly.

Without a store the service runs the same supervisor with no journal and
a temporary scratch directory that is removed when the run ends.

CLI::

    python -m repro.experiments.service run --demo 8 --store DIR [--workers N]
    python -m repro.experiments.service status --store DIR
    python -m repro.experiments.service kill-resume-smoke [--store DIR]

The ``kill-resume-smoke`` subcommand is the CI resilience gate: it
starts a sweep in a child process group, SIGKILLs it mid-flight, resumes
from the same store and asserts the final digest is byte-identical to a
straight-line run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.addresses import MB
from repro.experiments import protocol
from repro.experiments.faultinject import FaultPlan
from repro.experiments.store import (
    Journal,
    ResultStore,
    active_journal_keys,
    atomic_write_json,
    content_key,
)
from repro.experiments.supervisor import (
    ProcessLauncher,
    Supervisor,
    Task,
    job_details,
    service_counters,
)
from repro.experiments.sweep import (
    SweepPoint,
    merge_point_digests,
    run_point,  # noqa: F401  (re-exported for service clients)
    simulated_fingerprint,
    validate_points,
    _worker,
)

#: Supervisor poll interval while worker processes run.
POLL_SECONDS = 0.005

#: Content-address schema tag for sweep jobs (bump on digest layout change).
SWEEP_JOB_SCHEMA = "sweep_point/v1"


@dataclass
class Job:
    """One unit of work: a picklable payload with a durable identity."""

    index: int
    name: str
    key: str
    item: object


class ExperimentService:
    """Durable, supervised executor for content-addressed job grids."""

    def __init__(self, workers: Optional[int] = None,
                 store: Optional[object] = None,
                 journal: Optional[object] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.25,
                 fault_plan: Optional[FaultPlan] = None,
                 fsync: bool = True) -> None:
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        if journal is None and store is not None:
            journal = Journal(store.journal_path, fsync=fsync)
        elif journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal, fsync=fsync)
        self.journal = journal
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fault_plan = fault_plan

    def execute(self, worker: Callable[[object], Dict[str, object]],
                jobs: Sequence[Job]) -> Dict[str, object]:
        """Run every job (cache-first) and return ordered results.

        ``worker`` must be a module-level callable (it runs in a worker
        process) returning a JSON-serialisable digest.  The outcome
        carries ``results`` in submission order (``None`` for quarantined
        jobs), ``failed_points``, service counters and per-job details.
        """
        counters = service_counters(len(jobs), "supervised")
        self._replay_for_resume(jobs, counters)
        self._journal({"event": "run_started", "jobs": len(jobs),
                       "workers": self.workers})

        results: List[Optional[Dict[str, object]]] = [None] * len(jobs)
        details: Dict[str, Dict[str, object]] = {}
        failed: List[Dict[str, object]] = []
        tasks: Dict[Task, Job] = {}
        for job in jobs:
            hit = self.store.get(job.key) if self.store is not None else None
            if hit is not None:
                results[job.index] = hit["digest"]
                counters["cache_hits"] += 1
                details[job.name] = job_details(0, cache_hit=True)
                self._journal({"event": "cache_hit", "key": job.key,
                               "name": job.name})
            else:
                counters["cache_misses"] += 1
                tasks[Task(job.key, job.name, job.item)] = job

        # The misses run under the supervisor; a store-less run keeps its
        # scratch files in a temporary directory removed on exit.
        scratch = (contextlib.nullcontext(self.store.root / "scratch")
                   if self.store is not None
                   else tempfile.TemporaryDirectory(prefix="repro-service-"))
        with scratch as root:
            Path(root).mkdir(parents=True, exist_ok=True)
            supervisor = Supervisor(
                ProcessLauncher(worker, Path(root), fault_plan=self.fault_plan),
                workers=self.workers, retries=self.retries,
                backoff=self.backoff, timeout=self.timeout,
                journal=self.journal)
            for task in tasks:
                supervisor.submit(task)
            while supervisor.busy:
                for task in supervisor.tick():
                    job = tasks[task]
                    if task.status == protocol.JOB_DONE:
                        self._commit(job, task.digest)
                        results[job.index] = task.digest
                    else:
                        failed.append(task.failure)
                    details[job.name] = job_details(
                        task.attempt, backoff_schedule=task.backoff_schedule,
                        straggler=task.straggler)
                if supervisor.busy:
                    time.sleep(POLL_SECONDS)
        counters.update(supervisor.counters)

        if self.store is not None:
            counters["store_corrupt_objects"] = self.store.corrupt_objects
        total = len(jobs)
        counters["cache_hit_rate"] = (round(counters["cache_hits"] / total, 4)
                                      if total else 0.0)
        self._journal({"event": "run_completed",
                       "completed": sum(1 for r in results if r is not None),
                       "quarantined": counters["quarantined"]})
        return {"results": results, "failed_points": failed,
                "counters": counters, "job_details": details}

    def _commit(self, job: Job, digest: Dict[str, object]) -> None:
        if self.store is not None:
            self.store.put(job.key, digest, meta={"name": job.name})
        self._journal({"event": "job_completed", "key": job.key,
                       "name": job.name})

    def _journal(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _replay_for_resume(self, jobs: Sequence[Job],
                           counters: Dict[str, object]) -> None:
        """Recover the work log: count prior progress and interrupted jobs."""
        if self.journal is None:
            return
        records, corrupt = self.journal.replay()
        counters["journal_corrupt_lines"] = corrupt
        started = {r.get("key") for r in records
                   if r.get("event") == "attempt_started"}
        finished = {r.get("key") for r in records
                    if r.get("event") in ("job_completed", "job_quarantined")}
        current = {job.key for job in jobs}
        counters["resumed_interrupted"] = len((started - finished) & current)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def run_jobs(kind: str, worker: Callable[[object], Dict[str, object]],
             jobs: Sequence[Job], workers: Optional[int] = None,
             store_root: Optional[os.PathLike] = None,
             server: Optional[str] = None) -> Dict[str, object]:
    """``execute`` ``jobs`` in-process, or on the server at ``host:port``
    (which runs its registered ``kind`` worker instead of ``worker``)."""
    if server is not None:
        from repro.experiments.client import RemoteService

        service = RemoteService(server, kind, workers=workers)
    else:
        service = ExperimentService(workers=workers, store=store_root)
    with service:
        return service.execute(worker, jobs)


def print_quarantined(failed_points: Sequence[Dict[str, object]]) -> None:
    """One line per job the service quarantined."""
    for entry in failed_points:
        print(f"  QUARANTINED {entry['name']} after {entry['attempts']} "
              f"attempts ({entry['reason']})")


# --------------------------------------------------------------------- #
# Sweep-grid integration
# --------------------------------------------------------------------- #
def sweep_job_key(point: SweepPoint, base_seed: int = 0) -> str:
    """The content address of a sweep point: config hash + base seed."""
    return content_key({"schema": SWEEP_JOB_SCHEMA, "point": asdict(point),
                        "base_seed": base_seed})


def sweep_jobs(points: Sequence[SweepPoint],
               base_seed: int = 0) -> List[Job]:
    return [Job(index=index, name=point.name,
                key=sweep_job_key(point, base_seed),
                item=(point, base_seed))
            for index, point in enumerate(points)]


def run_resilient_sweep(points: Sequence[SweepPoint],
                        store_root: Optional[os.PathLike] = None,
                        workers: Optional[int] = None,
                        base_seed: int = 0,
                        timeout: Optional[float] = None,
                        retries: int = 2,
                        backoff: float = 0.25,
                        fault_plan: Optional[FaultPlan] = None,
                        fsync: bool = True,
                        server: Optional[str] = None) -> Dict[str, object]:
    """:func:`~repro.experiments.sweep.run_sweep` on a durable service.

    With ``store_root`` the sweep journals to ``store_root/journal.jsonl``
    and caches every completed point content-addressed under
    ``store_root/objects`` — killing the host mid-sweep and calling this
    again finishes the grid and yields the same ``simulated_sha256``.

    With ``server`` (``host:port``) the sweep targets a running
    :mod:`repro.experiments.server` instead: the server owns the store,
    leases and retries, and this process is a thin protocol client.  The
    two paths produce byte-identical ``simulated_sha256`` digests.
    """
    from repro.experiments.sweep import run_sweep

    # Fail fast with errors that name the problem — a silently clamped
    # worker count or a half-built store root costs a debugging session.
    if not points:
        raise ValueError("run_resilient_sweep needs a non-empty point list "
                         "(got 0 sweep points)")
    if workers is not None and workers <= 0:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    if store_root is not None and Path(store_root).is_file():
        raise ValueError(f"store root {os.fspath(store_root)!r} is an "
                         f"existing file, not a directory")
    if server is not None:
        from repro.experiments.client import RemoteService

        service = RemoteService(server, "sweep_point", workers=workers)
    else:
        service = ExperimentService(workers=workers, store=store_root,
                                    timeout=timeout, retries=retries,
                                    backoff=backoff, fault_plan=fault_plan,
                                    fsync=fsync)
    with service:
        return run_sweep(points, workers=workers, base_seed=base_seed,
                         service=service)


def demo_grid(count: int = 8, memory_operations: int = 8000) -> List[SweepPoint]:
    """A small self-contained grid for smokes and CLI demos."""
    return [SweepPoint(name=f"demo-{index}", workload="RND",
                       workload_kwargs={"footprint_bytes": 4 * MB,
                                        "memory_operations": memory_operations,
                                        "prefault": True, "seed": index})
            for index in range(count)]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _load_points(path: str) -> List[SweepPoint]:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return [SweepPoint(**entry) for entry in raw]


def _cmd_run(args: argparse.Namespace) -> int:
    points = (_load_points(args.points) if args.points
              else demo_grid(args.demo, memory_operations=args.demo_ops))
    fault_plan = (FaultPlan.from_json(Path(args.fault_plan).read_text())
                  if args.fault_plan else None)
    digest = run_resilient_sweep(points, store_root=args.store,
                                 workers=args.workers,
                                 base_seed=args.base_seed,
                                 timeout=args.timeout, retries=args.retries,
                                 backoff=args.backoff, fault_plan=fault_plan,
                                 server=args.server)
    if args.json:
        atomic_write_json(args.json, digest)
    service = digest["service"]
    print(f"service run: {len(digest['points'])}/{service['jobs']} points "
          f"({service['cache_hits']} cached, {service['executed']} executed, "
          f"{service['quarantined']} quarantined) in "
          f"{digest['wall_seconds']:.2f}s [{service['mode']}]")
    print(f"  retries={service['retries']} crashes={service['crashes']} "
          f"timeouts={service['timeouts']} "
          f"transient={service['transient_failures']} "
          f"cache_hit_rate={service['cache_hit_rate']:.0%}")
    print(f"  simulated_sha256={digest['simulated_sha256']}")
    print_quarantined(digest["failed_points"])
    return 1 if digest["failed_points"] else 0


#: Journal event -> the per-key set :func:`journal_progress` files it under.
PROGRESS_EVENTS = {"job_submitted": "submitted", "attempt_started": "started",
                   "job_completed": "completed",
                   "job_quarantined": "quarantined",
                   "job_cancelled": "cancelled", "cache_hit": "cache_hits"}


def journal_progress(records: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Per-key lifecycle rollup of a journal: where every job stands.

    ``in_flight`` is every key that was submitted or started but never
    reached a terminal event (completed / quarantined / cancelled) —
    after a crash these are exactly the jobs a resume will re-run.
    """
    keys: Dict[str, set] = {name: set() for name in PROGRESS_EVENTS.values()}
    for record in records:
        name = PROGRESS_EVENTS.get(record.get("event"))
        if name is not None and record.get("key") is not None:
            keys[name].add(record["key"])
    seen = keys["submitted"] | keys["started"]
    terminal = keys["completed"] | keys["quarantined"] | keys["cancelled"]
    rollup = {name: len(keys[name]) for name in
              ("completed", "quarantined", "cancelled", "cache_hits")}
    rollup.update(keys=len(seen | terminal | keys["cache_hits"]),
                  in_flight=len(seen - terminal))
    return rollup


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    journal = Journal(store.journal_path)
    records, corrupt = journal.replay()
    events: Dict[str, int] = {}
    for record in records:
        event = str(record.get("event"))
        events[event] = events.get(event, 0) + 1
    stats = store.stats()
    progress = journal_progress(records)
    print(f"store {store.root}: {stats['stored_objects']} result objects "
          f"({stats['stored_bytes']} bytes, "
          f"{stats['quarantined_objects']} quarantined .corrupt)")
    print(f"journal: {len(records)} records ({corrupt} corrupt lines)")
    print(f"jobs: {progress['keys']} known | {progress['completed']} "
          f"completed, {progress['quarantined']} quarantined, "
          f"{progress['cancelled']} cancelled, {progress['in_flight']} "
          f"in flight")
    for event in sorted(events):
        print(f"  {event}: {events[event]}")
    return 1 if progress["quarantined"] else 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    protect = active_journal_keys(store.journal_path)
    report = store.gc(args.budget_bytes, dry_run=args.dry_run,
                      protect=protect)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"gc {store.root}: {report['bytes_before']} -> "
          f"{report['bytes_after']} bytes (budget {report['budget_bytes']}), "
          f"{verb} {len(report['evicted'])} object(s) "
          f"[{report['evicted_bytes']} bytes], "
          f"{len(report['protected_skipped'])} protected by the active "
          f"journal segment")
    if report["over_budget"]:
        print("  still over budget: every remaining object is protected")
    return 0


def _cmd_kill_resume_smoke(args: argparse.Namespace) -> int:
    """Start a sweep, SIGKILL it mid-flight, resume, assert digest identity."""
    from repro.experiments.sweep import run_sweep

    points = demo_grid(args.points, memory_operations=args.demo_ops)
    baseline = run_sweep(points, workers=1)
    want = baseline["simulated_sha256"]
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    for round_index in range(1, args.rounds + 1):
        store_root = (Path(args.store) if args.store and round_index == 1
                      else Path(tempfile.mkdtemp(prefix="repro-kill-resume-")))
        command = [sys.executable, "-m", "repro.experiments.service", "run",
                   "--demo", str(args.points), "--demo-ops", str(args.demo_ops),
                   "--store", str(store_root), "--workers", "1"]
        child = subprocess.Popen(command, env=env, start_new_session=True,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        journal_path = store_root / "journal.jsonl"
        deadline = time.monotonic() + 120.0
        completed = 0
        while child.poll() is None and time.monotonic() < deadline:
            completed = (journal_progress(Journal(journal_path).replay()[0])
                         ["completed"] if journal_path.exists() else 0)
            if 1 <= completed < len(points):
                break
            time.sleep(0.003)
        killed = False
        if child.poll() is None and 1 <= completed < len(points):
            os.killpg(child.pid, signal.SIGKILL)
            killed = True
        child.wait()
        if not killed:
            print(f"round {round_index}: sweep finished before the kill "
                  f"window; retrying with a fresh store")
            continue

        resumed = run_resilient_sweep(points, store_root=store_root,
                                      workers=args.workers)
        service = resumed["service"]
        identical = resumed["simulated_sha256"] == want
        reused = service["cache_hits"]
        print(f"kill-resume smoke: killed after {completed}/{len(points)} "
              f"points, resume reused {reused} cached point(s), "
              f"journal_corrupt_lines={service['journal_corrupt_lines']}")
        print(f"  straight-line sha {want}")
        print(f"  resumed       sha {resumed['simulated_sha256']} "
              f"({'identical' if identical else 'DIVERGED'})")
        if not identical:
            return 1
        if reused < completed:
            print(f"  ERROR: resume reused {reused} < {completed} journaled "
                  f"completions")
            return 1
        return 0
    print("kill-resume smoke: never caught the sweep mid-flight "
          f"after {args.rounds} rounds")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.service",
        description="Durable, fault-tolerant experiment service")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a sweep grid on the service")
    run_parser.add_argument("--points", type=str, default=None,
                            help="JSON file with a list of SweepPoint objects")
    run_parser.add_argument("--demo", type=int, default=8, metavar="N",
                            help="use the built-in N-point demo grid "
                                 "(default when --points is absent)")
    run_parser.add_argument("--demo-ops", type=int, default=8000,
                            help="memory operations per demo point")
    run_parser.add_argument("--store", type=str, default=None,
                            help="result-store root (enables journal + cache)")
    run_parser.add_argument("--workers", type=int, default=None)
    run_parser.add_argument("--timeout", type=float, default=None,
                            help="per-job wall-clock timeout in seconds")
    run_parser.add_argument("--retries", type=int, default=2)
    run_parser.add_argument("--backoff", type=float, default=0.25,
                            help="base retry backoff (doubles per attempt)")
    run_parser.add_argument("--base-seed", type=int, default=0)
    run_parser.add_argument("--fault-plan", type=str, default=None,
                            help="JSON FaultPlan to inject (testing)")
    run_parser.add_argument("--json", type=str, default=None,
                            help="write the full sweep digest to PATH")
    run_parser.add_argument("--server", type=str, default=None,
                            help="host:port of a running experiment server "
                                 "(replaces the in-process service)")
    run_parser.set_defaults(func=_cmd_run)

    status_parser = sub.add_parser("status", help="inspect a service store")
    status_parser.add_argument("--store", type=str, required=True)
    status_parser.set_defaults(func=_cmd_status)

    gc_parser = sub.add_parser("gc", help="evict LRU store objects to a "
                                          "size budget")
    gc_parser.add_argument("--store", type=str, required=True)
    gc_parser.add_argument("--budget-bytes", type=int, required=True)
    gc_parser.add_argument("--dry-run", action="store_true",
                           help="report the eviction set without unlinking")
    gc_parser.set_defaults(func=_cmd_gc)

    smoke = sub.add_parser("kill-resume-smoke",
                           help="SIGKILL a sweep mid-flight, resume, compare")
    smoke.add_argument("--store", type=str, default=None)
    smoke.add_argument("--points", type=int, default=8)
    smoke.add_argument("--demo-ops", type=int, default=8000)
    smoke.add_argument("--workers", type=int, default=None)
    smoke.add_argument("--rounds", type=int, default=3,
                       help="attempts to catch the sweep mid-flight")
    smoke.set_defaults(func=_cmd_kill_resume_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
