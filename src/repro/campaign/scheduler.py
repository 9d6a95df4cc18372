"""The campaign scheduler: store diffing, retries, heartbeats — no I/O
strategy of its own.

:meth:`CampaignScheduler.run` diffs a case list against the store,
drives :func:`~repro.campaign.transports.execute` over the missing
cases, and turns its completions into progress callbacks, heartbeat
beats, and a :class:`RunReport`.  Contract (the equivalence tests pin
it):

* **Incremental**: only cases missing from the store execute; a
  completed campaign re-runs as a 100% store hit.
* **Deterministic outputs under arbitrary scheduling**: missing cases
  are submitted in spec order; *which* worker executes a scenario
  depends on completion timing — but every result is content-addressed
  and compaction canonicalizes the store, so the record set and the
  final shard bytes are a pure function of (spec, code version),
  independent of ``jobs`` or scheduling.
* **Broken-pool retry**: a worker dying mid-batch
  (``BrokenProcessPool``) is survivable — the store is reloaded
  (picking up every record flushed before the crash), the genuinely
  unfinished cases go to a fresh pool, and after :data:`_POOL_RETRIES`
  restarts the stragglers surface as ordinary per-case failures.
* **Durability before acknowledgement**: ``execute`` publishes each
  record to the store before yielding its completion, so a beat never
  claims work a crash could lose.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Sequence

from repro.campaign.spec import ScenarioCase
from repro.campaign.store import CampaignStore, StoreBusyError, write_atomic
from repro.campaign.transports import execute

#: progress(done, total, case, ok, error) — called after each *executed*
#: case in completion order; ``done`` starts at the cached count.
ProgressFn = Callable[[int, int, ScenarioCase, bool, "str | None"], None]

#: Pool rebuilds after a worker crash (``BrokenProcessPool``) before the
#: still-unfinished cases are surfaced as failures.
_POOL_RETRIES = 2


@dataclasses.dataclass
class RunReport:
    """What one scheduler run (or ``run_campaign`` call) did."""

    total: int
    executed: int
    cached: int
    failures: list[dict] = dataclasses.field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


class HeartbeatWriter:
    """Atomic progress beacon for ``campaign status --watch``.

    One JSON object per beat, written through
    :func:`~repro.campaign.store.write_atomic`, so a concurrent reader
    never sees a torn file.  Each beat gets its own temp file: two runs
    against one store share the default ``heartbeat.json``, and a shared
    temp name would let one run's beat rename the other's file away
    mid-replace.  Beats happen on every completion plus once at start
    and once at the end (``finished`` flips true), so a watcher polling
    the file sees monotone progress and a definitive terminal state
    even for a 100%-cached run.
    """

    def __init__(self, path, total: int, cached: int, jobs: int) -> None:
        self.path = Path(path)
        self.total = total
        self.cached = cached
        self.jobs = jobs
        self.failures = 0
        self._streams: dict[str, int] = {}
        self._started = time.time()
        self._t0 = time.perf_counter()

    def beat(self, done: int, stream: str | None = None,
             ok: bool = True, finished: bool = False) -> None:
        if stream is not None:
            self._streams[stream] = self._streams.get(stream, 0) + 1
        if not ok:
            self.failures += 1
        elapsed = time.perf_counter() - self._t0
        executed = sum(self._streams.values())
        rate = executed / elapsed if elapsed > 0 else 0.0
        remaining = self.total - done
        payload = {
            "total": self.total,
            "completed": done,
            "cached": self.cached,
            "executed": executed,
            "failures": self.failures,
            "jobs": self.jobs,
            "started_at": self._started,
            "updated_at": time.time(),
            "elapsed_s": round(elapsed, 3),
            "throughput_per_s": round(rate, 4),
            "eta_s": round(remaining / rate, 1) if rate > 0 else None,
            "shards": {
                name: {
                    "completed": count,
                    "per_s": round(count / elapsed, 4) if elapsed > 0 else 0.0,
                }
                for name, count in sorted(self._streams.items())
            },
            "finished": finished,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, json.dumps(payload))


def _available_cpus() -> int:
    """CPUs this process may actually use, not the machine's total.

    ``sched_getaffinity`` respects container/cgroup cpusets and
    ``taskset`` restrictions; ``cpu_count`` would oversubscribe the pool
    on affinity-restricted hosts.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # platforms without the syscall
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None, n_cases: int) -> int:
    """Auto (``None``) = one worker per usable core, capped by case count."""
    if jobs is None:
        jobs = _available_cpus()
    return max(1, min(jobs, max(n_cases, 1)))


class CampaignScheduler:
    """Drive a campaign to completion.

    One scheduler may run many campaigns against its store; each
    :meth:`run` is independent.  ``heartbeat`` names the beacon file
    (``None`` disables it).
    """

    def __init__(
        self,
        store: CampaignStore,
        progress: ProgressFn | None = None,
        compact: bool = True,
        heartbeat: "str | os.PathLike | None" = None,
    ):
        self.store = store
        self.progress = progress
        self.compact = compact
        self.heartbeat = heartbeat

    def run(self, cases: Sequence[ScenarioCase], jobs: int) -> RunReport:
        """Execute every case not yet in the store; return what happened.

        ``jobs == 1`` runs in-process; more runs over a local pool of
        ``jobs`` workers.  Failures (executor exceptions, as opposed to
        oracle violations, which are ordinary *results* for the
        ``explore`` kind) are listed in the report and their cases left
        unrecorded, so a rerun retries them.
        """
        started = time.perf_counter()
        missing = self.store.missing(cases)
        total = len(cases)
        done = total - len(missing)
        failures: list[dict] = []
        beacon = None
        if self.heartbeat is not None:
            beacon = HeartbeatWriter(self.heartbeat, total, done, jobs)
            beacon.beat(done)

        remaining = list(missing)
        for _attempt in range(_POOL_RETRIES + 1):
            if not remaining:
                break
            try:
                # closing(): when a progress callback raises mid-batch,
                # the pool shuts down before the exception leaves run(),
                # not whenever the generator happens to be collected.
                with contextlib.closing(
                    execute(self.store, remaining, jobs)
                ) as completions:
                    for case, ok, error, stream in completions:
                        if not ok:
                            failures.append({"key": case.key, "error": error})
                        done += 1
                        if beacon is not None:
                            beacon.beat(done, stream=stream, ok=ok)
                        if self.progress is not None:
                            self.progress(done, total, case, ok, error)
                remaining = []
            except BrokenProcessPool:
                # Mark this round's in-flight cases unfinished: reload
                # the store (picking up every record flushed before the
                # crash) and keep whatever is still missing, minus the
                # cases that already failed in an orderly way.
                self.store.close()
                self.store.load()
                failed_keys = {failure["key"] for failure in failures}
                remaining = [
                    case
                    for case in self.store.missing(remaining)
                    if case.key not in failed_keys
                ]
                done = total - len(remaining)
        if remaining:
            failures.extend(
                {
                    "key": case.key,
                    "error": (
                        "BrokenProcessPool: a worker died abruptly and the "
                        f"transport was restarted {_POOL_RETRIES} times "
                        "without finishing this case"
                    ),
                }
                for case in remaining
            )

        if beacon is not None:
            beacon.beat(done, finished=True)
        self.store.close()
        if self.compact and self.store.dirty:
            try:
                # compact() re-reads everything on disk, which also folds
                # the pool workers' pending shards into the parent's index.
                self.store.compact()
            except StoreBusyError:
                # Another writer (a concurrent CLI run) holds the
                # store's writer lock: leave its pending files alone
                # and just fold the records into this process's index.
                self.store.load()
        elif missing and jobs > 1:
            # No compaction: an explicit reload picks up worker records.
            self.store.load()
        return RunReport(
            total=total,
            executed=len(missing) - len(failures),
            cached=total - len(missing),
            failures=failures,
            elapsed_s=round(time.perf_counter() - started, 3),
        )
