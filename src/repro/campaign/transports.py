"""Transports: *where* campaign cases execute.

The :class:`~repro.campaign.scheduler.CampaignScheduler` decides *what*
runs (store diffing, retry budgets, heartbeats); a transport decides
*where*, behind one tiny contract:

``submit(batch) -> iterator of CaseCompletion``
    Execute every case in ``batch``, yielding one completion per case in
    completion order.  The transport is responsible for publishing each
    successful result to the store durably *before* yielding its
    completion — that ordering is what makes a crash resumable (a
    yielded case is on disk; an unyielded one reads as missing).
``shutdown()``
    Release workers.  A transport must survive ``submit`` being called
    again after a :class:`TransportBroken` — that is how the scheduler
    retries.

Two implementations share that contract:

:class:`SerialTransport`
    In-process, batch order — the debugging path (``--jobs 1``).
:class:`ProcessPoolTransport`
    The local ``ProcessPoolExecutor`` fan-out, with the worker
    bootstrap (store binding + fork-context prewarm).  A worker dying
    mid-case raises :class:`TransportBroken`; the pool is rebuilt on
    the next submit.

Because both publish identical records through the same
content-addressed store, the final (compacted) store bytes are a pure
function of (spec, code version) — independent of which transport ran
which case.  ``tests/campaign/test_scheduler.py`` pins that equivalence.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, Sequence

from repro.campaign.executors import execute_case
from repro.campaign.spec import ScenarioCase
from repro.campaign.store import CampaignStore, make_record


class TransportBroken(RuntimeError):
    """The transport lost execution capacity mid-batch.

    Everything completed so far is durable in the store; the scheduler
    reloads, diffs, and resubmits only what is still missing.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclasses.dataclass(frozen=True)
class CaseCompletion:
    """One case's outcome, yielded by ``Transport.submit``."""

    case: ScenarioCase
    ok: bool
    error: str | None
    stream: str


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------


class SerialTransport:
    """Execute in-process, in batch (= spec) order."""

    #: Results are written by this process: no reload needed afterwards.
    out_of_process = False
    lanes = 1
    stream = "serial"

    def __init__(self, store: CampaignStore):
        self.store = store

    def submit(
        self, batch: Sequence[ScenarioCase]
    ) -> Iterator[CaseCompletion]:
        for case in batch:
            try:
                result = execute_case(case)
            except Exception as exc:  # noqa: BLE001 — reported, not swallowed
                yield CaseCompletion(
                    case, False, f"{type(exc).__name__}: {exc}", self.stream
                )
                continue
            self.store.append(make_record(case, result), stream=self.stream)
            yield CaseCompletion(case, True, None, self.stream)

    def shutdown(self) -> None:  # nothing held
        pass


# ----------------------------------------------------------------------
# Local process pool
# ----------------------------------------------------------------------

_worker_store: CampaignStore | None = None
_worker_stream: str = "serial"


def _worker_init(root: str, n_shards: int) -> None:
    """Bootstrap one pool worker: bind its private store stream.

    Runs once per worker process.  The executor registry (and thus the
    simulator) is imported lazily on first case, which under the default
    fork context is already resident from the parent — the prewarm
    effect the old benchmark pool got by importing ``benchmarks.common``
    in every worker.
    """
    global _worker_store, _worker_stream
    _worker_store = CampaignStore(root, n_shards=n_shards)
    _worker_stream = f"worker-{os.getpid()}"


def _worker_run(
    payload: tuple[str, dict, str],
) -> tuple[str, bool, str | None, str]:
    """Execute one case in a pool worker and publish its record."""
    kind, params, fingerprint = payload
    case = ScenarioCase(kind, params, fingerprint=fingerprint)
    try:
        result = execute_case(case)
    except Exception as exc:  # noqa: BLE001 — reported, not swallowed
        return case.key, False, f"{type(exc).__name__}: {exc}", _worker_stream
    _worker_store.append(make_record(case, result), stream=_worker_stream)
    return case.key, True, None, _worker_stream


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn-context children via PYTHONPATH."""
    import repro

    src = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )


class ProcessPoolTransport:
    """Fan cases out over a local ``ProcessPoolExecutor``.

    Workers append results straight to their own store stream and hand
    back only ``(key, ok, error, stream)`` triples, so execution never
    accumulates payloads in worker RAM.  The pool lives for one
    ``submit`` call: workers hold the store's shared writer lock while
    alive, so tearing the pool down before returning is what lets the
    scheduler's end-of-run compaction take the exclusive lock (and
    unlink the workers' pending files).  A fresh pool is built lazily
    on the next submit — fork-context children inherit the parent's
    imports either way, so the prewarm effect is per-run, not
    per-pool-lifetime.
    """

    out_of_process = True

    def __init__(self, store: CampaignStore, jobs: int):
        self.store = store
        self.lanes = max(1, jobs)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Spawn-default platforms (macOS/Windows) rebuild sys.path
            # from the environment, so make ``repro`` importable
            # unconditionally — harmless under fork, required elsewhere.
            _ensure_child_import_path()
            self._pool = ProcessPoolExecutor(
                max_workers=self.lanes,
                initializer=_worker_init,
                initargs=(str(self.store.root), self.store.n_shards),
            )
        return self._pool

    def submit(
        self, batch: Sequence[ScenarioCase]
    ) -> Iterator[CaseCompletion]:
        # A worker dying mid-case (OOM kill, segfault, os._exit) breaks
        # the whole pool: every in-flight future raises
        # BrokenProcessPool.  Workers flush each record as a line in
        # their pending shard, so the scheduler's reload recovers
        # everything completed before the crash.
        pool = self._ensure_pool()
        try:
            by_future = {}
            # Submission in spec order; workers pull from the shared
            # queue, and content-addressing + compaction make the final
            # store independent of which worker ran what.
            for case in batch:
                future = pool.submit(
                    _worker_run, (case.kind, case.params, case.fingerprint)
                )
                by_future[future] = case
            for future in as_completed(by_future):
                case = by_future[future]
                _key, ok, error, stream = future.result()
                yield CaseCompletion(case, ok, error, stream)
            self.shutdown()
        except BrokenProcessPool:
            self.shutdown()
            raise TransportBroken(
                "BrokenProcessPool: a worker died abruptly"
            ) from None

    def shutdown(self) -> None:
        if self._pool is not None:
            # wait=True even on a broken pool: surviving workers get to
            # finish (and durably flush) their in-flight case before the
            # scheduler reloads the store to compute what is missing.
            self._pool.shutdown(wait=True)
            self._pool = None
