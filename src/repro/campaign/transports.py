"""Execution: *where* campaign cases run.

The :class:`~repro.campaign.scheduler.CampaignScheduler` decides *what*
runs (store diffing, retry budgets, heartbeats); :func:`execute` runs a
batch in-process or over a local process pool.  Each case's record is
appended to the store *before* the case is yielded — that ordering is
what makes a crash resumable (a yielded case is on disk; an unyielded
one reads as missing).  Both paths share one execute-and-append step,
:func:`_run_one`, so the compacted store bytes are a pure function of
(spec, code version), independent of ``jobs``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Iterator, Sequence

from repro.campaign.executors import execute_case
from repro.campaign.spec import ScenarioCase
from repro.campaign.store import CampaignStore, make_record


def _run_one(
    store: CampaignStore, case: ScenarioCase, stream: str
) -> tuple[bool, str | None]:
    """Execute ``case``, append its record to ``stream``; ``(ok, error)``.

    ``execute_case`` is read from this module's globals at call time,
    so a wrapper patched onto ``transports.execute_case`` sees every
    case, serial or pooled.
    """
    try:
        result = execute_case(case)
    except Exception as exc:  # noqa: BLE001 — reported, not swallowed
        return False, f"{type(exc).__name__}: {exc}"
    store.append(make_record(case, result), stream=stream)
    return True, None


_worker_store: CampaignStore | None = None
_worker_stream: str = "serial"


def _worker_init(root: str) -> None:
    """Bootstrap one pool worker: bind its private store stream.

    Runs once per worker process.  The executor registry (and thus the
    simulator) is imported lazily on first case, which under the default
    fork context is already resident from the parent — the prewarm
    effect the old benchmark pool got by importing ``benchmarks.common``
    in every worker.
    """
    global _worker_store, _worker_stream
    _worker_store = CampaignStore(root)
    _worker_stream = f"worker-{os.getpid()}"


def _worker_run(
    payload: tuple[str, dict, str],
) -> tuple[bool, str | None, str]:
    """Execute one case in a pool worker and publish its record."""
    kind, params, fingerprint = payload
    case = ScenarioCase(kind, params, fingerprint=fingerprint)
    return (*_run_one(_worker_store, case, _worker_stream), _worker_stream)


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn-context children via PYTHONPATH."""
    import repro

    src = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )


def execute(
    store: CampaignStore, batch: Sequence[ScenarioCase], jobs: int
) -> Iterator[tuple[ScenarioCase, bool, str | None, str]]:
    """Run ``batch``; yield ``(case, ok, error, stream)`` per durable case.

    ``jobs == 1`` runs in-process, in batch (= spec) order, on stream
    ``"serial"``.  More submits the batch in order to a pool of ``jobs``
    workers, each appending to its own ``worker-<pid>`` stream, and
    yields in completion order.  A worker dying mid-case breaks the
    pool: ``BrokenProcessPool`` propagates to the caller, who reloads
    the store and calls again for what is still missing.  The pool
    lives for one call and is shut down even when the caller closes the
    generator early: workers hold the store's shared writer lock, and
    the caller's compaction needs it exclusive.
    """
    if jobs == 1:
        for case in batch:
            yield (case, *_run_one(store, case, "serial"), "serial")
        return
    # Spawn-default platforms (macOS/Windows) rebuild sys.path from the
    # environment, so make ``repro`` importable unconditionally —
    # harmless under fork, required elsewhere.
    _ensure_child_import_path()
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(str(store.root),),
    )
    try:
        # Submission in spec order; workers pull from the shared queue,
        # and content-addressing + compaction make the final store
        # independent of which worker ran what.
        by_future = {
            pool.submit(
                _worker_run, (case.kind, case.params, case.fingerprint)
            ): case
            for case in batch
        }
        for future in as_completed(by_future):
            yield (by_future[future], *future.result())
    finally:
        # wait=True even on a broken pool: surviving workers get to
        # finish (and durably flush) their in-flight case before the
        # caller reloads the store to compute what is missing.  A batch
        # the caller abandoned stops: cases still queued are cancelled.
        pool.shutdown(wait=True, cancel_futures=True)
