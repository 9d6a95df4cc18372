"""``run_campaign`` — the one-call face of the scheduler.

:class:`~repro.campaign.scheduler.CampaignScheduler` does the store
diffing, retries, resume and heartbeats; :mod:`~repro.campaign.transports`
executes cases serially in-process or over a local process pool.  Every
call site — the benches, the explorer's ``--jobs`` mode, the
differential harness, ``fork_family`` campaigns, and the CLI — calls
:func:`run_campaign`, which picks the transport and delegates.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.campaign.scheduler import (  # noqa: F401 — historical exports
    CampaignScheduler,
    HeartbeatWriter,
    ProgressFn,
    RunReport,
    resolve_jobs,
)
from repro.campaign.spec import CampaignSpec, ScenarioCase
from repro.campaign.store import CampaignStore
from repro.campaign.transports import ProcessPoolTransport, SerialTransport


def run_campaign(
    spec_or_cases: CampaignSpec | Sequence[ScenarioCase],
    store: CampaignStore,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
    compact: bool = True,
    heartbeat: "str | os.PathLike | None" = None,
) -> RunReport:
    """Execute every case not yet in ``store``; return what happened.

    ``jobs=1`` runs in-process via :class:`SerialTransport` (the
    debugging path); more fans out over a :class:`ProcessPoolTransport`
    sized by :func:`resolve_jobs` (``None`` = all usable cores, capped
    by the missing-case count).  ``heartbeat`` names a JSON file
    atomically rewritten on every completion (see
    :class:`HeartbeatWriter`); ``python -m repro.campaign status
    --watch`` tails it for live progress.
    """
    scheduler = CampaignScheduler(
        store, progress=progress, compact=compact, heartbeat=heartbeat
    )
    cases = scheduler.cases_of(spec_or_cases)
    jobs = resolve_jobs(jobs, len(store.missing(cases)))
    if jobs == 1:
        transport = SerialTransport(store)
    else:
        transport = ProcessPoolTransport(store, jobs)
    try:
        return scheduler.run(cases, transport)
    finally:
        transport.shutdown()
