"""``run_campaign`` — the one-call face of the scheduler.

:class:`~repro.campaign.scheduler.CampaignScheduler` does the store
diffing, retries, resume and heartbeats;
:func:`~repro.campaign.transports.execute` runs cases in-process or over
a local process pool.  Every call site — the benches, the explore
presets, ``fork_family`` campaigns, and the CLI — calls
:func:`run_campaign`, which sizes ``jobs`` and delegates.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.campaign.scheduler import (
    CampaignScheduler,
    ProgressFn,
    RunReport,
    resolve_jobs,
)
from repro.campaign.spec import CampaignSpec, ScenarioCase
from repro.campaign.store import CampaignStore


def run_campaign(
    spec_or_cases: CampaignSpec | Sequence[ScenarioCase],
    store: CampaignStore,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
    compact: bool = True,
    heartbeat: "str | os.PathLike | None" = None,
) -> RunReport:
    """Execute every case not yet in ``store``; return what happened.

    ``jobs=1`` runs in-process (the debugging path); more fans out over
    a local process pool sized by :func:`resolve_jobs` (``None`` = all
    usable cores, capped by the missing-case count).  ``heartbeat``
    names a JSON file atomically rewritten on every completion (see
    :class:`~repro.campaign.scheduler.HeartbeatWriter`); ``python -m
    repro.campaign status --watch`` tails it for live progress.
    """
    if isinstance(spec_or_cases, CampaignSpec):
        cases = spec_or_cases.cases()
    else:
        cases = list(spec_or_cases)
    jobs = resolve_jobs(jobs, len(store.missing(cases)))
    scheduler = CampaignScheduler(
        store, progress=progress, compact=compact, heartbeat=heartbeat
    )
    return scheduler.run(cases, jobs)
