"""Campaign orchestration: sharded, resumable, content-addressed sweeps.

The single execution path for every scenario sweep in the repo — the
figure-bench prewarm, the adversarial schedule explorer and its
un-perturbed ``differential`` preset, and the fork families all declare
:class:`~repro.campaign.spec.CampaignSpec` objects and run them through
:func:`~repro.campaign.runner.run_campaign` against a
:class:`~repro.campaign.store.CampaignStore`.

* scenarios are content-addressed: key = hash(kind, params, code
  fingerprint), so resuming a killed campaign executes only what is
  missing and a source change invalidates everything;
* results live in JSON-lines shards with per-record flushes and atomic
  compaction, so the store survives kills and its bytes are independent
  of resume history;
* ``python -m repro.campaign run|status|report|compact`` drives it
  from the command line (see :mod:`repro.campaign.cli`).

Execution is one run loop: :func:`run_campaign` sizes ``jobs`` and
calls :meth:`~repro.campaign.scheduler.CampaignScheduler.run`, which
diffs the cases against the store, drives
:func:`~repro.campaign.transports.execute` (in-process at ``jobs=1``,
else over a local process pool), retries on a broken pool, and beats
the heartbeat.  A pool-produced store is byte-identical,
post-compaction, to a serial run.
"""

from repro.campaign.runner import run_campaign
from repro.campaign.scheduler import HeartbeatWriter, RunReport
from repro.campaign.spec import CampaignSpec, ScenarioCase, code_fingerprint
from repro.campaign.store import CampaignStore, StoreBusyError, make_record

__all__ = [
    "CampaignSpec",
    "CampaignStore",
    "HeartbeatWriter",
    "RunReport",
    "ScenarioCase",
    "StoreBusyError",
    "code_fingerprint",
    "make_record",
    "run_campaign",
]
