"""Campaign orchestration: sharded, resumable, content-addressed sweeps.

The single execution path for every scenario sweep in the repo — the
figure-bench prewarm, the adversarial schedule explorer, and the
differential conformance harness all declare
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

Execution is one path, :func:`run_campaign` → scheduler → transport →
store:

* **scheduler** (:mod:`repro.campaign.scheduler`) —
  :class:`CampaignScheduler` diffs a spec against the store, drives a
  transport, retries when the transport breaks mid-run, and beats the
  heartbeat; it never knows how scenarios execute;
* **transports** (:mod:`repro.campaign.transports`) — ``submit(batch)``
  yielding completions, either in-process serial or over a local
  process pool.  A pool-produced store is byte-identical,
  post-compaction, to a serial run.

:func:`run_campaign` picks the transport from ``jobs`` and runs the
scheduler over it.
"""

from repro.campaign.runner import HeartbeatWriter, RunReport, run_campaign
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, ScenarioCase, code_fingerprint
from repro.campaign.store import CampaignStore, StoreBusyError, make_record
from repro.campaign.transports import (
    ProcessPoolTransport,
    SerialTransport,
    TransportBroken,
)

__all__ = [
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStore",
    "HeartbeatWriter",
    "ProcessPoolTransport",
    "RunReport",
    "ScenarioCase",
    "SerialTransport",
    "StoreBusyError",
    "TransportBroken",
    "code_fingerprint",
    "make_record",
    "run_campaign",
]
