"""Scheduler/transport split: equivalence, retries, beats, job sizing."""

import dataclasses
import json
import os

from repro.campaign.scheduler import (
    CampaignScheduler,
    HeartbeatWriter,
    resolve_jobs,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.transports import (
    ProcessPoolTransport,
    SerialTransport,
    TransportBroken,
)
from repro.workloads import COMMERCIAL_WORKLOADS


def _tiny_spec(n: int = 4) -> CampaignSpec:
    protocols = ["tokenb", "directory", "hammer", "tokend"]
    return CampaignSpec(
        name="tiny", kind="simulate",
        grid=[
            {
                "workload": dataclasses.asdict(COMMERCIAL_WORKLOADS["apache"]),
                "ops_per_proc": 20 + i,
                "config": {"protocol": protocols[i % len(protocols)],
                           "interconnect": "torus", "n_procs": 2},
            }
            for i in range(n)
        ],
    )


def _store_bytes(root):
    return {
        p.name: p.read_bytes()
        for p in sorted(root.glob("*.jsonl")) + [root / "meta.json"]
    }


def test_every_transport_produces_byte_identical_compacted_stores(tmp_path):
    """The split's core claim: serial and local pool publish identical
    records through the same store, so the compacted bytes are a pure
    function of the spec — independent of transport."""
    spec = _tiny_spec(4)
    cases = spec.cases()

    serial_store = CampaignStore(tmp_path / "serial")
    report = CampaignScheduler(serial_store).run(
        cases, SerialTransport(serial_store)
    )
    assert report.ok and report.executed == 4

    pool_store = CampaignStore(tmp_path / "pool")
    pool = ProcessPoolTransport(pool_store, jobs=2)
    try:
        report = CampaignScheduler(pool_store).run(cases, pool)
    finally:
        pool.shutdown()
    assert report.ok and report.executed == 4

    assert _store_bytes(tmp_path / "pool") == _store_bytes(tmp_path / "serial")
    # Everything folded: no pending files survive compaction anywhere.
    for name in ("serial", "pool"):
        assert not list((tmp_path / name).glob("pending-*.jsonl"))


def test_scheduler_pending_diffs_spec_against_store(tmp_path):
    spec = _tiny_spec(3)
    store = CampaignStore(tmp_path)
    scheduler = CampaignScheduler(store)
    assert len(scheduler.pending(spec)) == 3
    scheduler.run(spec.cases()[:1], SerialTransport(store))
    assert len(scheduler.pending(spec)) == 2


def test_concurrent_heartbeats_on_one_path_do_not_collide(
    tmp_path, monkeypatch
):
    """Two runs sharing a store share its default ``heartbeat.json``.
    Force the bad interleaving — run B beats between run A's temp-file
    write and A's rename — and A's beat must still land: each beat
    writes through its own temp file, so B cannot rename A's away."""
    path = tmp_path / "heartbeat.json"
    run_a = HeartbeatWriter(path, total=4, cached=0, jobs=1)
    run_b = HeartbeatWriter(path, total=9, cached=0, jobs=1)
    real_replace = os.replace
    injected = []

    def replace_with_b_beating_first(src, dst):
        if not injected:
            injected.append(src)
            run_b.beat(1)  # B's whole beat, inside A's os.replace
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_with_b_beating_first)
    run_a.beat(2)
    assert injected, "the interleaving was never forced"
    assert json.loads(path.read_text())["total"] == 4  # A's rename was last
    assert not list(tmp_path.glob("*.tmp"))


class _AlwaysBroken:
    """A transport that loses its workers on every submit."""

    out_of_process = False
    lanes = 1

    def __init__(self):
        self.submits = 0

    def submit(self, batch):
        self.submits += 1
        raise TransportBroken("synthetic break")
        yield  # pragma: no cover — makes submit a generator

    def shutdown(self):
        pass


def test_retries_are_configurable_and_stragglers_name_the_reason(
    tmp_path, monkeypatch
):
    from repro.campaign import scheduler

    monkeypatch.setattr(scheduler, "_TRANSPORT_RETRIES", 1)
    spec = _tiny_spec(2)
    store = CampaignStore(tmp_path)
    transport = _AlwaysBroken()
    report = CampaignScheduler(store, compact=False).run(spec, transport)
    assert transport.submits == 2  # first try + one retry
    assert len(report.failures) == 2
    assert all(
        "synthetic break" in failure["error"]
        and "restarted 1 times" in failure["error"]
        for failure in report.failures
    )


def test_resolve_jobs_respects_cpu_affinity(monkeypatch):
    """Auto job sizing uses the process's *usable* CPUs (cgroup/taskset
    affinity), not the machine-wide count."""
    from repro.campaign import scheduler

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert scheduler._available_cpus() == 3
        assert resolve_jobs(None, 64) == 3
        assert resolve_jobs(None, 2) == 2
    # Platforms without the syscall fall back to cpu_count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert scheduler._available_cpus() == (os.cpu_count() or 1)
