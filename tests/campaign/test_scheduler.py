"""Scheduler: serial == pool, beats, job sizing."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.campaign import presets
from repro.campaign.runner import run_campaign
from repro.campaign.scheduler import HeartbeatWriter, resolve_jobs
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
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
        for p in sorted(root.glob("*.jsonl"))
    }


def test_serial_and_pool_produce_byte_identical_compacted_stores(tmp_path):
    """Serial and pooled execution publish identical records through
    the same store, so the compacted bytes are a pure function of the
    spec — independent of ``jobs``."""
    spec = _tiny_spec(4)

    report = run_campaign(spec, CampaignStore(tmp_path / "serial"), jobs=1)
    assert report.ok and report.executed == 4

    report = run_campaign(spec, CampaignStore(tmp_path / "pool"), jobs=2)
    assert report.ok and report.executed == 4

    assert _store_bytes(tmp_path / "pool") == _store_bytes(tmp_path / "serial")
    # Everything folded: no pending files survive compaction anywhere.
    for name in ("serial", "pool"):
        assert not list((tmp_path / name).glob("pending-*.jsonl"))


def test_raising_progress_callback_leaves_no_pool_workers(tmp_path):
    """A progress callback that raises mid-batch (the CLI's
    ``BrokenPipeError`` path) aborts the run, and the pool is gone by
    the time the exception reaches the caller."""

    def progress(done, total, case, ok, error):
        raise BrokenPipeError("reader went away")

    with pytest.raises(BrokenPipeError):
        run_campaign(_tiny_spec(4), CampaignStore(tmp_path), jobs=2,
                     progress=progress)
    assert multiprocessing.active_children() == []


def test_abandoned_batch_cancels_its_queued_cases(tmp_path):
    """A run the caller abandons stops: cases still queued for the pool
    are cancelled rather than run.  The pool hands ``jobs + 1`` cases to
    its workers ahead of time and those still finish, so of 12 cases
    only some are written."""
    spec = presets.explorer_spec(seeds=1, protocols=("directory",))
    assert len(spec) == 12

    def progress(done, total, case, ok, error):
        raise BrokenPipeError("reader went away")

    with pytest.raises(BrokenPipeError):
        run_campaign(spec, CampaignStore(tmp_path), jobs=2,
                     progress=progress)
    assert 0 < len(CampaignStore(tmp_path)) < 12


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
