"""Runner semantics: incremental resume, parallel == serial, failures."""

import dataclasses

import pytest

from repro.campaign import executors
from repro.campaign.runner import run_campaign
from repro.campaign.scheduler import resolve_jobs
from repro.campaign.spec import CampaignSpec, ScenarioCase
from repro.campaign.store import CampaignStore, make_record
from repro.system.grid import interconnect_for
from repro.workloads import COMMERCIAL_WORKLOADS

#: A tiny but real simulate case: 2 processors, short streams.
def _sim_params(protocol: str, seed_ops: int = 20) -> dict:
    return {
        "workload": dataclasses.asdict(COMMERCIAL_WORKLOADS["apache"]),
        "ops_per_proc": seed_ops,
        "config": {
            "protocol": protocol,
            "interconnect": interconnect_for(protocol),
            "n_procs": 2,
        },
    }


def _tiny_spec(n: int = 3) -> CampaignSpec:
    protocols = ["tokenb", "directory", "hammer", "null-token"]
    return CampaignSpec(
        name="tiny", kind="simulate",
        grid=[_sim_params(protocols[i % len(protocols)], 20 + i) for i in range(n)],
    )


def test_serial_run_then_full_cache_hit(tmp_path):
    spec = _tiny_spec(3)
    store = CampaignStore(tmp_path)
    first = run_campaign(spec, store, jobs=1)
    assert (first.total, first.executed, first.cached) == (3, 3, 0)
    assert first.ok

    second = run_campaign(spec, CampaignStore(tmp_path), jobs=1)
    assert (second.total, second.executed, second.cached) == (3, 0, 3)


def test_killed_campaign_resumes_only_missing_and_matches_uninterrupted(tmp_path):
    """The acceptance shape: partial store + torn line -> rerun executes
    exactly the missing scenarios and the stores end byte-identical."""
    spec = _tiny_spec(4)
    cases = spec.cases()

    uninterrupted = CampaignStore(tmp_path / "full")
    run_campaign(spec, uninterrupted, jobs=1)

    # "Killed" run: two scenarios recorded, a third torn mid-write.
    killed = CampaignStore(tmp_path / "killed")
    run_campaign(cases[:2], killed, jobs=1)
    torn = make_record(cases[2], {"unfinished": True})
    from repro.campaign.spec import canonical_json

    with open(killed.pending_path("worker-dead"), "w") as fh:
        fh.write(canonical_json(torn)[:40])

    resumed = CampaignStore(tmp_path / "killed")
    report = run_campaign(spec, resumed, jobs=1)
    assert report.executed == 2  # the torn scenario and the never-run one
    assert report.cached == 2

    files_full = {
        p.name: p.read_bytes() for p in (tmp_path / "full").glob("*.jsonl")
    }
    files_resumed = {
        p.name: p.read_bytes() for p in (tmp_path / "killed").glob("*.jsonl")
    }
    assert files_full == files_resumed


def test_parallel_run_matches_serial_records(tmp_path):
    spec = _tiny_spec(4)
    serial = CampaignStore(tmp_path / "serial")
    run_campaign(spec, serial, jobs=1)
    parallel = CampaignStore(tmp_path / "parallel")
    report = run_campaign(spec, parallel, jobs=2)
    assert report.executed == 4
    by_key_serial = {r["key"]: r for r in serial.records()}
    by_key_parallel = {r["key"]: r for r in parallel.records()}
    assert by_key_serial == by_key_parallel


def test_executor_failure_is_reported_and_retried(tmp_path, monkeypatch):
    calls = {"n": 0}

    def flaky(params):
        calls["n"] += 1
        if params.get("explode"):
            raise RuntimeError("boom")
        return {"ok": True}

    monkeypatch.setitem(executors.EXECUTORS, "flaky", flaky)
    good = ScenarioCase("flaky", {"explode": False}, fingerprint="fp")
    bad = ScenarioCase("flaky", {"explode": True}, fingerprint="fp")
    store = CampaignStore(tmp_path)

    report = run_campaign([good, bad], store, jobs=1)
    assert report.executed == 1
    assert len(report.failures) == 1
    assert "boom" in report.failures[0]["error"]
    assert not report.ok
    # The failed case was not recorded: a rerun retries it (and only it).
    retry = run_campaign([good, bad], CampaignStore(tmp_path), jobs=1)
    assert retry.cached == 1
    assert len(retry.failures) == 1
    assert calls["n"] == 3


def test_progress_ticks_start_at_cached_count(tmp_path):
    spec = _tiny_spec(3)
    store = CampaignStore(tmp_path)
    run_campaign(spec.cases()[:1], store, jobs=1)

    ticks = []
    run_campaign(
        spec,
        CampaignStore(tmp_path),
        jobs=1,
        progress=lambda done, total, case, ok, error: ticks.append(
            (done, total, ok)
        ),
    )
    assert ticks == [(2, 3, True), (3, 3, True)]


def test_resolve_jobs():
    from repro.campaign.scheduler import _available_cpus

    assert resolve_jobs(1, 100) == 1
    assert resolve_jobs(8, 3) == 3
    assert resolve_jobs(None, 0) == 1
    # Auto sizing follows the *usable* CPUs (affinity-aware), capped by
    # the case count.
    assert resolve_jobs(None, 64) == min(_available_cpus(), 64)


def _crash_once(params):
    """Executor that hard-kills its worker the first time a marker file
    is absent — the second attempt finds the marker and succeeds."""
    import os
    from pathlib import Path

    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(1)  # bypass exception handling: the pool breaks
    return {"ok": True, "survived": True}


def _crash_always(params):
    import os

    os._exit(1)


def test_broken_pool_respawns_and_finishes(tmp_path, monkeypatch):
    """A worker dying mid-case (OOM kill analogue) breaks the whole
    pool; the runner must reload the store, respawn, and finish the
    genuinely unfinished cases — not surface a spurious failure."""
    from repro.campaign import scheduler

    monkeypatch.setitem(executors.EXECUTORS, "crash-once", _crash_once)
    # Worst-case schedule: each of the 3 cases crashes in its own round
    # (a round ends at the first worker death), so finishing needs 3
    # crash rounds plus one clean round — give the retry budget exactly
    # that, instead of racing the default against worker scheduling.
    monkeypatch.setattr(scheduler, "_POOL_RETRIES", 3)
    cases = [
        ScenarioCase(
            "crash-once",
            {"marker": str(tmp_path / f"marker-{i}"), "i": i},
            fingerprint="fp",
        )
        for i in range(3)
    ]
    store = CampaignStore(tmp_path / "store")
    report = run_campaign(cases, store, jobs=2)
    assert report.ok, report.failures
    assert report.executed == 3
    for case in cases:
        assert store.result_for(case) == {"ok": True, "survived": True}
    # And the store is a full cache on rerun.
    rerun = run_campaign(cases, CampaignStore(tmp_path / "store"), jobs=2)
    assert (rerun.executed, rerun.cached) == (0, 3)


def test_broken_pool_retries_are_bounded(tmp_path, monkeypatch):
    """A worker that dies every time must not retry forever: after the
    respawn budget the unfinished cases surface as ordinary failures
    naming the reason and the restart count, and exactly
    ``_POOL_RETRIES + 1`` pools were built."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.campaign import scheduler, transports

    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setitem(executors.EXECUTORS, "crash-always", _crash_always)
    monkeypatch.setattr(scheduler, "_POOL_RETRIES", 1)
    monkeypatch.setattr(transports, "ProcessPoolExecutor", CountingPool)
    # Two cases: a single case would resolve to the in-process serial
    # path, where os._exit would take the test process down with it.
    cases = [
        ScenarioCase("crash-always", {"i": i}, fingerprint="fp")
        for i in range(2)
    ]
    store = CampaignStore(tmp_path)
    report = run_campaign(cases, store, jobs=2)
    assert not report.ok
    assert len(report.failures) == 2
    assert all(
        "BrokenProcessPool" in failure["error"]
        and "restarted 1 times" in failure["error"]
        for failure in report.failures
    )
    assert len(pools) == 2  # first try + one retry
    for case in cases:
        assert store.result_for(case) is None


def test_explore_kind_records_violations_as_data(tmp_path):
    """Oracle violations are results, not failures — they cache too."""
    # The known-violating scenario from the explorer's own test suite.
    scenario = {
        "seed": 0, "protocol": "null-token", "interconnect": "torus",
        "workload": "false_sharing", "ops_per_proc": 8,
        "mutant": "no-escalation",
    }
    case = ScenarioCase("explore", scenario)
    store = CampaignStore(tmp_path)
    report = run_campaign([case], store, jobs=1)
    assert report.ok and report.executed == 1
    result = store.result_for(case)
    assert result["ok"] is False
    assert result["violation_type"] == "DeadlockError"


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------


def test_heartbeat_written_atomically_and_finishes(tmp_path):
    import json

    spec = _tiny_spec(3)
    store = CampaignStore(tmp_path / "store")
    beat_path = tmp_path / "heartbeat.json"
    beats = []

    def progress(done, total, case, ok, error):
        # Every progress tick must observe a complete, parseable beat
        # whose completed count has already caught up to this tick.
        beat = json.loads(beat_path.read_text())
        assert beat["completed"] == done
        assert not beat["finished"]
        beats.append(beat)

    report = run_campaign(spec, store, jobs=1, progress=progress,
                          heartbeat=beat_path)
    assert report.ok and len(beats) == 3
    final = json.loads(beat_path.read_text())
    assert final["finished"] is True
    assert final["completed"] == final["total"] == 3
    assert final["executed"] == 3
    assert final["shards"]["serial"]["completed"] == 3
    assert final["shards"]["serial"]["per_s"] > 0
    assert final["eta_s"] == 0.0
    assert final["updated_at"] >= final["started_at"]
    # No beat's temp file survives its completed atomic rename.
    assert not list(beat_path.parent.glob("*.tmp"))


def test_heartbeat_counts_failures(tmp_path):
    import json

    def _boom(params):
        raise RuntimeError("executor exploded")

    executors.EXECUTORS["boom"] = _boom
    try:
        good = ScenarioCase("simulate", _sim_params("tokenb"))
        bad = ScenarioCase("boom", {"x": 1})
        beat_path = tmp_path / "hb.json"
        report = run_campaign([good, bad], CampaignStore(tmp_path / "s"),
                              jobs=1, heartbeat=beat_path)
        assert len(report.failures) == 1
        final = json.loads(beat_path.read_text())
        assert final["failures"] == 1
        assert final["completed"] == 2
        assert final["finished"] is True
    finally:
        executors.EXECUTORS.pop("boom", None)


def test_heartbeat_on_fully_cached_run(tmp_path):
    """A 100% store hit still writes a terminal beat, so --watch on a
    finished campaign exits instead of hanging."""
    import json

    spec = _tiny_spec(2)
    store_root = tmp_path / "store"
    run_campaign(spec, CampaignStore(store_root), jobs=1)
    beat_path = tmp_path / "hb.json"
    report = run_campaign(spec, CampaignStore(store_root), jobs=1,
                          heartbeat=beat_path)
    assert report.cached == 2 and report.executed == 0
    final = json.loads(beat_path.read_text())
    assert final["finished"] is True
    assert final["completed"] == 2
    assert final["cached"] == 2
    assert final["executed"] == 0


def test_heartbeat_parallel_tracks_worker_shards(tmp_path):
    import json

    spec = _tiny_spec(4)
    beat_path = tmp_path / "hb.json"
    report = run_campaign(spec, CampaignStore(tmp_path / "store"), jobs=2,
                          heartbeat=beat_path)
    assert report.ok and report.executed == 4
    final = json.loads(beat_path.read_text())
    assert final["finished"] is True
    assert sum(s["completed"] for s in final["shards"].values()) == 4
    assert all(name.startswith("worker-") for name in final["shards"])
