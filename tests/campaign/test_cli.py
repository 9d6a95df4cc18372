"""CLI: run/status/report round trips, --expect-cached, spec files."""

import dataclasses
import json

import pytest

from repro.campaign.cli import EXIT_NOT_CACHED, main
from repro.workloads import COMMERCIAL_WORKLOADS


@pytest.fixture()
def mini_spec_file(tmp_path):
    """A two-scenario simulate spec serialized the way the CLI loads it."""
    grid = [
        {
            "workload": dataclasses.asdict(COMMERCIAL_WORKLOADS["apache"]),
            "ops_per_proc": 20,
            "config": {"protocol": protocol, "interconnect": "torus",
                       "n_procs": 2},
        }
        for protocol in ("tokenb", "directory")
    ]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(
        {"name": "mini", "kind": "simulate", "grid": grid}
    ))
    return str(path)


def test_run_status_report_cycle(mini_spec_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    out = capsys.readouterr().out
    assert "2 executed, 0 cached" in out

    assert main(["status", "--spec", mini_spec_file, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "2 complete, 0 missing" in out

    assert main(["report", "--spec", mini_spec_file, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "tokenb" in out and "directory" in out
    assert "cycles_per_transaction" in out


def test_report_formats_csv_and_markdown(mini_spec_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    capsys.readouterr()

    out_file = tmp_path / "report.csv"
    assert main(["report", "--spec", mini_spec_file, "--store", store,
                 "--format", "csv", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("workload,protocol,interconnect")
    assert len(lines) == 3  # header + one row per scenario
    assert any(line.split(",")[1] == "tokenb" for line in lines[1:])
    assert lines[0] in out  # printed alongside the file export

    assert main(["report", "--spec", mini_spec_file, "--store", store,
                 "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| workload | protocol |")
    assert "| --- |" in out
    assert "| tokenb |" in out and "| directory |" in out


@pytest.fixture(scope="module")
def differential_store(tmp_path_factory):
    """The differential preset at ``--seeds 1`` (42 explore cases), run
    once for every report test that reads it."""
    store = str(tmp_path_factory.mktemp("differential") / "store")
    assert main(["run", "--spec", "differential", "--seeds", "1",
                 "--store", store, "--jobs", "1", "-q"]) == 0
    return store


def test_report_format_csv_covers_explore_and_differential(
    tmp_path, capsys, differential_store
):
    """The differential preset is explore-kind: its csv is the explore
    table, one row per protocol's scenario."""
    grid = [{"seed": 0, "protocol": "tokenm", "interconnect": "torus",
             "workload": "false_sharing", "ops_per_proc": 8}]
    spec = tmp_path / "explore.json"
    spec.write_text(json.dumps({"name": "explore", "kind": "explore",
                                "grid": grid}))
    explore_store = str(tmp_path / "store")
    assert main(["run", "--spec", str(spec), "--store", explore_store,
                 "--jobs", "1", "-q"]) == 0
    for spec_args, store, rows in (
        ([str(spec)], explore_store, 1),
        (["differential", "--seeds", "1"], differential_store, 42),
    ):
        capsys.readouterr()
        assert main(["report", "--spec", *spec_args, "--store", store,
                     "--format", "csv"]) == 0
        header, *lines = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("protocol,interconnect,workload,seed,ok,")
        assert len(lines) == rows
        assert "false_sharing" in lines[0]


def test_expect_cached_asserts_full_store_hit(mini_spec_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    # Cold store: --expect-cached must fail loudly...
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q", "--expect-cached"]) == EXIT_NOT_CACHED
    capsys.readouterr()
    # ...and a second run is a 100% hit.
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q", "--expect-cached"]) == 0
    assert "100% store hit" in capsys.readouterr().out


def test_report_names_missing_scenarios(mini_spec_file, tmp_path, capsys):
    assert main(["report", "--spec", mini_spec_file,
                 "--store", str(tmp_path / "empty")]) == 1
    assert "missing" in capsys.readouterr().out


def test_unknown_spec_is_rejected():
    with pytest.raises(SystemExit, match="unknown spec"):
        main(["run", "--spec", "nope"])


def test_unknown_spec_file_fields_are_rejected(tmp_path):
    """A misspelt field (or the retired ``base``/``axes``) must not run
    as an empty campaign that exits 0."""
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "name": "typo", "kind": "simulate", "grdi": [{"x": 1}],
        "base": {}, "axes": [],
    }))
    with pytest.raises(SystemExit, match="field.s. axes, base, grdi"):
        main(["run", "--spec", str(path), "--store", str(tmp_path / "s")])


@pytest.mark.parametrize("field", ["name", "kind"])
def test_spec_file_missing_a_required_field_is_rejected(tmp_path, field):
    """A spec file without ``name`` or ``kind`` gets the CLI's ``spec
    file …`` error, not a ``KeyError`` traceback."""
    payload = {"name": "nameless", "kind": "simulate", "grid": []}
    del payload[field]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(
        SystemExit, match=f"spec file .*missing campaign spec field.s. {field}"
    ):
        main(["run", "--spec", str(path), "--store", str(tmp_path / "s")])


@pytest.mark.parametrize("payload, message", [
    (None, "No such file"),
    ([1, 2], "a campaign spec is a JSON object, not list"),
    ({"name": "ints", "kind": "simulate", "grid": [1]},
     "grid must be a list of objects"),
    ({"name": "mapping", "kind": "simulate", "grid": {}},
     "grid must be a list of objects"),
    ({"name": "bogus", "kind": "bogus", "grid": [{"x": 1}]},
     "unknown campaign kind 'bogus'"),
], ids=["missing", "list", "grid-of-ints", "grid-mapping", "unknown-kind"])
def test_malformed_spec_file_is_rejected_before_running(
    tmp_path, payload, message
):
    """A spec file that is missing or not an object, whose grid is not
    a list of objects, or whose kind no executor runs gets the ``spec
    file …`` error and exit 1 before any case runs."""
    path = tmp_path / "malformed.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    store = tmp_path / "s"
    with pytest.raises(SystemExit, match=f"spec file .*{message}") as exc:
        main(["run", "--spec", str(path), "--store", str(store)])
    assert isinstance(exc.value.code, str)  # printed, exit status 1
    assert not store.exists()


@pytest.mark.parametrize("argv,message", [
    (["run", "--jobs", "0"], "argument --jobs: must be positive, got 0"),
    (["run", "--jobs", "-2"], "argument --jobs: must be positive, got -2"),
    (["run", "--seeds", "0"], "argument --seeds: must be positive, got 0"),
    (["run", "--seeds", "-2"], "argument --seeds: must be positive, got -2"),
    (["status", "--watch", "--interval", "-1"],
     "argument --interval: must be positive, got -1.0"),
    (["status", "--watch", "--interval", "0"],
     "argument --interval: must be positive, got 0.0"),
], ids=["zero-jobs", "negative-jobs", "zero-seeds", "negative-seeds",
        "negative-interval", "zero-interval"])
def test_bad_arguments_exit_2_with_an_error(argv, message, capsys):
    """A value the command cannot run is refused before anything runs:
    no serial fallback, empty campaign or busy poll."""
    command, *flags = argv
    with pytest.raises(SystemExit) as exited:
        main([command, "--spec", "explorer", *flags])
    assert exited.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_compact_subcommand_folds_pending_shards(
    mini_spec_file, tmp_path, capsys
):
    """``compact`` folds worker shards into canonical sorted shards and
    reports the before/after record accounting."""
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    capsys.readouterr()

    assert main(["compact", "--spec", mini_spec_file, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "compacted" in out
    assert "2 -> 2 records" in out

    # Compaction preserves every record: the rerun is a full store hit.
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q", "--expect-cached"]) == 0
    assert "100% store hit" in capsys.readouterr().out


def test_compact_prune_stale_drops_foreign_fingerprints(
    mini_spec_file, tmp_path, capsys, monkeypatch
):
    """--prune-stale evicts records whose code fingerprint no longer
    matches — the disk-hygiene path for long-lived campaign stores."""
    store = str(tmp_path / "store")
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "old-code")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "new-code")
    capsys.readouterr()

    assert main(["compact", "--spec", mini_spec_file, "--store", store,
                 "--prune-stale"]) == 0
    out = capsys.readouterr().out
    assert "2 stale records pruned" in out
    assert main(["status", "--spec", mini_spec_file, "--store", store]) == 0
    assert "0 complete, 2 missing" in capsys.readouterr().out


def test_fork_family_spec_runs_caches_and_reports(tmp_path, capsys):
    """The fork_family kind round-trips: run (executor purity), rerun
    (--expect-cached), report (per-tail table)."""
    from repro.campaign.presets import family_case_params
    from repro.snapshot import demo_family

    family = demo_family(warmup_ops=24, tail_ops=6, n_tails=2)
    grid = [
        family_case_params(family, protocol, "torus", n_procs=2, seed=0)
        for protocol in ("tokenb", "directory")
    ]
    spec = tmp_path / "families.json"
    spec.write_text(json.dumps(
        {"name": "families", "kind": "fork_family", "grid": grid}
    ))
    store = str(tmp_path / "store")

    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q"]) == 0
    out = capsys.readouterr().out
    assert "2 executed, 0 cached" in out

    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q", "--expect-cached"]) == 0
    assert "100% store hit" in capsys.readouterr().out

    assert main(["report", "--spec", str(spec), "--store", store]) == 0
    out = capsys.readouterr().out
    assert "tail" in out and "warmup" in out
    assert "tokenb" in out and "directory" in out


def test_fork_family_exports_one_row_per_tail(tmp_path, capsys):
    """fork_family exports like every other kind: csv and json give one
    row per tail, carrying the same warmup and tail event counts as the
    text listing."""
    from repro.campaign.presets import family_case_params
    from repro.snapshot import demo_family

    family = demo_family(warmup_ops=24, tail_ops=6, n_tails=2)
    grid = [
        family_case_params(family, protocol, "torus", n_procs=2, seed=0)
        for protocol in ("tokenb", "directory")
    ]
    spec = tmp_path / "families.json"
    spec.write_text(json.dumps(
        {"name": "families", "kind": "fork_family", "grid": grid}
    ))
    store = str(tmp_path / "store")
    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q"]) == 0
    capsys.readouterr()

    def report(*extra) -> str:
        assert main(["report", "--spec", str(spec), "--store", store,
                     *extra]) == 0
        return capsys.readouterr().out

    listing = {}
    for line in report().splitlines()[1:-1]:
        _, protocol, _, tail, warmup, tail_events, _ = line.split()
        listing[protocol, tail] = (int(warmup), int(tail_events))
    assert len(listing) == 4  # two families x two tails

    header, *lines = report("--format", "csv").strip().splitlines()
    columns = header.split(",")
    csv_rows = [dict(zip(columns, line.split(","))) for line in lines]
    json_rows = json.loads(report("--format", "json"))
    for rows in (csv_rows, json_rows):
        assert {
            (row["protocol"], row["tail"]): (
                int(row["warmup_events"]), int(row["tail_events"])
            )
            for row in rows
        } == listing
        assert len(rows) == 4


def test_explore_spec_violations_exit_nonzero(tmp_path, capsys):
    """Recorded oracle violations surface through the run exit code, and
    the first one in spec order is shrunk into a replayable repro in the
    store."""
    from repro.testing import explore
    from repro.testing.shrink import load_repro

    grid = [
        {"seed": 0, "protocol": "tokenb", "interconnect": "torus",
         "workload": "false_sharing", "ops_per_proc": 8},
        {"seed": 0, "protocol": "null-token", "interconnect": "torus",
         "workload": "false_sharing", "ops_per_proc": 8,
         "mutant": "no-escalation"},
        {"seed": 0, "protocol": "tokenb", "interconnect": "torus",
         "workload": "false_sharing", "ops_per_proc": 8,
         "mutant": "token-duplication"},
    ]
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"name": "bad", "kind": "explore", "grid": grid}))
    store = str(tmp_path / "store")
    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q"]) == 1
    out = capsys.readouterr().out
    assert "DeadlockError" in out and "TokenInvariantError" in out
    repro = tmp_path / "store" / "repro_failure.json"
    scenario, violation = load_repro(repro)
    assert (scenario.mutant, violation["type"]) == (
        "no-escalation", "DeadlockError"
    )
    assert explore.main(["--repro", str(repro)]) == 0
    # The violating record is cached data: the rerun replays it.
    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q", "--expect-cached"]) == 1


def test_explore_report_matches_in_process_summary(tmp_path, capsys):
    """The campaign path (a 2-worker pool, then the store) aggregates
    exactly as ``summarize`` over in-process runs of the same scenarios."""
    from repro.testing.explore import run_scenario, scenario_grid, summarize

    scenarios = scenario_grid(
        seeds=[0], protocols=("null-token",), workloads=("false_sharing",)
    )
    spec = tmp_path / "explore.json"
    spec.write_text(json.dumps({
        "name": "explore", "kind": "explore",
        "grid": [scenario.to_dict() for scenario in scenarios],
    }))
    store = str(tmp_path / "store")
    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "2", "-q"]) == 0
    out = tmp_path / "report.json"
    assert main(["report", "--spec", str(spec), "--store", store,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == summarize(
        scenarios, [run_scenario(scenario) for scenario in scenarios]
    )


def _fault_case(seed, fired, recovery, protocol="tokenb", ok=True):
    """One synthetic explore record with a scheduled corrupt window."""
    from repro.campaign.spec import ScenarioCase

    params = {
        "protocol": protocol, "interconnect": "torus",
        "workload": "false_sharing", "seed": seed,
        "faults": {"events": [{"kind": "corrupt", "at": 0.0,
                               "duration": 100.0}]},
    }
    result = {
        "ok": ok,
        "fault_stats": {"corrupt_dropped": 3 if fired else 0},
        "recovery_ns": recovery,
        "persistent_requests": 1,
        "reissued_requests": 2,
    }
    return ScenarioCase("explore", params), result


def test_resilience_ttr_aggregates_only_fired_faults(tmp_path):
    """Regression: a scheduled fault window the traffic never crossed
    recovers from nothing, but its default recovery_ns=0.0 used to fold
    into the TTR mean and skew every group low."""
    from repro.campaign.cli import _resilience_report
    from repro.campaign.store import CampaignStore, make_record

    store = CampaignStore(tmp_path / "store")
    cases = []
    # Two fired scenarios (TTR 100 and 300) and two unfired: the honest
    # mean is 200.0; folding the unfired zeros in gave 100.0.
    for seed, (fired, recovery) in enumerate(
        [(True, 100.0), (True, 300.0), (False, 0.0), (False, 0.0)]
    ):
        case, result = _fault_case(seed, fired, recovery)
        cases.append(case)
        store.append(make_record(case, result))
    # A group where the window never fired at all reports no mean.
    quiet, quiet_result = _fault_case(0, False, 0.0, protocol="tokenm")
    cases.append(quiet)
    store.append(make_record(quiet, quiet_result))
    store.close()

    text = _resilience_report(cases, CampaignStore(tmp_path / "store"))
    [row] = [line for line in text.splitlines() if "tokenb" in line]
    fields = row.split()
    assert fields[:5] == ["corrupt", "tokenb/torus", "4", "0", "2"]
    assert fields[5] == "200.0" and fields[6] == "300.0"
    [quiet_row] = [line for line in text.splitlines() if "tokenm" in line]
    quiet_fields = quiet_row.split()
    assert quiet_fields[4] == "0"
    assert quiet_fields[5] == "-" and quiet_fields[6] == "-"
    assert "'fired' scenarios only" in text


def test_resilience_ttr_skips_fired_runs_that_failed_a_check(tmp_path):
    """Regression: a violating run whose fault fired keeps the default
    recovery_ns=0.0, which the resilience report and the explore csv
    both folded into the TTR, pulling the mean down.  A run has a
    recovery time only when it passed and a fault fired."""
    from repro.campaign.cli import _report_table, _resilience_report
    from repro.campaign.store import CampaignStore, make_record

    store = CampaignStore(tmp_path / "store")
    cases = []
    for seed, ok, recovery in [(0, True, 200.0), (1, False, 0.0)]:
        case, result = _fault_case(seed, True, recovery, ok=ok)
        cases.append(case)
        store.append(make_record(case, result))
    store.close()

    store = CampaignStore(tmp_path / "store")
    [row] = [
        line for line in _resilience_report(cases, store).splitlines()
        if "tokenb" in line
    ]
    fields = row.split()
    assert fields[:5] == ["corrupt", "tokenb/torus", "2", "1", "1"]
    assert fields[5] == "200.0" and fields[6] == "200.0"

    headers, rows = _report_table("explore", cases, store)
    by_seed = {row[headers.index("seed")]: row for row in rows}
    assert by_seed[0][headers.index("recovery_ns")] == 200.0
    assert by_seed[1][headers.index("fault_fired")] is True
    assert by_seed[1][headers.index("recovery_ns")] == ""


def test_explore_csv_blanks_recovery_for_unfired_faults(tmp_path):
    """The CSV mirrors the fix: recovery_ns is a measurement only on
    rows where a fault actually fired; unfired rows export blank."""
    from repro.campaign.cli import _report_table
    from repro.campaign.store import CampaignStore, make_record

    store = CampaignStore(tmp_path / "store")
    cases = []
    for seed, (fired, recovery) in enumerate([(True, 150.0), (False, 0.0)]):
        case, result = _fault_case(seed, fired, recovery)
        cases.append(case)
        store.append(make_record(case, result))
    store.close()

    headers, rows = _report_table(
        "explore", cases, CampaignStore(tmp_path / "store")
    )
    fired_col = headers.index("fault_fired")
    recovery_col = headers.index("recovery_ns")
    by_seed = {row[headers.index("seed")]: row for row in rows}
    assert by_seed[0][fired_col] is True
    assert by_seed[0][recovery_col] == 150.0
    assert by_seed[1][fired_col] is False
    assert by_seed[1][recovery_col] == ""


def test_differential_report_renders_agreement(capsys, differential_store):
    """The differential preset reports like the explorer: every
    protocol's run of every stream set, and no violation."""
    capsys.readouterr()
    assert main(["report", "--spec", "differential", "--seeds", "1",
                 "--store", differential_store]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["scenarios"], report["violation_count"]) == (42, 0)
    assert report["by_protocol"]["snooping/tree"] == 6


def test_report_format_json_stable_key_order(mini_spec_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    capsys.readouterr()

    out_file = tmp_path / "report.json"
    assert main(["report", "--spec", mini_spec_file, "--store", store,
                 "--format", "json", "--out", str(out_file)]) == 0
    first = capsys.readouterr().out
    rows = json.loads(out_file.read_text())
    assert len(rows) == 2
    # Keys come out in header order — stable, not alphabetized.
    assert list(rows[0]) == [
        "workload", "protocol", "interconnect", "n_procs",
        "cycles_per_transaction", "bytes_per_miss", "runtime_ns",
        "total_ops", "bandwidth", "variant",
    ]
    assert {row["protocol"] for row in rows} == {"tokenb", "directory"}

    # Byte-stable across invocations (the diffable-export contract),
    # and the file holds exactly what was printed.
    assert first.startswith(out_file.read_text().rstrip("\n"))
    assert main(["report", "--spec", mini_spec_file, "--store", store,
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert second == first[: len(second)]


def test_report_format_json_explore_kind(tmp_path, capsys):
    grid = [{"seed": 0, "protocol": "tokenb", "interconnect": "torus",
             "workload": "false_sharing", "ops_per_proc": 8}]
    spec = tmp_path / "explore.json"
    spec.write_text(json.dumps(
        {"name": "explore", "kind": "explore", "grid": grid}
    ))
    store = str(tmp_path / "store")
    assert main(["run", "--spec", str(spec), "--store", store,
                 "--jobs", "1", "-q"]) == 0
    # A clean explore run has nothing to shrink.
    assert not (tmp_path / "store" / "repro_failure.json").exists()
    capsys.readouterr()
    assert main(["report", "--spec", str(spec), "--store", store,
                 "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert row["protocol"] == "tokenb"
    assert row["ok"] is True
    assert list(row)[0] == "protocol"


# ----------------------------------------------------------------------
# status --watch
# ----------------------------------------------------------------------


def test_status_watch_tails_heartbeat_to_completion(
    mini_spec_file, tmp_path, capsys
):
    """Runner-driven watch: the run writes its heartbeat into the store,
    then --watch replays it and exits on the finished flag."""
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q"]) == 0
    capsys.readouterr()
    assert main(["status", "--spec", mini_spec_file, "--store", store,
                 "--watch", "--interval", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "2/2 (100%)" in out
    assert "campaign finished" in out


def test_status_watch_waits_for_live_run(mini_spec_file, tmp_path, capsys):
    """--watch starts before the campaign does: it waits, then streams
    progress beats as a concurrent runner writes them."""
    import threading
    import time

    from repro.campaign.scheduler import HeartbeatWriter

    store = tmp_path / "store"
    store.mkdir()
    beat_path = store / "heartbeat.json"

    def fake_runner():
        writer = HeartbeatWriter(beat_path, total=3, cached=0, jobs=1)
        for done in range(1, 4):
            time.sleep(0.05)
            writer.beat(done, stream="serial", finished=done == 3)

    thread = threading.Thread(target=fake_runner)
    thread.start()
    try:
        assert main(["status", "--spec", mini_spec_file,
                     "--store", str(store), "--watch",
                     "--interval", "0.01"]) == 0
    finally:
        thread.join()
    out = capsys.readouterr().out
    assert "waiting for" in out
    assert "3/3 (100%)" in out
    assert "campaign finished" in out


def test_status_watch_tolerates_torn_heartbeat(
    mini_spec_file, tmp_path, capsys
):
    """A half-written beacon (a writer without atomic rename, an NFS
    mount mid-sync) must read as 'no beat yet', not crash the watcher:
    the watch keeps polling and picks up the next complete beat."""
    import threading
    import time

    from repro.campaign.scheduler import HeartbeatWriter

    store = tmp_path / "store"
    store.mkdir()
    beat_path = store / "heartbeat.json"

    def torn_then_finished():
        writer = HeartbeatWriter(beat_path, total=2, cached=0, jobs=1)
        writer.beat(1, stream="serial")
        # Truncate the beacon mid-object — a torn read in progress.
        full = beat_path.read_text()
        beat_path.write_text(full[: len(full) // 2])
        time.sleep(0.05)
        # And one valid-JSON-but-wrong-shape torn variant.
        beat_path.write_text("42")
        time.sleep(0.05)
        writer.beat(2, stream="serial", finished=True)

    thread = threading.Thread(target=torn_then_finished)
    thread.start()
    try:
        assert main(["status", "--spec", mini_spec_file,
                     "--store", str(store), "--watch",
                     "--interval", "0.01"]) == 0
    finally:
        thread.join()
    out = capsys.readouterr().out
    assert "2/2 (100%)" in out
    assert "campaign finished" in out


def test_run_heartbeat_flag_overrides_and_disables(
    mini_spec_file, tmp_path, capsys
):
    custom = tmp_path / "custom-beat.json"
    store = str(tmp_path / "store")
    assert main(["run", "--spec", mini_spec_file, "--store", store,
                 "--jobs", "1", "-q", "--heartbeat", str(custom)]) == 0
    assert json.loads(custom.read_text())["finished"] is True
    capsys.readouterr()

    disabled_store = str(tmp_path / "store2")
    assert main(["run", "--spec", mini_spec_file, "--store", disabled_store,
                 "--jobs", "1", "-q", "--heartbeat", "-"]) == 0
    import pathlib

    assert not (pathlib.Path(disabled_store) / "heartbeat.json").exists()
