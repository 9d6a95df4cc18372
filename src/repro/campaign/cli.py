"""``python -m repro.campaign`` — run, inspect, and report campaigns.

::

    python -m repro.campaign run --spec figures --jobs 8
    python -m repro.campaign run --spec explorer --seeds 64 --jobs 4
    python -m repro.campaign status --spec figures
    python -m repro.campaign status --spec figures --watch
    python -m repro.campaign report --spec figures
    python -m repro.campaign report --spec predict --format csv
    python -m repro.campaign compact --spec figures
    python -m repro.campaign compact --spec figures --prune-stale

``report`` renders figure-style text by default; ``--format
csv|markdown|json`` exports one row per scenario instead (simulate:
runtime/traffic per configuration; explore: oracle outcomes;
differential: agreement).  ``status --watch`` tails the heartbeat file
``run`` rewrites after every completed scenario (per-shard throughput,
completion counts, ETA) and exits when the run reports finished.

``run`` is incremental: killing it mid-campaign loses nothing but the
in-flight scenarios, and the rerun executes only what the store is
missing (``--expect-cached`` turns "nothing should execute" into an
exit-code assertion, which CI uses to prove store round-trips).  Specs
are named presets (:data:`repro.campaign.presets.SPEC_BUILDERS`) or a
JSON file holding a serialized :class:`CampaignSpec`.  ``--jobs 1``
runs in-process; more fans out over a local process pool.  Several
``run`` processes may share one store at once: the store's writer lock
keeps their appends and compactions from interleaving.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign import presets
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, code_fingerprint
from repro.campaign.store import CampaignStore

#: run exit codes beyond 0/1 (violations) — distinct so CI can assert.
EXIT_EXECUTOR_FAILURE = 2
EXIT_NOT_CACHED = 3


def resolve_spec(name: str, args) -> CampaignSpec:
    path = Path(name)
    if name.endswith(".json") or path.is_file():
        return CampaignSpec.from_dict(json.loads(path.read_text()))
    try:
        return presets.build_spec(
            name, seeds=args.seeds, seed_base=args.seed_base, smoke=args.smoke
        )
    except KeyError:
        known = ", ".join(sorted(presets.SPEC_BUILDERS))
        raise SystemExit(f"unknown spec {name!r} (known: {known}, or a .json file)")


def resolve_store(spec: CampaignSpec, args) -> CampaignStore:
    root = args.store or spec.default_store or f".campaign_store/{spec.name}"
    return CampaignStore(root)


def _scan_violations(kind: str, cases, store: CampaignStore) -> list[str]:
    """Oracle violations / conformance mismatches recorded in results."""
    violations = []
    for case in cases:
        record = store.get(case.key)
        if record is None:
            continue
        result = record["result"]
        if kind == "explore" and not result.get("ok", True):
            violations.append(
                f"{case.key[:12]} {result.get('violation_type')}: "
                f"{result.get('violation_message')}"
            )
        elif kind == "differential" and not result.get("agreed", True):
            bad = {
                k: v for k, v in result.get("mismatches", {}).items() if v
            }
            violations.append(
                f"{case.key[:12]} workload={result.get('workload')} "
                f"seed={result.get('seed')}: {bad}"
            )
    return violations


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_run(args) -> int:
    spec = resolve_spec(args.spec, args)
    store = resolve_store(spec, args)
    # Hash the scenario documents once; every later step reuses them.
    cases = spec.cases()
    total = len(cases)

    def progress(done, _total, case, ok, error):
        if args.quiet:
            return
        status = "ok" if ok else f"FAILED({error})"
        print(f"[{done:>5}/{_total}] {case.kind} {case.key[:12]}: {status}",
              flush=True)

    # The heartbeat lives beside the shards so `status --watch` finds it
    # from the spec alone; "-" disables it (e.g. read-only store mounts).
    heartbeat = None
    if args.heartbeat != "-":
        heartbeat = args.heartbeat or Path(store.root) / "heartbeat.json"
    report = run_campaign(
        cases,
        store,
        jobs=args.jobs,
        progress=progress,
        heartbeat=heartbeat,
    )
    print(
        f"campaign {spec.name!r}: {report.total} scenarios, "
        f"{report.executed} executed, {report.cached} cached "
        f"({report.cached / max(total, 1):.0%} store hit), "
        f"{len(report.failures)} failures, {report.elapsed_s}s "
        f"-> {store.root}"
    )
    for failure in report.failures[:5]:
        print(f"  failure {failure['key'][:12]}: {failure['error']}")
    violations = _scan_violations(spec.kind, cases, store)
    if violations:
        print(f"{len(violations)} scenario violations recorded:")
        for line in violations[:5]:
            print(f"  {line}")
    if report.failures:
        return EXIT_EXECUTOR_FAILURE
    if args.expect_cached and report.executed:
        print(
            f"--expect-cached: {report.executed} scenarios executed "
            "(store was not a 100% hit)"
        )
        return EXIT_NOT_CACHED
    return 1 if violations else 0


def cmd_compact(args) -> int:
    """Expose the store's atomic compaction as a subcommand.

    Folds pending worker shards into canonical sorted shard files and
    drops duplicate/corrupt lines; ``--prune-stale`` additionally drops
    records whose code fingerprint no longer matches the current
    sources.  Compaction is atomic (tmp + rename per shard), so a
    concurrent reader never sees a torn store.
    """
    spec = resolve_spec(args.spec, args)
    store = resolve_store(spec, args)
    before = store.stats()
    stale = len(store.stale_records())
    store.compact(prune_stale=args.prune_stale)
    after = store.stats()
    pruned = f", {stale} stale records pruned" if args.prune_stale else ""
    print(
        f"compacted {store.root}: {before['records']} -> "
        f"{after['records']} records, {before['pending_files']} pending "
        f"files folded into {after['shard_files']} shards, "
        f"{before['corrupt_lines']} torn lines dropped{pruned}"
    )
    return 0


def cmd_status(args) -> int:
    spec = resolve_spec(args.spec, args)
    store = resolve_store(spec, args)
    if args.watch:
        return _watch_heartbeat(Path(store.root) / "heartbeat.json",
                                args.interval)
    cases = spec.cases()
    missing = store.missing(cases)
    stats = store.stats()
    stale = len(store.stale_records())
    print(f"campaign:    {spec.name} (kind={spec.kind})")
    print(f"store:       {store.root}")
    print(f"fingerprint: {code_fingerprint()}")
    print(f"scenarios:   {len(cases)} declared, "
          f"{len(cases) - len(missing)} complete, {len(missing)} missing")
    print(f"records:     {stats['records']} total, {stale} stale-fingerprint")
    print(f"files:       {stats['shard_files']} shards, "
          f"{stats['pending_files']} pending, "
          f"{stats['corrupt_lines']} torn lines skipped")
    return 0


def _watch_heartbeat(path: Path, interval: float) -> int:
    """Tail a runner heartbeat file until it reports ``finished``.

    The runner rewrites the file atomically (tmp + rename), so each
    poll sees one complete JSON object; a line prints only when the
    beat changed, so a stalled campaign is visibly stalled.  A torn or
    half-written beat (a writer without atomic rename, an NFS mount
    mid-sync) is tolerated like the store tolerates torn lines: skip
    the poll, keep watching.  Exits 0 when the run finishes, nonzero
    on Ctrl-C.
    """
    import time

    last = None
    try:
        while True:
            try:
                beat = json.loads(path.read_text())
                key = (beat["completed"], beat["failures"], beat["finished"])
            except (OSError, ValueError, KeyError, TypeError):
                if last is None:
                    print(f"waiting for {path} ...", flush=True)
                    last = "waiting"
                time.sleep(interval)
                continue
            if key != last:
                last = key
                print(_beat_line(beat), flush=True)
            if beat.get("finished"):
                print("campaign finished", flush=True)
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 130


def _beat_line(beat: dict) -> str:
    """One watcher line for a heartbeat payload."""
    eta = beat.get("eta_s")
    per_s = beat.get("throughput_per_s", 0.0)
    shards = beat.get("shards", {})
    return (
        f"{beat['completed']:>5}/{beat['total']} "
        f"({beat['completed'] / max(beat['total'], 1):.0%}) "
        f"{per_s:.2f}/s over {len(shards) or 1} shard(s), "
        f"{beat['failures']} failures, "
        f"eta {'-' if eta is None else f'{eta:.0f}s'}"
    )


def cmd_report(args) -> int:
    spec = resolve_spec(args.spec, args)
    store = resolve_store(spec, args)
    cases = spec.cases()
    missing = store.missing(cases)
    if missing:
        print(
            f"{len(missing)} of {len(cases)} scenarios missing from "
            f"{store.root}; run:  python -m repro.campaign run --spec {args.spec}"
        )
        return 1
    if args.format != "text":
        headers, rows = _report_table(spec.kind, cases, store)
        render = {
            "csv": _format_csv,
            "markdown": _format_markdown,
            "json": _format_json,
        }[args.format]
        text = render(headers, rows)
        print(text)
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"report -> {args.out}")
        return 0
    if spec.kind == "simulate":
        from repro.analysis.report import render_figures_from_store

        text = render_figures_from_store(store, only=_series_subset(spec.name))
        if text is None:
            text = _generic_simulate_report(cases, store)
    elif spec.kind == "explore":
        if spec.name == "faults":
            text = _resilience_report(cases, store)
        elif spec.name == "lineage":
            text = _lineage_report(cases, store)
        else:
            text = _explore_report(cases, store)
    elif spec.kind == "fork_family":
        text = _fork_family_report(cases, store)
    else:
        text = _differential_report(cases, store)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report -> {args.out}")
    return 0


def _series_subset(name: str):
    known = {s["figure"] for s in presets.figure_series()}
    if name == "figures":
        return None  # every section
    return (name,) if name in known else ()


def _generic_simulate_report(cases, store: CampaignStore) -> str:
    from repro.campaign.executors import result_from_payload

    lines = [
        f"{'workload':<22} {'protocol':<10} {'ic':<6} {'procs':>5} "
        f"{'cyc/txn':>10} {'B/miss':>8}"
    ]
    for case in cases:
        result = result_from_payload(store.get(case.key)["result"])
        lines.append(
            f"{result.workload_name:<22} {result.config.protocol:<10} "
            f"{result.config.interconnect:<6} {result.config.n_procs:>5} "
            f"{result.cycles_per_transaction:>10.1f} "
            f"{result.bytes_per_miss:>8.1f}"
        )
    return "\n".join(lines)


def _explore_report(cases, store: CampaignStore) -> str:
    from repro.testing.explore import Scenario, ScenarioOutcome, summarize

    # Both lists derive from the same deduplicated cases, so duplicate
    # grid entries cannot misalign scenarios and outcomes.
    scenarios = [Scenario.from_dict(case.params) for case in cases]
    outcomes = [ScenarioOutcome(**store.get(case.key)["result"]) for case in cases]
    report = summarize(scenarios, outcomes)
    return json.dumps(report, indent=2, sort_keys=True)


def _fault_classes_of(params: dict) -> str:
    """The fault classes a scenario document schedules, as a label."""
    kinds = sorted(
        {event["kind"] for event in params.get("faults", {}).get("events", ())}
    )
    return "+".join(kinds) if kinds else "none"


def _resilience_report(cases, store: CampaignStore) -> str:
    """Per (fault class, protocol/topology): recovery time and escalations.

    Time-to-recovery is how long past the last fault window the system
    still needed to finish; escalations are the persistent requests the
    safety net fired — the paper's prediction is that token protocols
    lean on exactly that machinery to ride out the fault, so the counts
    should rise with fault pressure while violations stay at zero.

    TTR is aggregated only over scenarios where a fault actually fired
    (some fault-stats counter is nonzero): a scheduled window the
    traffic never crossed recovers from nothing, and folding its 0.0
    into the mean skewed every group's TTR low.  ``fired`` reports the
    per-group sample size so a thin mean is visibly thin.
    """
    groups: dict[tuple[str, str], dict] = {}
    for case in cases:
        result = store.get(case.key)["result"]
        params = case.params
        key = (
            _fault_classes_of(params),
            f"{params.get('protocol')}/{params.get('interconnect')}",
        )
        group = groups.setdefault(
            key,
            {"runs": 0, "violations": 0, "recovery": [],
             "persistent": 0, "reissued": 0},
        )
        group["runs"] += 1
        if not result.get("ok", True):
            group["violations"] += 1
        if any(result.get("fault_stats", {}).values()):
            group["recovery"].append(result.get("recovery_ns", 0.0))
        group["persistent"] += result.get("persistent_requests", 0)
        group["reissued"] += result.get("reissued_requests", 0)
    lines = [
        f"{'fault class':<14} {'protocol':<17} {'runs':>4} {'viol':>4} "
        f"{'fired':>5} {'ttr mean':>9} {'ttr max':>9} {'persist':>7} "
        f"{'reissue':>7}"
    ]
    total_runs = total_violations = 0
    for key in sorted(groups):
        group = groups[key]
        recovery = group["recovery"]
        total_runs += group["runs"]
        total_violations += group["violations"]
        if recovery:
            ttr_mean = f"{sum(recovery) / len(recovery):>9.1f}"
            ttr_max = f"{max(recovery):>9.1f}"
        else:
            ttr_mean = f"{'-':>9}"
            ttr_max = f"{'-':>9}"
        lines.append(
            f"{key[0]:<14} {key[1]:<17} {group['runs']:>4} "
            f"{group['violations']:>4} {len(recovery):>5} "
            f"{ttr_mean} {ttr_max} "
            f"{group['persistent']:>7} {group['reissued']:>7}"
        )
    lines.append(
        f"{total_runs} runs, {total_violations} violations "
        "(ttr in ns after the last fault window, aggregated over the "
        "'fired' scenarios only; persist/reissue are summed escalation "
        "counts)"
    )
    return "\n".join(lines)


def _lineage_report(cases, store: CampaignStore) -> str:
    """Per protocol/topology: custody volume and terminal outcomes.

    Every scenario in the lineage campaign runs with the token outcome
    contract armed, so ``viol`` staying at zero means every custody
    chain in the whole campaign reached exactly one terminal state —
    including the corruption-dropped request chains, which must show up
    under ``absorbed`` rather than dangling.
    """
    groups: dict[str, dict] = {}
    for case in cases:
        result = store.get(case.key)["result"]
        params = case.params
        key = f"{params.get('protocol')}/{params.get('interconnect')}"
        group = groups.setdefault(
            key,
            {"runs": 0, "violations": 0, "events": 0, "transfers": 0,
             "blocks": 0, "terminals": 0, "absorbed": 0},
        )
        group["runs"] += 1
        if not result.get("ok", True):
            group["violations"] += 1
        stats = result.get("lineage_stats", {})
        group["events"] += stats.get("lineage_events", 0)
        group["transfers"] += stats.get("lineage_transfers", 0)
        group["blocks"] += stats.get("lineage_blocks", 0)
        group["terminals"] += stats.get("lineage_terminals", 0)
        group["absorbed"] += stats.get("lineage_absorbed_reissues", 0)
    lines = [
        f"{'protocol':<17} {'runs':>4} {'viol':>4} {'events':>9} "
        f"{'xfers':>8} {'blocks':>6} {'terminals':>9} {'absorbed':>8}"
    ]
    total_runs = total_violations = 0
    for key in sorted(groups):
        group = groups[key]
        total_runs += group["runs"]
        total_violations += group["violations"]
        lines.append(
            f"{key:<17} {group['runs']:>4} {group['violations']:>4} "
            f"{group['events']:>9} {group['transfers']:>8} "
            f"{group['blocks']:>6} {group['terminals']:>9} "
            f"{group['absorbed']:>8}"
        )
    lines.append(
        f"{total_runs} runs, {total_violations} violations (terminals = "
        "quiesce + absorbed-by-reissue custody-chain outcomes; absorbed = "
        "fault-dropped request chains terminated by a completed "
        "transaction)"
    )
    return "\n".join(lines)


def _fork_family_report(cases, store: CampaignStore) -> str:
    """Per family/config: shared warmup cost and per-tail increments."""
    lines = [
        f"{'family':<10} {'protocol':<10} {'ic':<6} {'tail':<10} "
        f"{'warmup ev':>9} {'tail ev':>8} {'runtime_ns':>11}"
    ]
    for case in cases:
        result = store.get(case.key)["result"]
        params = case.params
        config = params.get("config", {})
        warmup_events = result.get("warmup_events", 0)
        for tail, payload in sorted(result.get("tails", {}).items()):
            lines.append(
                f"{result.get('family', ''):<10} "
                f"{config.get('protocol', ''):<10} "
                f"{config.get('interconnect', ''):<6} {tail:<10} "
                f"{warmup_events:>9} "
                f"{payload['events_fired'] - warmup_events:>8} "
                f"{payload['runtime_ns']:>11.1f}"
            )
    lines.append(
        f"{len(cases)} families (tail ev = events beyond the shared "
        "warmup checkpoint)"
    )
    return "\n".join(lines)


def _report_table(kind: str, cases, store: CampaignStore):
    """``(headers, rows)`` of a campaign's results, for csv/markdown."""
    rows = []
    if kind == "simulate":
        from repro.campaign.executors import result_from_payload

        headers = [
            "workload", "protocol", "interconnect", "n_procs",
            "cycles_per_transaction", "bytes_per_miss", "runtime_ns",
            "total_ops", "bandwidth", "variant",
        ]
        for case in cases:
            result = result_from_payload(store.get(case.key)["result"])
            config = result.config
            variant = ""
            if config.protocol == "tokenm":
                variant = config.predictor + (
                    "+hybrid" if config.bandwidth_adaptive else ""
                )
            rows.append([
                result.workload_name,
                config.protocol,
                config.interconnect,
                config.n_procs,
                round(result.cycles_per_transaction, 2),
                round(result.bytes_per_miss, 2),
                round(result.runtime_ns, 1),
                result.total_ops,
                config.link_bandwidth_bytes_per_ns or "unlimited",
                variant,
            ])
    elif kind == "explore":
        headers = [
            "protocol", "interconnect", "workload", "seed", "ok",
            "violation_type", "persistent_requests", "reissued_requests",
            "events_fired", "fault_classes", "fault_fired", "recovery_ns",
        ]
        for case in cases:
            result = store.get(case.key)["result"]
            params = case.params
            # Same fix as the resilience table: a recovery time is only
            # a measurement when a fault actually fired; emitting a
            # default 0.0 for unfired scenarios poisoned downstream
            # aggregation of the CSV.
            fired = bool(any(result.get("fault_stats", {}).values()))
            rows.append([
                params.get("protocol"),
                params.get("interconnect"),
                params.get("workload"),
                params.get("seed"),
                result.get("ok"),
                result.get("violation_type") or "",
                result.get("persistent_requests", 0),
                result.get("reissued_requests", 0),
                result.get("events_fired", 0),
                _fault_classes_of(params),
                fired,
                round(result.get("recovery_ns", 0.0), 1) if fired else "",
            ])
    elif kind == "differential":
        headers = ["workload", "seed", "reference", "agreed", "mismatches"]
        for case in cases:
            result = store.get(case.key)["result"]
            bad = {k: v for k, v in result.get("mismatches", {}).items() if v}
            rows.append([
                result.get("workload"),
                result.get("seed"),
                result.get("reference"),
                result.get("agreed"),
                "; ".join(f"{k}: {', '.join(v)}" for k, v in bad.items()),
            ])
    else:
        raise SystemExit(f"no tabular report for campaign kind {kind!r}")
    return headers, rows


def _format_csv(headers, rows) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _format_json(headers, rows) -> str:
    """One object per scenario, keys in header order.

    Key order is the header order (insertion order survives
    ``json.dumps`` without ``sort_keys``), so the emitted bytes are a
    stable function of the table — diffable across runs and safe to
    check into golden files.
    """
    return json.dumps(
        [dict(zip(headers, row)) for row in rows], indent=2
    )


def _format_markdown(headers, rows) -> str:
    def cell(value) -> str:
        return str(value).replace("|", "\\|")

    lines = [
        "| " + " | ".join(cell(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines.extend(
        "| " + " | ".join(cell(value) for value in row) + " |" for row in rows
    )
    return "\n".join(lines)


def _differential_report(cases, store: CampaignStore) -> str:
    lines = []
    disagreed = 0
    for case in cases:
        result = store.get(case.key)["result"]
        status = "agreed" if result["agreed"] else "MISMATCH"
        disagreed += 0 if result["agreed"] else 1
        lines.append(
            f"{result['workload']:<20} seed={result['seed']:<4} "
            f"ref={result['reference']:<16} {status}"
        )
    lines.append(
        f"{len(lines)} comparisons, {disagreed} disagreements"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded, resumable, content-addressed scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("status", cmd_status),
                     ("report", cmd_report), ("compact", cmd_compact)):
        cmd = sub.add_parser(name)
        cmd.set_defaults(fn=fn)
        cmd.add_argument("--spec", required=True,
                         help="preset name or spec JSON file")
        cmd.add_argument("--store", default=None,
                         help="store directory (default: the spec's)")
        cmd.add_argument("--seeds", type=int, default=8,
                         help="seed count for explorer/differential specs")
        cmd.add_argument("--seed-base", type=int, default=0)
        cmd.add_argument("--smoke", action="store_true",
                         help="reduced-scale explorer/workloads scenarios")
        if name == "run":
            cmd.add_argument("--jobs", type=int, default=None,
                             help="worker processes (default: all cores; "
                                  "1 = serial in-process)")
            cmd.add_argument("--expect-cached", action="store_true",
                             help="exit nonzero if anything executed")
            cmd.add_argument("-q", "--quiet", action="store_true")
            cmd.add_argument("--heartbeat", default=None,
                             help="live-progress JSON file (default: "
                                  "<store>/heartbeat.json; '-' disables)")
        if name == "status":
            cmd.add_argument("--watch", action="store_true",
                             help="tail the runner's heartbeat file")
            cmd.add_argument("--interval", type=float, default=1.0,
                             help="--watch poll interval in seconds")
        if name == "report":
            cmd.add_argument("--out", default=None,
                             help="also write the report to this file")
            cmd.add_argument("--format", default="text",
                             choices=("text", "csv", "markdown", "json"),
                             help="text renders the figures; csv/markdown/"
                                  "json export one row per scenario")
        if name == "compact":
            cmd.add_argument("--prune-stale", action="store_true",
                             help="also drop records recorded under a "
                                  "different code fingerprint")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `report | head`) closed early; suppress
        # the interpreter's noisy shutdown message but exit with the
        # conventional SIGPIPE status (128+13) — never a misleading 0,
        # since run's exit code is a CI contract.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
