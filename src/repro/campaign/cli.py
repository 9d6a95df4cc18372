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

``report`` renders every export from one column table per executor
kind (:data:`TABLES`): ``--format csv|markdown|json`` gives one row per
scenario (simulate: runtime/traffic per configuration; explore: oracle
outcomes) or per forked tail (fork_family: warmup and tail event
counts).  Plain ``report`` renders the figures for figure presets, the
explorer's summaries for explore specs (the faults and lineage presets
group theirs by protocol), and the same table as an aligned listing
otherwise.

``status --watch`` tails the heartbeat file ``run`` rewrites after
every completed scenario (per-shard throughput, completion counts, ETA)
and exits when the run reports finished.

``run`` is incremental: killing it mid-campaign loses nothing but the
in-flight scenarios, and the rerun executes only what the store is
missing (``--expect-cached`` turns "nothing should execute" into an
exit-code assertion, which CI uses to prove store round-trips).  It is
also the one way to sweep the explorer's scenarios (the ``explorer``,
``faults`` and ``lineage`` presets, or any ``explore``-kind spec): when
such a run records an oracle violation, it shrinks the first violating
scenario in spec order and writes the repro to
``<store>/repro_failure.json`` (:data:`REPRO_FILE`), beside the
heartbeat, before exiting 1.  ``python -m repro.testing.explore
--repro FILE`` replays it.  Specs
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
from typing import Any, NamedTuple

from repro.campaign import presets
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, code_fingerprint
from repro.campaign.store import CampaignStore

#: run exit codes beyond 0/1 (violations) — distinct so CI can assert.
EXIT_EXECUTOR_FAILURE = 2
EXIT_NOT_CACHED = 3

#: Where ``run`` writes the shrunk first violation of an explore-kind
#: spec, relative to the store root.
REPRO_FILE = "repro_failure.json"


def resolve_spec(name: str, args) -> CampaignSpec:
    path = Path(name)
    if name.endswith(".json") or path.is_file():
        try:
            return CampaignSpec.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"spec file {name}: {exc}")
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


def _scan_violations(kind: str, cases, store: CampaignStore) -> list[tuple]:
    """Oracle violations recorded in explore results, as ``(case,
    description)`` pairs in spec order."""
    violations = []
    for case in cases:
        record = store.get(case.key)
        if record is None:
            continue
        result = record["result"]
        if kind == "explore" and not result.get("ok", True):
            violations.append((
                case,
                f"{case.key[:12]} {result.get('violation_type')}: "
                f"{result.get('violation_message')}",
            ))
    return violations


def _write_shrunk_repro(case, store: CampaignStore) -> None:
    """Shrink an explore case's violating scenario into the store's
    :data:`REPRO_FILE`."""
    from repro.testing.explore import Scenario
    from repro.testing.shrink import shrink, write_repro

    shrunk, outcome = shrink(Scenario.from_dict(case.params))
    path = Path(store.root) / REPRO_FILE
    write_repro(path, shrunk, outcome)
    print(f"shrunk to: {shrunk.label()}\nrepro -> {path}")


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
        for _, line in violations[:5]:
            print(f"  {line}")
        if spec.kind == "explore":
            _write_shrunk_repro(violations[0][0], store)
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
    if args.format == "text":
        text = _text_report(spec, cases, store)
    else:
        headers, rows = _report_table(spec.kind, cases, store)
        text = {
            "csv": _format_csv,
            "markdown": _format_markdown,
            "json": _format_json,
        }[args.format](headers, rows)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# Reports: one column table per executor kind
# ----------------------------------------------------------------------


class Row(NamedTuple):
    """One report row: a scenario's params and stored result (rebuilt
    as a :class:`~repro.system.simulator.SimulationResult` for
    ``simulate``), plus the tail name and payload for ``fork_family``,
    which reports one row per tail."""

    params: dict
    result: Any
    tail: str = ""
    payload: dict | None = None


def _param(name: str):
    return lambda row: row.params.get(name)


def _stat(name: str, default=None):
    return lambda row: row.result.get(name, default)


def _config(name: str):
    return lambda row: getattr(row.result.config, name)


def _tokenm_variant(row: Row) -> str:
    config = row.result.config
    if config.protocol != "tokenm":
        return ""
    return config.predictor + ("+hybrid" if config.bandwidth_adaptive else "")


def _recovery(row: Row):
    """TTR only where the run had one (:func:`has_recovery`)."""
    from repro.testing.explore import has_recovery

    result = row.result
    if not has_recovery(result.get("ok", True), result.get("fault_stats", {})):
        return ""
    return round(result.get("recovery_ns", 0.0), 1)


#: Every executor kind's report columns, in order: ``(header, value of
#: one Row)``.  csv, markdown, json and the plain-text listing all
#: render from these.
TABLES = {
    "simulate": [
        ("workload", lambda row: row.result.workload_name),
        ("protocol", _config("protocol")),
        ("interconnect", _config("interconnect")),
        ("n_procs", _config("n_procs")),
        ("cycles_per_transaction",
         lambda row: round(row.result.cycles_per_transaction, 2)),
        ("bytes_per_miss", lambda row: round(row.result.bytes_per_miss, 2)),
        ("runtime_ns", lambda row: round(row.result.runtime_ns, 1)),
        ("total_ops", lambda row: row.result.total_ops),
        ("bandwidth",
         lambda row: row.result.config.link_bandwidth_bytes_per_ns or "unlimited"),
        ("variant", _tokenm_variant),
    ],
    "explore": [
        ("protocol", _param("protocol")),
        ("interconnect", _param("interconnect")),
        ("workload", _param("workload")),
        ("seed", _param("seed")),
        ("ok", _stat("ok")),
        ("violation_type", lambda row: row.result.get("violation_type") or ""),
        ("persistent_requests", _stat("persistent_requests", 0)),
        ("reissued_requests", _stat("reissued_requests", 0)),
        ("events_fired", _stat("events_fired", 0)),
        ("fault_classes", lambda row: _fault_classes_of(row.params)),
        ("fault_fired",
         lambda row: any(row.result.get("fault_stats", {}).values())),
        ("recovery_ns", _recovery),
    ],
    "fork_family": [
        ("family", _stat("family", "")),
        ("protocol", lambda row: row.params["config"].get("protocol", "")),
        ("interconnect", lambda row: row.params["config"].get("interconnect", "")),
        ("tail", lambda row: row.tail),
        ("warmup_events", _stat("warmup_events", 0)),
        ("tail_events", lambda row: (
            row.payload["events_fired"] - row.result.get("warmup_events", 0)
        )),
        ("runtime_ns", lambda row: round(row.payload["runtime_ns"], 1)),
    ],
}


def _rows(kind: str, cases, store: CampaignStore) -> list[Row]:
    from repro.campaign.executors import result_from_payload

    rows = []
    for case in cases:
        result = store.get(case.key)["result"]
        if kind == "simulate":
            rows.append(Row(case.params, result_from_payload(result)))
        elif kind == "fork_family":
            rows.extend(
                Row(case.params, result, tail, payload)
                for tail, payload in sorted(result.get("tails", {}).items())
            )
        else:
            rows.append(Row(case.params, result))
    return rows


def _report_table(kind: str, cases, store: CampaignStore):
    """``(headers, rows)`` of a campaign's results: its kind's table."""
    columns = TABLES[kind]
    return [header for header, _ in columns], [
        [value(row) for _, value in columns] for row in _rows(kind, cases, store)
    ]


def _text_report(spec: CampaignSpec, cases, store: CampaignStore) -> str:
    """Figures for figure presets, the explorer's summaries for explore
    specs, else the kind's table as an aligned listing."""
    if spec.kind == "simulate" and (
        spec.name == "figures" or spec.name in presets.FIGURES
    ):
        from repro.analysis.report import render_figures_from_store

        only = None if spec.name == "figures" else (spec.name,)
        return render_figures_from_store(store, only=only)
    if spec.kind == "explore":
        summary = {"faults": _resilience_report, "lineage": _lineage_report}
        return summary.get(spec.name, _explore_report)(cases, store)
    headers, rows = _report_table(spec.kind, cases, store)
    return f"{_format_text(headers, rows)}\n{len(rows)} rows"


def _format_text(headers, rows) -> str:
    """Aligned columns: numbers right-aligned, everything else left."""
    def numeric(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    widths = [
        max(len(str(line[i])) for line in (headers, *rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(
            str(value).rjust(width) if numeric(value) else str(value).ljust(width)
            for value, width in zip(line, widths)
        ).rstrip()
        for line in (headers, *rows)
    ]
    return "\n".join(lines)


def _format_csv(headers, rows) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _format_json(headers, rows) -> str:
    """One object per row, keys in header order.

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


# ----------------------------------------------------------------------
# Explore summaries: the explorer's, and the faults and lineage groupings
# ----------------------------------------------------------------------


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


def _pair(params: dict) -> str:
    return f"{params.get('protocol')}/{params.get('interconnect')}"


def _grouped(cases, store: CampaignStore, key) -> dict:
    """Stored results grouped by ``key(params)``, groups in sorted order."""
    groups: dict = {}
    for case in cases:
        groups.setdefault(key(case.params), []).append(
            store.get(case.key)["result"]
        )
    return dict(sorted(groups.items()))


def _violations(results) -> int:
    return sum(not result.get("ok", True) for result in results)


def _resilience_report(cases, store: CampaignStore) -> str:
    """Per (fault class, protocol/topology): recovery time and escalations.

    Time-to-recovery is how long past the last fault window the system
    still needed to finish; escalations are the persistent requests the
    safety net fired — the paper's prediction is that token protocols
    lean on exactly that machinery to ride out the fault, so the counts
    should rise with fault pressure while violations stay at zero.

    TTR is aggregated only over the runs that have one
    (:func:`~repro.testing.explore.has_recovery`: the run passed and a
    fault actually fired): a scheduled window the traffic never crossed
    recovers from nothing, and a violating run's default 0.0 is no
    measurement.  ``fired`` reports the per-group sample size so a thin
    mean is visibly thin.
    """
    from repro.testing.explore import has_recovery

    lines = [
        f"{'fault class':<14} {'protocol':<17} {'runs':>4} {'viol':>4} "
        f"{'fired':>5} {'ttr mean':>9} {'ttr max':>9} {'persist':>7} "
        f"{'reissue':>7}"
    ]
    groups = _grouped(
        cases, store, lambda params: (_fault_classes_of(params), _pair(params))
    )
    for (fault_class, pair), results in groups.items():
        recovery = [
            result.get("recovery_ns", 0.0)
            for result in results
            if has_recovery(result.get("ok", True), result.get("fault_stats", {}))
        ]
        if recovery:
            ttr_mean = f"{sum(recovery) / len(recovery):>9.1f}"
            ttr_max = f"{max(recovery):>9.1f}"
        else:
            ttr_mean = ttr_max = f"{'-':>9}"
        persistent = sum(r.get("persistent_requests", 0) for r in results)
        reissued = sum(r.get("reissued_requests", 0) for r in results)
        lines.append(
            f"{fault_class:<14} {pair:<17} {len(results):>4} "
            f"{_violations(results):>4} {len(recovery):>5} "
            f"{ttr_mean} {ttr_max} {persistent:>7} {reissued:>7}"
        )
    everything = [result for results in groups.values() for result in results]
    lines.append(
        f"{len(everything)} runs, {_violations(everything)} violations "
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
    lines = [
        f"{'protocol':<17} {'runs':>4} {'viol':>4} {'events':>9} "
        f"{'xfers':>8} {'blocks':>6} {'terminals':>9} {'absorbed':>8}"
    ]
    groups = _grouped(cases, store, _pair)
    for pair, results in groups.items():
        def total(stat: str) -> int:
            return sum(r.get("lineage_stats", {}).get(stat, 0) for r in results)

        lines.append(
            f"{pair:<17} {len(results):>4} {_violations(results):>4} "
            f"{total('lineage_events'):>9} {total('lineage_transfers'):>8} "
            f"{total('lineage_blocks'):>6} {total('lineage_terminals'):>9} "
            f"{total('lineage_absorbed_reissues'):>8}"
        )
    everything = [result for results in groups.values() for result in results]
    lines.append(
        f"{len(everything)} runs, {_violations(everything)} violations "
        "(terminals = quiesce + absorbed-by-reissue custody-chain outcomes; "
        "absorbed = fault-dropped request chains terminated by a completed "
        "transaction)"
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
        cmd.add_argument("--seeds", type=int, default=presets.DEFAULT_SEEDS,
                         help="seed count for the explorer, faults, "
                              "lineage and differential specs "
                              "(default: %(default)s)")
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
                             help="text renders figures, summaries or a "
                                  "listing; csv/markdown/json export the "
                                  "kind's column table")
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
