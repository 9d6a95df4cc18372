"""Phase-structured workload suite: protocol rankings per program phase.

The scenario-diversity payoff of the workload engine, made measurable:
a single :class:`~repro.workloads.programs.WorkloadProgram` carries
phases whose miss populations differ enough that *the protocol ranking
flips between phases of one program* — broadcast-style TokenB leads
wherever misses are cache-to-cache (contention bursts, false-sharing
churn), while the directory leads on memory-sourced streaming scans,
where broadcast fan-out buys nothing and costs bandwidth.  A static
category mix can only average these phases together; the program shows
both regimes in one workload.

The harness runs every :data:`~repro.workloads.programs.CAMPAIGN_PROGRAMS`
program end-to-end over the performance-protocol grid, then each phase
in isolation (cold start per phase) over
:data:`~repro.campaign.presets.WORKLOADS_PHASE_PROTOCOLS` at the
constrained :data:`~repro.campaign.presets.WORKLOADS_PHASE_BW`, and
records rankings and leader changes to ``BENCH_workloads.json``
(override with ``REPRO_BENCH_WORKLOADS_OUT``):

* every program must rank protocols differently in at least two of its
  phases — the headline acceptance claim;
* ``scan_vs_contend`` must flip its *leader*: TokenB first in the
  contention burst, Directory first in the streaming scan.

Set ``REPRO_BENCH_SMOKE=1`` for a reduced run (one program, two
protocols, 8 processors; used by CI).  Run as
``pytest benchmarks/bench_workload_suite.py -s`` or
``python benchmarks/bench_workload_suite.py``.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

import json
import os
import platform
import sys
from pathlib import Path

from benchmarks.common import lookup
from repro.campaign.presets import WORKLOADS_PHASE_BW, program_case_params
from repro.workloads.programs import CAMPAIGN_PROGRAMS


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _smoke_series() -> dict:
    """The CI slice, in the ``workloads`` preset's shape: one program
    scaled to 120 ops, then its isolated phases, on TokenB and
    Directory at 8 processors."""
    program = CAMPAIGN_PROGRAMS["scan_vs_contend"].scaled(120)
    protocols = ("tokenb", "directory")
    series = {
        program.name: {
            f"{protocol}/torus": program_case_params(
                program, protocol, "torus", n_procs=8
            )
            for protocol in protocols
        }
    }
    for index in range(len(program.phases)):
        isolated = program.isolate_phase(index)
        series[isolated.name] = {
            protocol: program_case_params(
                isolated, protocol, "torus", WORKLOADS_PHASE_BW, n_procs=8
            )
            for protocol in protocols
        }
    return series


def collect() -> dict:
    """Program results, then per-program phase results (the preset's
    ``program@phase`` groups folded under their program)."""
    data = lookup(_smoke_series() if _smoke() else "workloads")
    programs = {name: results for name, results in data.items() if "@" not in name}
    phases = {name: {} for name in programs}
    for group, results in data.items():
        if "@" in group:
            phases[group.split("@")[0]][group] = results
    return {"programs": programs, "phases": phases}


def _ranking(results_by_protocol: dict) -> list[str]:
    """Protocols ordered fastest-first by cycles per transaction."""
    return sorted(
        results_by_protocol,
        key=lambda protocol: results_by_protocol[protocol].cycles_per_transaction,
    )


def phase_rankings(data: dict) -> dict:
    """Per-program phase rankings plus leader-change counts."""
    summary = {}
    for name, phases in data["phases"].items():
        rankings = {
            phase: _ranking(results) for phase, results in phases.items()
        }
        ordered = list(rankings.values())
        leader_changes = sum(
            1
            for first, second in zip(ordered, ordered[1:])
            if first[0] != second[0]
        )
        ranking_changes = sum(
            1
            for first, second in zip(ordered, ordered[1:])
            if first != second
        )
        summary[name] = {
            "rankings": rankings,
            "leader_changes": leader_changes,
            "ranking_changes": ranking_changes,
        }
    return summary


def _result_row(result) -> dict:
    return {
        "protocol": result.config.protocol,
        "interconnect": result.config.interconnect,
        "cycles_per_transaction": round(result.cycles_per_transaction, 2),
        "bytes_per_miss": round(result.bytes_per_miss, 2),
        "runtime_ns": round(result.runtime_ns, 1),
        "total_ops": result.total_ops,
        "total_misses": result.total_misses,
    }


def write_report(data: dict) -> Path:
    out = Path(
        os.environ.get(
            "REPRO_BENCH_WORKLOADS_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_workloads.json",
        )
    )
    report = {
        "bench": "workload_suite",
        "smoke": _smoke(),
        "phase_bandwidth_bytes_per_ns": WORKLOADS_PHASE_BW,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "programs": {
            name: {label: _result_row(result)
                   for label, result in variants.items()}
            for name, variants in data["programs"].items()
        },
        "phases": {
            name: {phase: {protocol: _result_row(result)
                           for protocol, result in results.items()}
                   for phase, results in phases.items()}
            for name, phases in data["phases"].items()
        },
        "phase_rankings": phase_rankings(data),
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def check_claims(data: dict) -> None:
    summary = phase_rankings(data)
    # The headline claim: within one program, the phases do not agree on
    # a protocol ordering.
    for name, entry in summary.items():
        assert entry["ranking_changes"] >= 1, (
            f"{name}: every phase ranked the protocols identically "
            f"({entry['rankings']})"
        )
    # And scan_vs_contend flips its *leader* outright: cache-to-cache
    # phases belong to TokenB, the memory-bound scan to Directory.
    flips = summary["scan_vs_contend"]["rankings"]
    assert flips["scan_vs_contend@contention_burst"][0] == "tokenb"
    assert flips["scan_vs_contend@streaming_scan"][0] == "directory"
    assert summary["scan_vs_contend"]["leader_changes"] >= 1


def bench_workload_suite(benchmark):
    data = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = write_report(data)
    print()
    for name, entry in phase_rankings(data).items():
        print(f"{name}: {entry['leader_changes']} leader changes")
        for phase, ranking in entry["rankings"].items():
            results = data["phases"][name][phase]
            bars = "  ".join(
                f"{protocol}={results[protocol].cycles_per_transaction:8.1f}"
                for protocol in ranking
            )
            print(f"  {phase:<34} {bars}")
    print(f"report -> {out}")
    check_claims(data)


if __name__ == "__main__":
    data = collect()
    out = write_report(data)
    check_claims(data)
    print(f"workload suite ok; report -> {out}")
