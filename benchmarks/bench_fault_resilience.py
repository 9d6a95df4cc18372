"""Fault-resilience bench: token protocols under a faulty fabric.

The paper's correctness substrate (token counting + persistent
requests, Sections 3.1-3.2) is supposed to make performance policy
failures harmless — so a fabric that actively misbehaves should cost
*time*, never *correctness*.  This harness measures that cost.  For
every token protocol and every fault class in
:data:`repro.faults.FAULT_KINDS` it runs seeded faulty-fabric
scenarios from the adversarial explorer (full oracle stack, including
the recovery oracles) next to their fault-free twins, and records to
``BENCH_faults.json`` (override with ``REPRO_BENCH_FAULTS_OUT``):

* **time-to-recovery** — how long past the last fault window the run
  still needed (:attr:`ScenarioOutcome.recovery_ns`), over the
  ``fired`` runs only: those that passed and on which a fault fired;
* **slowdown** — faulted vs clean runtime and traffic;
* **escalations** — persistent/reissued request deltas, the paper's
  own fallback machinery absorbing the damage;
* **fault activity** — drops, queued crossings, degraded crossings,
  paused deliveries actually inflicted, so a quiet run is visible.

Claims checked:

* every faulted run passes all oracles — zero violations across the
  whole sweep (the headline: faults cost time, not correctness);
* TokenB covers all four fault classes;
* the sweep actually inflicted faults (total fault activity > 0);
* corruption drops force escalation: with requests discarded, TokenB
  completes the affected ops via reissue or the persistent path.

Set ``REPRO_BENCH_SMOKE=1`` for a reduced run (TokenB only, 2 seeds;
used by CI).  Run as ``pytest benchmarks/bench_fault_resilience.py -s``
or ``python benchmarks/bench_fault_resilience.py``.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

from repro.faults import FAULT_KINDS, FaultPlan
from repro.system.grid import TOKEN_PROTOCOLS
from repro.testing.explore import (
    fault_classes_for,
    has_recovery,
    make_fault_scenario,
    run_scenario,
)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _protocols() -> tuple[str, ...]:
    # Token protocols only: the fault classes that matter (loss faults)
    # are illegal on the ordered baselines by construction.
    return ("tokenb",) if _smoke() else TOKEN_PROTOCOLS


def _seeds() -> range:
    return range(2) if _smoke() else range(8)


def _interconnect(seed: int) -> str:
    # Alternate fabrics so both routing layers see faults.
    return "torus" if seed % 2 == 0 else "tree"


def collect() -> dict:
    """Run the faulted/clean scenario pairs; aggregate per cell.

    One cell per (protocol, fault class); each faulted scenario's
    fault-free twin (same seed, workload, geometry — empty plan) is
    memoized by label, since fault classes sharing a seed can share a
    twin.
    """
    clean_memo: dict[str, object] = {}
    cells: dict[str, dict[str, dict]] = {}
    for protocol in _protocols():
        cells[protocol] = {}
        for fault_class in fault_classes_for(protocol):
            runs = []
            for seed in _seeds():
                scenario = make_fault_scenario(
                    seed, protocol, _interconnect(seed), fault_class
                )
                clean = dataclasses.replace(scenario, faults=FaultPlan())
                clean_outcome = clean_memo.get(clean.label())
                if clean_outcome is None:
                    clean_outcome = run_scenario(clean)
                    clean_memo[clean.label()] = clean_outcome
                runs.append((run_scenario(scenario), clean_outcome))
            cells[protocol][fault_class] = _aggregate(runs)
    return {"cells": cells}


def _aggregate(runs: list) -> dict:
    """Fold (faulted, clean) outcome pairs into one report cell.

    TTR folds only the ``fired`` runs (:func:`has_recovery`); a cell
    with none reports a null mean and max.
    """
    n = len(runs)
    violations = [f for f, _ in runs if not f.ok]
    fault_stats: dict[str, int] = {}
    for faulted, _ in runs:
        for stat, value in faulted.fault_stats.items():
            fault_stats[stat] = fault_stats.get(stat, 0) + value
    recoveries = [
        f.recovery_ns for f, _ in runs if has_recovery(f.ok, f.fault_stats)
    ]
    faulted_rt = [f.runtime_ns for f, _ in runs]
    clean_rt = [c.runtime_ns for _, c in runs]
    return {
        "runs": n,
        "violations": len(violations),
        "violation_types": sorted(
            {f.violation_type for f in violations if f.violation_type}
        ),
        "fired": len(recoveries),
        "recovery_ns": {
            "mean": round(sum(recoveries) / len(recoveries), 1)
            if recoveries else None,
            "max": round(max(recoveries), 1) if recoveries else None,
        },
        "runtime_ns": {
            "clean_mean": round(sum(clean_rt) / n, 1),
            "faulted_mean": round(sum(faulted_rt) / n, 1),
            "slowdown": round(
                sum(faulted_rt) / sum(clean_rt), 3
            ) if sum(clean_rt) else 0.0,
        },
        "traffic_bytes": {
            "clean": sum(
                sum(c.traffic_bytes.values()) for _, c in runs
            ),
            "faulted": sum(
                sum(f.traffic_bytes.values()) for f, _ in runs
            ),
        },
        "escalations": {
            "persistent_clean": sum(c.persistent_requests for _, c in runs),
            "persistent_faulted": sum(f.persistent_requests for f, _ in runs),
            "reissued_clean": sum(c.reissued_requests for _, c in runs),
            "reissued_faulted": sum(f.reissued_requests for f, _ in runs),
        },
        "fault_stats": fault_stats,
    }


def write_report(data: dict) -> Path:
    out = Path(
        os.environ.get(
            "REPRO_BENCH_FAULTS_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_faults.json",
        )
    )
    report = {
        "bench": "fault_resilience",
        "smoke": _smoke(),
        "seeds": len(_seeds()),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "protocols": data["cells"],
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def check_claims(data: dict) -> None:
    cells = data["cells"]
    # The headline: a faulty fabric never breaks a token protocol.
    for protocol, by_class in cells.items():
        for fault_class, cell in by_class.items():
            assert cell["violations"] == 0, (
                f"{protocol}/{fault_class}: {cell['violations']} oracle "
                f"violations ({cell['violation_types']}) — faults must "
                "cost time, not correctness"
            )
    # TokenB is exercised against every fault class.
    assert set(cells["tokenb"]) == set(FAULT_KINDS), (
        f"tokenb covered {sorted(cells['tokenb'])}, "
        f"expected all of {sorted(FAULT_KINDS)}"
    )
    # The sweep inflicted real damage — a quiet plan proves nothing.
    activity = sum(
        value
        for by_class in cells.values()
        for cell in by_class.values()
        for value in cell["fault_stats"].values()
    )
    assert activity > 0, "no fault event actually perturbed any run"
    if _smoke():
        return
    # Corruption drops requests, so the dropped ops must come back via
    # the timeout machinery: reissues + persistent requests rise.
    corrupt = cells["tokenb"]["corrupt"]
    assert corrupt["fault_stats"].get("corrupt_dropped", 0) > 0, (
        "corrupt windows never discarded a transient request"
    )
    esc = corrupt["escalations"]
    clean = esc["persistent_clean"] + esc["reissued_clean"]
    faulted = esc["persistent_faulted"] + esc["reissued_faulted"]
    assert faulted > clean, (
        f"tokenb/corrupt: escalations did not rise under corruption "
        f"({clean} clean vs {faulted} faulted) despite "
        f"{corrupt['fault_stats']['corrupt_dropped']} dropped requests"
    )


def bench_fault_resilience(benchmark):
    data = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = write_report(data)
    print()
    for protocol, by_class in data["cells"].items():
        for fault_class, cell in by_class.items():
            rec = {
                stat: "-" if value is None else f"{value:.1f}"
                for stat, value in cell["recovery_ns"].items()
            }
            esc = cell["escalations"]
            print(
                f"  {protocol:<10} {fault_class:<13} "
                f"viol={cell['violations']} fired={cell['fired']} "
                f"ttr mean={rec['mean']:>7} max={rec['max']:>7} "
                f"slowdown={cell['runtime_ns']['slowdown']:5.3f} "
                f"persist={esc['persistent_faulted']:3d} "
                f"reissue={esc['reissued_faulted']:3d}"
            )
    print(f"report -> {out}")
    check_claims(data)


if __name__ == "__main__":
    data = collect()
    out = write_report(data)
    check_claims(data)
    print(f"fault resilience ok; report -> {out}")
