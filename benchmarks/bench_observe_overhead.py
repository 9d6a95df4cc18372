"""Observability overhead: what arming each telemetry layer costs.

The observe layer's design claim is *zero cost when off, bounded cost
when on*: an un-armed run executes pristine classes (nothing to
measure — the determinism suite pins bit-identity), so this bench
quantifies the armed side.  Each configuration runs three ways —
baseline, with tracing installed (the default summary recorder, the
one campaigns arm), and with the kernel self-profiler installed — on
identical streams, and asserts the results are equal in every output
field (:func:`~repro.testing.signature.result_signature`) before
reporting the wall-time ratios.

Results are written to ``BENCH_observe.json`` at the repo root
(override with ``REPRO_BENCH_OBSERVE_OUT``).  Set
``REPRO_BENCH_SMOKE=1`` for a quick single-repeat slice (used by CI's
``observe-smoke`` job).

Run it as ``pytest benchmarks/bench_observe_overhead.py -s`` or
``python benchmarks/bench_observe_overhead.py``.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import COMMERCIAL_WORKLOADS, SystemConfig, interconnect_for
from repro.system.builder import build_system
from repro.testing.signature import result_signature
from repro.workloads import generate_streams

CONFIGS = [
    ("tokenb/torus", "apache", dict(protocol="tokenb")),
    ("directory/torus", "oltp", dict(protocol="directory")),
    ("snooping/tree", "apache", dict(protocol="snooping")),
]

OPS_PER_PROC = 400


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _run(config, spec, mode: str):
    streams = generate_streams(
        spec, config.n_procs, config.seed, config.block_bytes
    )
    system = build_system(
        config, streams, workload_name=spec.name,
        ops_per_transaction=spec.ops_per_transaction,
    )
    if mode == "traced":
        from repro.observe import install_tracing

        install_tracing(system, epoch_ns=500.0)
    elif mode == "profiled":
        from repro.sim.kernel import install_profiler

        install_profiler(system.sim)
    t0 = time.perf_counter()
    result = system.run()
    return time.perf_counter() - t0, result_signature(result)


def measure(repeats: int | None = None) -> dict:
    if repeats is None:
        repeats = 1 if _smoke() else 3
    configs = CONFIGS[:1] if _smoke() else CONFIGS
    ops = 100 if _smoke() else OPS_PER_PROC
    results = {}
    for label, workload_name, config_kwargs in configs:
        kwargs = dict(config_kwargs)
        kwargs.setdefault(
            "interconnect", interconnect_for(kwargs["protocol"])
        )
        spec = COMMERCIAL_WORKLOADS[workload_name].scaled(ops)
        config = SystemConfig(n_procs=16, **kwargs)
        walls = {"baseline": [], "traced": [], "profiled": []}
        signatures = {}
        for _ in range(repeats + 1):  # first iteration is warm-up
            for mode in walls:
                wall, signature = _run(config, spec, mode)
                walls[mode].append(wall)
                expected = signatures.setdefault(mode, signature)
                assert signature == expected, (
                    f"{label}/{mode}: nondeterministic replay"
                )
        # The whole point: armed runs produce identical results.
        assert signatures["traced"] == signatures["baseline"], (
            f"{label}: tracing changed the simulation"
        )
        assert signatures["profiled"] == signatures["baseline"], (
            f"{label}: profiling changed the simulation"
        )
        best = {
            mode: min(times[1:]) if len(times) > 1 else times[0]
            for mode, times in walls.items()
        }
        results[label] = {
            "workload": workload_name,
            "n_procs": 16,
            "ops_per_proc": ops,
            "events_fired": signatures["baseline"]["events_fired"],
            "wall_s_baseline": round(best["baseline"], 4),
            "wall_s_traced": round(best["traced"], 4),
            "wall_s_profiled": round(best["profiled"], 4),
            "tracing_overhead_x": round(
                best["traced"] / best["baseline"], 3
            ),
            "profiling_overhead_x": round(
                best["profiled"] / best["baseline"], 3
            ),
        }
    return results


def write_report(results: dict) -> Path:
    out = Path(
        os.environ.get(
            "REPRO_BENCH_OBSERVE_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_observe.json",
        )
    )
    report = {
        "bench": "observe_overhead",
        "smoke": _smoke(),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "configs": results,
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def _print_table(results: dict, out: Path) -> None:
    print(f"Observability overhead (armed/baseline); report -> {out}")
    width = max(len(label) for label in results)
    for label, row in results.items():
        print(
            f"  {label:<{width}}  {row['events_fired']:>9,} events  "
            f"base {row['wall_s_baseline']:>7.3f}s  "
            f"traced x{row['tracing_overhead_x']:<5}  "
            f"profiled x{row['profiling_overhead_x']:<5}"
        )


def bench_observe_overhead(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    out = write_report(results)
    print()
    _print_table(results, out)
    for row in results.values():
        assert row["tracing_overhead_x"] > 0
        assert row["profiling_overhead_x"] > 0


if __name__ == "__main__":
    results = measure()
    _print_table(results, write_report(results))
