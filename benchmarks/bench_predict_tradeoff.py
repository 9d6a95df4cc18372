"""Destination-set prediction: traffic vs. latency per predictor.

Section 7's claim, made measurable: "Token Coherence can use
destination-set prediction to achieve the performance of broadcast
while using less bandwidth."  This harness runs the fig-4/5 commercial
workload grid through TokenB, TokenD, Directory, and TokenM under each
predictor (owner / broadcast-if-shared / group), plus the
bandwidth-adaptive hybrid at full and constrained link bandwidth, and
records the tradeoff to ``BENCH_predict.json`` (override the path with
``REPRO_BENCH_PREDICT_OUT``):

* **TokenM + group** must show *lower interconnect traffic than TokenB
  at comparable runtime* — the headline acceptance claim;
* the per-predictor scorecards (hit rate, coverage, overshoot — the
  ``predict_*`` counters every run carries) show *why* each predictor
  lands where it does on the curve;
* the hybrid must track TokenB while links are idle and cut traffic
  below TokenB once bandwidth is constrained — policy adapting freely
  on an unchanged correctness substrate.

Set ``REPRO_BENCH_SMOKE=1`` for a single-workload run (used by CI).
Run as ``pytest benchmarks/bench_predict_tradeoff.py -s`` or
``python benchmarks/bench_predict_tradeoff.py``.
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
from repro.analysis.report import format_runtime_bars, format_traffic_bars
from repro.campaign.presets import PREDICT_CONSTRAINED_BW, constrained, series
from repro.predict.predictors import prediction_rates
from repro.workloads import COMMERCIAL_WORKLOADS


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def collect() -> dict:
    """The ``predict`` preset (its first workload only when smoking),
    split into full- and constrained-bandwidth results."""
    names = list(COMMERCIAL_WORKLOADS)[: 1 if _smoke() else None]
    predict = series("predict")
    data = lookup({
        group: predict[group]
        for name in names
        for group in (name, constrained(name))
    })
    return {
        "full": {name: data[name] for name in names},
        "constrained": {name: data[constrained(name)] for name in names},
    }


def _result_row(result) -> dict:
    rates = prediction_rates(result.counters)
    return {
        "protocol": result.config.protocol,
        "predictor": result.config.predictor,
        "bandwidth_adaptive": result.config.bandwidth_adaptive,
        "cycles_per_transaction": round(result.cycles_per_transaction, 2),
        "bytes_per_miss": round(result.bytes_per_miss, 2),
        "runtime_ns": round(result.runtime_ns, 1),
        "traffic_total_bytes": sum(result.traffic_bytes.values()),
        "predict": {key: round(value, 4) for key, value in rates.items()},
        "hybrid_broadcasts": result.counters.get("hybrid_broadcast", 0),
        "hybrid_multicasts": result.counters.get("hybrid_multicast", 0),
    }


def write_report(data: dict) -> Path:
    out = Path(
        os.environ.get(
            "REPRO_BENCH_PREDICT_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_predict.json",
        )
    )
    report = {
        "bench": "predict_tradeoff",
        "smoke": _smoke(),
        "constrained_bandwidth_bytes_per_ns": PREDICT_CONSTRAINED_BW,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": {
            name: {label: _result_row(result)
                   for label, result in variants.items()}
            for name, variants in data["full"].items()
        },
        "constrained": {
            name: {label: _result_row(result)
                   for label, result in variants.items()}
            for name, variants in data["constrained"].items()
        },
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def check_claims(data: dict) -> None:
    for name, variants in data["full"].items():
        tokenb = variants["TokenB"]
        group = variants["TokenM (group)"]
        # The acceptance claim: lower traffic at comparable runtime.
        assert group.bytes_per_miss < tokenb.bytes_per_miss, (
            f"{name}: group predictor saved no traffic"
        )
        assert group.cycles_per_transaction < 1.15 * tokenb.cycles_per_transaction, (
            f"{name}: group predictor runtime not comparable to TokenB "
            f"({group.cycles_per_transaction:.0f} vs "
            f"{tokenb.cycles_per_transaction:.0f})"
        )
        # The predictors actually predict (and their scorecards say so).
        rates = prediction_rates(group.counters)
        assert rates["multicasts"] > 0
        assert rates["hit_rate"] > 0.5, f"{name}: group hit rate {rates}"
        # The hybrid tracks TokenB while links are idle.
        hybrid = variants["TokenM (hybrid)"]
        assert hybrid.cycles_per_transaction < 1.10 * tokenb.cycles_per_transaction
    for name, variants in data["constrained"].items():
        tokenb = variants["TokenB"]
        hybrid = variants["TokenM (hybrid)"]
        # Constrained links: the hybrid switches modes and sheds traffic.
        assert hybrid.counters.get("hybrid_multicast", 0) > 0, (
            f"{name}: hybrid never switched to multicast at "
            f"{PREDICT_CONSTRAINED_BW} B/ns"
        )
        assert hybrid.bytes_per_miss < tokenb.bytes_per_miss


def bench_predict_tradeoff(benchmark):
    data = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = write_report(data)
    print()
    print("Destination-set prediction — runtime (normalized to TokenB)")
    print(format_runtime_bars(data["full"], baseline="TokenB"))
    print("Destination-set prediction — traffic (normalized to TokenB)")
    print(format_traffic_bars(data["full"], baseline="TokenB"))
    for name, variants in data["full"].items():
        for label, result in variants.items():
            rates = prediction_rates(result.counters)
            if rates["multicasts"]:
                print(f"  {name}/{label}: hit={rates['hit_rate']:.2f} "
                      f"coverage={rates['coverage']:.2f} "
                      f"overshoot={rates['overshoot']:.2f}")
    print(f"report -> {out}")
    check_claims(data)


if __name__ == "__main__":
    data = collect()
    out = write_report(data)
    check_claims(data)
    print(f"predict tradeoff ok; report -> {out}")
