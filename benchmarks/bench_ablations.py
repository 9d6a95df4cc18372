"""Ablations of TokenB's design choices (Section 4.2).

The paper motivates several TokenB policies; these benches quantify
each on the OLTP model:

* **Migratory optimization** — responding to a GETS on a written
  M-block with *all* tokens halves the transactions for migratory data.
* **Reissue timeout policy** — "twice the recent average miss latency":
  too-early reissues waste bandwidth, too-late ones stall races.
* **Token count T** — tokens per block beyond the minimum (= N) change
  storage cost, not performance (Section 3.1's storage argument).
* **Link bandwidth** — TokenB's broadcast needs the high-bandwidth
  glueless links the paper assumes; starved links erase its win.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup
from repro.analysis.report import speedup


def _collect(benchmark, knob: str) -> dict:
    """One knob's results from the ``ablations`` preset, keyed by value."""
    return benchmark.pedantic(lookup, ("ablations",), rounds=1, iterations=1)[knob]


def bench_ablation_migratory(benchmark):
    results = _collect(benchmark, "migratory")
    with_opt, without_opt = results["on"], results["off"]
    gain = speedup(without_opt, with_opt)
    print(f"\nmigratory optimization: +{gain:.1f}% runtime "
          f"({with_opt.cycles_per_transaction:.0f} vs "
          f"{without_opt.cycles_per_transaction:.0f} cyc/txn); "
          f"misses {with_opt.total_misses} vs {without_opt.total_misses}")
    assert with_opt.total_misses < without_opt.total_misses
    assert gain > 0.0


def bench_ablation_reissue_timeout(benchmark):
    results = _collect(benchmark, "reissue_timeout")
    print()
    for mult, result in results.items():
        classes = result.miss_classification()
        print(
            f"reissue timeout x{mult}: "
            f"{result.cycles_per_transaction:7.0f} cyc/txn, "
            f"reissued {1 - classes['not_reissued']:.2%}, "
            f"{result.bytes_per_miss:.0f} B/miss"
        )
    # Hair-trigger reissues burn bandwidth on duplicate requests.
    assert (
        results[0.5].bytes_per_miss > results[2.0].bytes_per_miss
    )
    # Glacial timeouts leave racing misses stalled.
    assert (
        results[8.0].cycles_per_transaction
        >= results[2.0].cycles_per_transaction * 0.98
    )


def bench_ablation_token_count(benchmark):
    results = _collect(benchmark, "token_count")
    print()
    base = results[16].cycles_per_transaction
    for tokens, result in results.items():
        print(
            f"T={tokens:3d}: {result.cycles_per_transaction:7.0f} cyc/txn "
            f"({result.cycles_per_transaction / base:.3f}x), "
            f"token state {result.config.token_state_bits()} bits/block"
        )
    # Performance is insensitive to T (storage cost is the only axis).
    for result in results.values():
        assert abs(result.cycles_per_transaction / base - 1.0) < 0.1


def bench_ablation_bandwidth(benchmark):
    results = _collect(benchmark, "bandwidth")
    print()
    ordered = [results[bw].cycles_per_transaction for bw in (0.8, 1.6, 3.2, 6.4, None)]
    for bw, cpt in zip((0.8, 1.6, 3.2, 6.4, None), ordered):
        label = "unlimited" if bw is None else f"{bw:.1f} B/ns"
        print(f"link bandwidth {label:>9}: {cpt:7.0f} cyc/txn")
    # More bandwidth monotonically helps (broadcast protocol).
    assert ordered == sorted(ordered, reverse=True)
    # At Table 1 bandwidth the system is not badly saturated.
    assert ordered[2] < 1.5 * ordered[4]
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
