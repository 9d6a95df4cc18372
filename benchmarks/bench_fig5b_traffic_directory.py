"""Figure 5b: traffic — Directory and Hammer vs. TokenB (bytes/miss).

Paper claims reproduced as shape assertions:

* Hammer uses far more bandwidth than TokenB (paper: 79-90% more),
  because every processor acknowledges every request;
* Directory uses moderately less than TokenB (paper: 21-25% less) —
  targeted requests instead of broadcast, but a similar number of
  72-byte data messages;
* data messages are the bulk of Directory's traffic (paper: 81%).
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup
from repro.analysis.report import format_traffic_bars


def _collect():
    return lookup("fig5b")


def bench_fig5b(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Figure 5b — Traffic: directory v. token coherence (torus)")
    print(format_traffic_bars(data, baseline="TokenB"))

    for name, variants in data.items():
        token = variants["TokenB"].bytes_per_miss
        hammer = variants["Hammer"].bytes_per_miss
        directory = variants["Directory"].bytes_per_miss
        assert hammer > 1.5 * token, (
            f"{name}: Hammer only {hammer / token:.2f}x TokenB traffic"
        )
        assert directory < 0.85 * token, (
            f"{name}: Directory at {directory / token:.2f}x TokenB traffic"
        )
        # Data dominates directory traffic (paper: ~81%).
        breakdown = variants["Directory"].traffic_breakdown_per_miss()
        data_share = breakdown["data_and_writebacks"] / directory
        assert data_share > 0.6, f"{name}: data share {data_share:.0%}"
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
