"""Figure 4b: traffic — Snooping vs. TokenB (bytes per miss).

Paper claim: on the tree, both protocols use approximately the same
interconnect bandwidth — both broadcast 8-byte requests and move the
same 72-byte data messages; TokenB adds only small reissue/persistent
and dataless-token overheads.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup
from repro.analysis.report import format_traffic_bars


def _collect():
    return lookup("fig4b")


def bench_fig4b(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Figure 4b — Traffic: snooping v. token coherence")
    print(format_traffic_bars(data, baseline="Snooping / tree"))

    for name, variants in data.items():
        token = variants["TokenB / tree"]
        snoop = variants["Snooping / tree"]
        ratio = token.bytes_per_miss / snoop.bytes_per_miss
        # "Both protocols use approximately the same bandwidth."
        assert 0.85 < ratio < 1.30, f"{name}: traffic ratio {ratio:.2f}"
        # Data responses & writebacks dominate both.
        for result in (token, snoop):
            breakdown = result.traffic_breakdown_per_miss()
            assert breakdown["data_and_writebacks"] > breakdown["requests"]
        # Reissue/persistent overhead is a small slice of TokenB traffic.
        token_breakdown = token.traffic_breakdown_per_miss()
        assert (
            token_breakdown["reissues_and_persistent"]
            < 0.15 * token.bytes_per_miss
        )
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
