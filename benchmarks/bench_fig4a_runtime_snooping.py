"""Figure 4a: runtime — Snooping vs. TokenB.

Paper claims reproduced as shape assertions:

* on the same (tree) interconnect, Snooping and TokenB perform
  similarly, with Snooping slightly faster (1-5% limited bandwidth,
  1-3% unlimited) because TokenB occasionally reissues;
* TokenB can exploit the lower-latency unordered torus, where snooping
  cannot run at all: TokenB-on-torus beats Snooping-on-tree by 26-65%
  (limited bandwidth) and 15-28% (unlimited);
* snooping-on-torus is *not applicable* (no total order).
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

import pytest

from benchmarks.common import lookup
from repro import SystemConfig
from repro.analysis.report import format_runtime_bars, speedup


def _collect():
    return lookup("fig4a")


def bench_fig4a(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Figure 4a — Runtime: snooping v. token coherence "
          "(normalized to Snooping/tree; smaller is better)")
    print(format_runtime_bars(data, baseline="Snooping / tree"))

    for name, variants in data.items():
        # TokenB exploits the unordered torus: substantially faster than
        # snooping on the tree (paper: 26-65% limited / 15-28% unlimited).
        limited = speedup(variants["Snooping / tree"], variants["TokenB / torus"])
        assert limited > 15.0, f"{name}: torus TokenB only {limited:.0f}% faster"
        unlimited = speedup(
            variants["Snooping / tree (unlim bw)"],
            variants["TokenB / torus (unlim bw)"],
        )
        assert unlimited > 0.0, f"{name}: unlimited-bw win vanished"
        # Same interconnect: the two are close, snooping at worst mildly
        # ahead (paper: 1-5%); TokenB must not lag catastrophically.
        same_tree = speedup(variants["TokenB / tree"], variants["Snooping / tree"])
        assert -10.0 < same_tree < 15.0, (
            f"{name}: tree-vs-tree gap {same_tree:.0f}% out of range"
        )


def bench_fig4a_snooping_torus_not_applicable(benchmark):
    def attempt():
        with pytest.raises(ValueError):
            SystemConfig(protocol="snooping", interconnect="torus")
        return True

    assert benchmark.pedantic(attempt, rounds=1, iterations=1)
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
