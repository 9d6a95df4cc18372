"""Figure 5a: runtime — Directory and Hammer vs. TokenB (torus).

Paper claims reproduced as shape assertions:

* TokenB beats Directory (17-54%) by removing the home indirection,
  the DRAM directory lookup, and memory-controller blocking;
* TokenB beats Hammer (8-29%), which avoids the lookup but keeps the
  indirection;
* even with a zero-cycle ("perfect") directory, TokenB stays ahead
  (paper: 6-18%);
* Hammer and DRAM-Directory are close, Hammer ahead on
  sharing-dominated workloads (paper: 7-17%; our synthetic mixes are
  somewhat more bandwidth-hungry, which taxes Hammer — see
  EXPERIMENTS.md), while the zero-latency Directory beats Hammer
  (paper: 2-9%).
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup
from repro.analysis.report import format_runtime_bars, speedup


def _collect():
    return lookup("fig5a")


def bench_fig5a(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Figure 5a — Runtime: directory v. token coherence (torus, "
          "normalized to TokenB)")
    print(format_runtime_bars(data, baseline="TokenB"))

    for name, variants in data.items():
        vs_directory = speedup(variants["Directory (DRAM)"], variants["TokenB"])
        assert vs_directory > 10.0, (
            f"{name}: TokenB only {vs_directory:.0f}% faster than Directory"
        )
        vs_hammer = speedup(variants["Hammer"], variants["TokenB"])
        assert vs_hammer > 5.0, (
            f"{name}: TokenB only {vs_hammer:.0f}% faster than Hammer"
        )
        vs_perfect = speedup(
            variants["Directory (perfect)"], variants["TokenB"]
        )
        assert vs_perfect > 0.0, (
            f"{name}: perfect directory caught TokenB ({vs_perfect:.0f}%)"
        )
        # Perfect directory beats Hammer (paper: 2-9%).
        perfect_vs_hammer = speedup(
            variants["Hammer"], variants["Directory (perfect)"]
        )
        assert perfect_vs_hammer > 0.0
        # Hammer and DRAM-directory are in the same league.
        hammer_vs_dir = speedup(variants["Directory (DRAM)"], variants["Hammer"])
        assert -15.0 < hammer_vs_dir < 25.0
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
