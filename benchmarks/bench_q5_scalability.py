"""Question 5: TokenB's broadcast limits its scalability.

The paper's (unshown) microbenchmark experiment: at 64 processors,
TokenB uses about twice the interconnect bandwidth of Directory, and
the cost of tree-based broadcast on the torus grows as Theta(n).  This
harness reruns that experiment at 16 / 32 / 64 processors on the
contended-sharing microbenchmark with unlimited link bandwidth (pure
traffic measurement, no queueing).
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup


def _collect():
    return lookup("q5")


def bench_q5_scalability(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Question 5 — TokenB vs Directory bandwidth scaling "
          "(contended microbenchmark, unlimited links)")
    print(f"{'procs':>6} {'TokenB B/miss':>14} {'Dir B/miss':>11} {'ratio':>7}")
    ratios = {}
    for n_procs, variants in data.items():
        ratio = (
            variants["tokenb"].bytes_per_miss
            / variants["directory"].bytes_per_miss
        )
        ratios[n_procs] = ratio
        print(
            f"{n_procs:>6} {variants['tokenb'].bytes_per_miss:>14.0f} "
            f"{variants['directory'].bytes_per_miss:>11.0f} {ratio:>6.2f}x"
        )

    # Shape: the ratio grows with N (broadcast does not scale) and is
    # around 2x at 64 processors (paper: "twice the bandwidth").
    assert ratios[64] > ratios[32] > ratios[16]
    assert 1.4 < ratios[64] < 3.5, f"64p ratio {ratios[64]:.2f} out of band"

    # Per-broadcast link crossings grow linearly with N: Theta(n).
    from repro.interconnect.torus import TorusInterconnect
    from repro.sim.kernel import Simulator

    crossings = {
        n: TorusInterconnect(Simulator(), n, 15.0, None).broadcast_crossings()
        for n in (16, 32, 64)
    }
    print(f"broadcast crossings per request: {crossings}")
    assert crossings[64] == 63 and crossings[16] == 15
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
