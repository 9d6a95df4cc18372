"""Summary tracing keeps memory bounded, so it can stay on in campaigns.

The default recorder keeps counts and histograms only, so a traced run
should peak where an un-armed run of the same length peaks.  A recorder
that kept every send, delivery and hop until the end would not: that
peak grows with the run (tokenb/torus apache, 16 processors, 100 ops
each: about 6.8 MB against 1.4 MB un-armed).
"""

import gc
import tracemalloc

from repro import COMMERCIAL_WORKLOADS, SystemConfig
from repro.observe import install_tracing
from repro.system.builder import build_system
from repro.workloads import generate_streams


def _peak_mb(ops_per_proc: int, traced: bool) -> float:
    """tracemalloc peak from system build through run; streams first."""
    config = SystemConfig(n_procs=16, protocol="tokenb", interconnect="torus")
    spec = COMMERCIAL_WORKLOADS["apache"].scaled(ops_per_proc)
    streams = generate_streams(spec, 16, config.seed, config.block_bytes)
    # Earlier runs' cyclic garbage would otherwise be freed, or not,
    # while this run is measured.
    gc.collect()
    tracemalloc.start()
    try:
        system = build_system(
            config, streams, workload_name=spec.name,
            ops_per_transaction=spec.ops_per_transaction,
        )
        if traced:
            install_tracing(system)
        system.run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_summary_traced_peak_stays_within_ten_percent_of_unarmed():
    _peak_mb(5, traced=True)  # the hooked classes are built once per process
    unarmed = _peak_mb(100, traced=False)
    traced = _peak_mb(100, traced=True)
    assert traced <= 1.10 * unarmed, (
        f"summary-traced peak {traced:.2f} MB vs un-armed {unarmed:.2f} MB"
    )
