"""Scalability microbenchmark (Question 5, Section 6).

The paper's (unshown) 64-processor experiment uses "a simple
micro-benchmark" to compare TokenB's and Directory's interconnect
bandwidth.  :func:`contended_sharing_spec` reproduces the spirit: every
processor hammers a small pool of shared blocks with lock-style
read-modify-writes, so virtually every operation is a coherence miss
and per-miss traffic is the whole story.
"""

from __future__ import annotations

from repro.workloads.synthetic import WorkloadSpec


def contended_sharing_spec(
    ops_per_proc: int = 300, n_hot_blocks: int = 64
) -> WorkloadSpec:
    """All-migratory workload for bandwidth-per-miss measurements."""
    return WorkloadSpec(
        name="microbench-contended",
        ops_per_proc=ops_per_proc,
        migratory_weight=1.0,
        producer_consumer_weight=0.0,
        read_mostly_weight=0.0,
        private_weight=0.0,
        streaming_weight=0.0,
        n_migratory_blocks=n_hot_blocks,
        think_min_ns=5.0,
        think_max_ns=40.0,
    )

