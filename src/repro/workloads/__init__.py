"""Workload generation: synthetic commercial models, structured sharing
patterns, phase-structured programs, microbenchmarks, and trace
record/replay."""

from repro.workloads.adversarial import (
    ADVERSARIAL_WORKLOADS,
    arbiter_contention_streams,
    eviction_storm_streams,
    false_sharing_streams,
    writeback_churn_streams,
)
from repro.workloads.commercial import (
    APACHE,
    COMMERCIAL_WORKLOADS,
    OLTP,
    SPECJBB,
)
from repro.workloads.microbench import contended_sharing_spec
from repro.workloads.patterns import (
    PATTERN_KINDS,
    PatternSpec,
    pattern_ops,
)
from repro.workloads.programs import (
    ADVERSARIAL_PROGRAMS,
    CAMPAIGN_PROGRAMS,
    WorkloadProgram,
    phase_stream,
)
from repro.workloads.synthetic import (
    WorkloadSpec,
    generate_stream,
    generate_streams,
    stream_ops,
    stream_stats,
)
from repro.workloads.trace import (
    dump_streams,
    dumps_streams,
    load_streams,
    loads_streams,
)

__all__ = [
    "ADVERSARIAL_PROGRAMS",
    "ADVERSARIAL_WORKLOADS",
    "APACHE",
    "CAMPAIGN_PROGRAMS",
    "COMMERCIAL_WORKLOADS",
    "OLTP",
    "PATTERN_KINDS",
    "PatternSpec",
    "SPECJBB",
    "WorkloadProgram",
    "WorkloadSpec",
    "arbiter_contention_streams",
    "contended_sharing_spec",
    "eviction_storm_streams",
    "false_sharing_streams",
    "writeback_churn_streams",
    "dump_streams",
    "dumps_streams",
    "generate_stream",
    "generate_streams",
    "load_streams",
    "loads_streams",
    "pattern_ops",
    "phase_stream",
    "stream_ops",
    "stream_stats",
]
