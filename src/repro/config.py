"""System configuration with Table 1 defaults.

The default :class:`SystemConfig` reproduces the paper's target system: a
16-processor SPARC-like glueless multiprocessor at 1 GHz (so 1 ns = 1
cycle), 128 kB split L1s (2 ns), a 4 MB unified L2 (6 ns), 64-byte blocks,
80 ns DRAM, 6 ns memory/directory controllers, and 3.2 GB/s (= 3.2
bytes/ns), 15 ns point-to-point links.

Protocol and interconnect are orthogonal axes, with one exception that
:data:`PROTOCOLS` states: traditional snooping requires the
totally-ordered tree (Section 2), so the config rejects snooping on the
torus just as the paper's Figure 4 marks it "not applicable".
"""

from __future__ import annotations

import dataclasses

#: Every protocol -> the interconnects it runs on, its default first.
#: The default is the torus (the paper's preferred glueless topology)
#: wherever it is legal; traditional snooping needs the tree's total
#: order, which the torus does not provide (Section 2).  The four paper
#: protocols, the null performance protocol (Section 4.1), and the
#: Section 7 extensions TokenD and TokenM (:mod:`repro.predict`).
PROTOCOLS: dict[str, tuple[str, ...]] = {
    "tokenb": ("torus", "tree"),
    "snooping": ("tree",),
    "directory": ("torus", "tree"),
    "hammer": ("torus", "tree"),
    "null-token": ("torus", "tree"),
    "tokend": ("torus", "tree"),
    "tokenm": ("torus", "tree"),
}
INTERCONNECTS = ("torus", "tree")

#: Destination-set predictors TokenM can run (repro.predict.predictors).
PREDICTORS = ("owner", "broadcast-if-shared", "group")


@dataclasses.dataclass
class SystemConfig:
    """Full system parameterization (defaults = Table 1)."""

    # Topology
    n_procs: int = 16
    protocol: str = "tokenb"
    interconnect: str = "torus"

    # Interconnect (Section 5.2)
    link_latency_ns: float = 15.0
    #: 3.2 GB/s = 3.2 bytes/ns; None models unlimited bandwidth.
    link_bandwidth_bytes_per_ns: float | None = 3.2

    # Coherent memory system (Table 1)
    block_bytes: int = 64
    l1_bytes: int = 128 * 1024
    l1_assoc: int = 4
    l1_latency_ns: float = 2.0
    l2_bytes: int = 4 * 1024 * 1024
    l2_assoc: int = 4
    l2_latency_ns: float = 6.0
    dram_latency_ns: float = 80.0
    controller_latency_ns: float = 6.0
    #: Directory-state lookup cost.  The base system stores the directory
    #: in main-memory DRAM (80 ns); 0.0 models the "perfect" directory
    #: cache of Section 5.1.
    directory_latency_ns: float = 80.0

    # Processor-side (stands in for the 128-entry ROB's memory-level
    # parallelism; Section 5.3's dynamically scheduled cores).
    mshr_capacity: int = 8
    max_outstanding_misses: int = 4

    # Token Coherence (Sections 3 and 4.2)
    tokens_per_block: int | None = None  # default: n_procs
    reissue_limit: int = 4
    reissue_timeout_multiplier: float = 2.0
    persistent_timeout_multiplier: float = 10.0
    backoff_initial_ns: float = 50.0
    backoff_max_ns: float = 800.0

    #: Migratory-sharing optimization (Cox/Fowler, Stenstrom et al.),
    #: implemented in all four protocols per Section 4.2.
    migratory_optimization: bool = True

    # Destination-set prediction (Section 7; repro.predict).  The
    # predictor drives TokenM's multicast sets; the table knobs also
    # bound TokenD's soft-state directory.
    predictor: str = "group"
    #: The traffic-vs-latency dial: a small table predicts only hot,
    #: recently-active blocks (TokenB-like runtime, modest savings);
    #: larger tables multicast more and save more bandwidth at a
    #: reissue-latency cost (see BENCH_predict.json).
    predictor_table_entries: int = 128
    #: Group-predictor decay period (trainings per entry between decays).
    predictor_history_depth: int = 4
    #: Reissue-timer multiplier for a *predicted* first attempt: silence
    #: usually means the guess was wrong, so TokenM falls back to
    #: broadcast faster than TokenB's general-purpose timeout.
    predicted_reissue_timeout_multiplier: float = 1.5

    #: Bandwidth-adaptive hybrid (Section 7 / [29]): a TokenM node
    #: broadcasts while its outgoing links are idle and switches to
    #: predicted multicast above the utilization threshold.
    bandwidth_adaptive: bool = False
    hybrid_utilization_threshold: float = 0.05
    #: Backlog-normalization window for the utilization estimate.
    hybrid_window_ns: float = 200.0

    seed: int = 42

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {tuple(PROTOCOLS)}")
        if self.interconnect not in INTERCONNECTS:
            raise ValueError(f"interconnect must be one of {INTERCONNECTS}")
        legal = PROTOCOLS[self.protocol]
        if self.interconnect not in legal:
            raise ValueError(
                f"{self.protocol} cannot run on the {self.interconnect} "
                f"interconnect (legal: {', '.join(legal)}): traditional "
                "snooping requires the totally-ordered tree (Section 2)"
            )
        if self.n_procs < 2:
            raise ValueError("need at least 2 processors")
        if self.block_bytes < 1 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a positive power of two")
        if self.dram_latency_ns < 0:
            raise ValueError("dram_latency_ns must be >= 0")
        if self.tokens_per_block is not None and self.tokens_per_block < self.n_procs:
            raise ValueError(
                "T must be at least the number of processors (Section 3.1)"
            )
        if self.reissue_limit < 0:
            raise ValueError("reissue_limit must be >= 0")
        if self.max_outstanding_misses < 1 or self.mshr_capacity < 1:
            raise ValueError("need at least one outstanding miss")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"predictor must be one of {PREDICTORS}")
        if self.predictor_table_entries < 1:
            raise ValueError("predictor table needs at least one entry")
        if self.predictor_history_depth < 1:
            raise ValueError("predictor_history_depth must be >= 1")
        if self.predicted_reissue_timeout_multiplier <= 0:
            raise ValueError(
                "predicted_reissue_timeout_multiplier must be positive"
            )
        if not 0.0 <= self.hybrid_utilization_threshold <= 1.0:
            raise ValueError(
                "hybrid_utilization_threshold must be in [0, 1]"
            )
        if self.hybrid_window_ns <= 0:
            raise ValueError("hybrid_window_ns must be positive")

    @property
    def total_tokens(self) -> int:
        """T: tokens per block (>= number of processors, Section 3.1)."""
        return (
            self.tokens_per_block
            if self.tokens_per_block is not None
            else self.n_procs
        )

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def token_state_bits(self) -> int:
        """Per-block token storage: valid + owner + ceil(log2(T)) bits.

        Section 3.1's storage argument: 64 tokens on 64-byte blocks costs
        one byte (1.6% overhead).
        """
        count_bits = max(1, (self.total_tokens).bit_length())
        return 2 + count_bits
