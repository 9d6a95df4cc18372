"""System assembly: glue the substrates into a runnable multiprocessor.

:func:`build_system` instantiates the interconnect, one protocol node
per processor, and one sequencer per node, wired to the shared safety
checker and statistics.  :func:`simulate` is the one-call public entry
point: config + workload spec in, :class:`SimulationResult` out.
"""

from __future__ import annotations

import gc

from repro.coherence.checker import CoherenceChecker
from repro.coherence.controller import ProtocolNode
from repro.core.null_protocol import NullTokenNode
from repro.core.tokenb import TokenBNode
from repro.core.tokens import TokenLedger
from repro.interconnect import build_interconnect
from repro.predict.tokend import TokenDNode
from repro.predict.tokenm import TokenMNode
from repro.processor.sequencer import MemoryOp, Sequencer
from repro.protocols.directory import DirectoryNode
from repro.protocols.hammer import HammerNode
from repro.protocols.snooping import SnoopingNode
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter, TrafficMeter
from repro.config import SystemConfig
from repro.system.grid import STRICT_SAFE_PROTOCOLS, is_token_protocol
from repro.system.invariants import check_finished
from repro.system.simulator import DeadlockError, SimulationResult
from repro.workloads.synthetic import WorkloadSpec, generate_streams

#: Protocol name -> node class (the names of :data:`repro.config.PROTOCOLS`).
NODE_CLASSES: dict[str, type[ProtocolNode]] = {
    "tokenb": TokenBNode,
    "snooping": SnoopingNode,
    "directory": DirectoryNode,
    "hammer": HammerNode,
    "null-token": NullTokenNode,
    "tokend": TokenDNode,
    "tokenm": TokenMNode,
}


class System:
    """A built multiprocessor, ready to run one workload."""

    def __init__(
        self,
        config: SystemConfig,
        streams: dict[int, list[MemoryOp]],
        workload_name: str = "custom",
        ops_per_transaction: int = 100,
    ) -> None:
        config.validate()
        self.config = config
        self.workload_name = workload_name
        self.ops_per_transaction = ops_per_transaction
        self.sim = Simulator()
        self.traffic = TrafficMeter()
        self.counters = Counter()
        self.checker = CoherenceChecker(
            strict=config.protocol in STRICT_SAFE_PROTOCOLS,
            allow_inflight_invalidation=config.protocol == "snooping",
        )
        self.network = build_interconnect(
            config.interconnect,
            self.sim,
            config.n_procs,
            config.link_latency_ns,
            config.link_bandwidth_bytes_per_ns,
            self.traffic,
        )
        self.ledger: TokenLedger | None = (
            TokenLedger(config.total_tokens)
            if is_token_protocol(config.protocol) else None
        )
        #: Token-custody recorder, when installed (repro.lineage).
        self.lineage = None
        #: Trace recorder, when installed (repro.observe).
        self.observe = None
        #: Perturber, when installed (repro.testing.perturb).
        self.perturb = None
        #: Fault injector, when installed (repro.faults).
        self.faults = None
        #: Blocks covered by the end-of-run conservation audit.
        self.audited_blocks = 0

        node_class = NODE_CLASSES[config.protocol]
        self.nodes: list[ProtocolNode] = [
            node_class(node_id, self) for node_id in range(config.n_procs)
        ]
        self.sequencers: list[Sequencer] = [
            Sequencer(node, streams.get(node.node_id, [])) for node in self.nodes
        ]

    def run(self, max_events: int | None = None) -> SimulationResult:
        """Run to completion; raises on deadlock or invariant violation."""
        self.start()
        self.drain(max_events=max_events)
        return self.finish()

    # The run() pipeline is exposed as three stages so the snapshot/fork
    # layer (repro.snapshot) can pause between them: warmup phases drain
    # to a quiescent point, the system is snapshotted, and divergent
    # tails are fed into restored copies before finish() seals each one.

    def start(self) -> None:
        """Schedule every sequencer's first pump at t=0."""
        for sequencer in self.sequencers:
            sequencer.start()

    def drain(self, max_events: int | None = None) -> None:
        """Run the event loop until empty (or the cumulative cap)."""
        # The event loop allocates heavily but creates no cycles on its
        # hot path; pausing the cyclic collector for the duration avoids
        # generational scans over the live heap (~5% wall time).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run(max_events=max_events)
        finally:
            if gc_was_enabled:
                gc.enable()

    def check_complete(self) -> None:
        """Raise :class:`DeadlockError` if any sequencer is stuck."""
        stuck = [s.proc_id for s in self.sequencers if not s.done]
        if stuck:
            raise DeadlockError(
                f"event queue drained at t={self.sim.now} with processors "
                f"{stuck} still incomplete (liveness violation)"
            )

    def finish(self) -> SimulationResult:
        """Seal a drained run: every end-of-run invariant, then the result.

        :func:`~repro.system.invariants.check_finished` raises on the
        first invariant the run breaks.
        """
        check_finished(self)
        return self._result()

    def _result(self) -> SimulationResult:
        total_ops = sum(s.completed_ops for s in self.sequencers)
        miss_count = self.counters.get("l2_miss")
        latencies = [s.miss_latency for s in self.sequencers if s.miss_latency.count]
        total_lat = sum(t.mean * t.count for t in latencies)
        total_misses_seen = sum(t.count for t in latencies)
        return SimulationResult(
            config=self.config,
            workload_name=self.workload_name,
            runtime_ns=max(
                (s.finish_time or 0.0) for s in self.sequencers
            ),
            total_ops=total_ops,
            total_misses=miss_count,
            counters=self.counters.as_dict(),
            traffic_bytes=self.traffic.bytes_by_category(),
            events_fired=self.sim.events_fired,
            per_proc_finish_ns=[s.finish_time or 0.0 for s in self.sequencers],
            l1_hits=sum(s.l1_hits for s in self.sequencers),
            l2_hits=sum(s.l2_hits for s in self.sequencers),
            mean_miss_latency_ns=(
                total_lat / total_misses_seen if total_misses_seen else 0.0
            ),
            ops_per_transaction=self.ops_per_transaction,
        )


def build_system(
    config: SystemConfig,
    streams: dict[int, list[MemoryOp]],
    workload_name: str = "custom",
    ops_per_transaction: int = 100,
) -> System:
    """Assemble a system around explicit per-processor op streams."""
    return System(config, streams, workload_name, ops_per_transaction)


def simulate(
    config: SystemConfig,
    workload: WorkloadSpec,
    max_events: int | None = None,
) -> SimulationResult:
    """Generate the workload's streams, run it, and return the result.

    The streams depend only on (workload, n_procs, config.seed), so every
    protocol/interconnect variant replays the identical input.
    """
    streams = generate_streams(
        workload, config.n_procs, config.seed, config.block_bytes
    )
    system = build_system(
        config,
        streams,
        workload_name=workload.name,
        ops_per_transaction=workload.ops_per_transaction,
    )
    return system.run(max_events=max_events)


def simulate_program(
    config: SystemConfig,
    program,
    max_events: int | None = None,
) -> SimulationResult:
    """Run a phase-structured :class:`WorkloadProgram` to completion.

    Streams are fed to the sequencers as per-processor *generators*
    (sequencers consume iterators), so arbitrarily long programs never
    materialize as lists.  Like :func:`simulate`, generation depends
    only on ``(program, n_procs, config.seed)``.
    """
    streams = program.streams(config.n_procs, config.seed, config.block_bytes)
    system = build_system(
        config,
        streams,
        workload_name=program.name,
        ops_per_transaction=program.ops_per_transaction,
    )
    return system.run(max_events=max_events)
