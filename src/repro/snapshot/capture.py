"""Simulation state capture/restore: the snapshot substrate.

A :class:`SimulatorSnapshot` freezes a built :class:`~repro.system.builder.System`
mid-run — kernel event heap and clock, RNG stream states, cache and MSHR
contents, protocol/controller state, token ledger, link queues and
in-flight messages, statistics counters — into one pickle blob whose
:meth:`~SimulatorSnapshot.restore` reproduces a *bit-identical
continuation*: running the restored system to completion produces
exactly the events, counters, and traffic an uninterrupted run would
have (pinned by the extended determinism goldens in
``tests/snapshot/``).

Fidelity comes from serializing the whole object graph in one pass:
every scheduled event's callback is a bound method of some system
object, so pickling the system as a single document preserves the
aliasing between the heap, the nodes, the interconnect, and any shared
statistics dicts.  That works because the simulator's hot path
is deliberately closure-free — the one historical exception, the
sequencer's miss-completion continuation, is a ``functools.partial``
for exactly this reason.

Every overlay arms the system through :mod:`repro.overlay`, whose hooks
are module-level classes and whose hooked node classes resolve by name,
and publishes itself on the system (``system.lineage``,
``system.perturb``, ``system.faults``, ``system.observe``), so jitter,
faults, tracing and lineage all ride along in the pickle, counters and
pause-gate buffers included.  The mutants of
:mod:`repro.testing.mutants` patch module-level code too, so a mutated
system forks like any other.  One input is refused *up front* with
:class:`SnapshotUnsupportedError`: a generator operation stream, which
:func:`~repro.system.builder.build_system` accepts like any iterable.
Anything else that fails to pickle raises the same error, naming the
cause.
"""

from __future__ import annotations

import contextlib
import gc
import pickle
import types


@contextlib.contextmanager
def _gc_paused():
    """Suspend the cycle collector across a bulk (de)serialization.

    Pickling either direction allocates the whole object graph in one
    burst; letting the generational collector trigger mid-burst only
    adds scan passes over objects that are all still live.  Same idiom
    as ``System.drain``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SnapshotUnsupportedError(RuntimeError):
    """The system carries state the snapshot layer cannot serialize.

    Raised *before* any pickling is attempted for a generator operation
    stream, and as a wrapper if pickling itself fails.  The message
    names the cause so a scenario author knows what to change.
    """


def _unsupported_reasons(system) -> list[str]:
    """Every reason this system cannot be snapshotted (empty = fine)."""
    reasons: list[str] = []
    for sequencer in system.sequencers:
        if isinstance(sequencer._stream, types.GeneratorType):
            reasons.append(
                f"processor {sequencer.proc_id}'s operation stream is a "
                "generator — generators do not pickle; feed a "
                "ReplayableStream (repro.snapshot.stream) or a "
                "materialized list instead"
            )
            break
    return reasons


class SimulatorSnapshot:
    """One frozen simulation state, restorable any number of times.

    ``blob`` is the pickled system, overlays included; ``meta`` is a
    small JSON-safe summary (capture time, cumulative events, per-proc
    progress) readable without unpickling.
    """

    __slots__ = ("blob", "meta")

    def __init__(self, blob: bytes, meta: dict):
        self.blob = blob
        self.meta = meta

    @classmethod
    def capture(cls, system) -> "SimulatorSnapshot":
        """Freeze ``system``, with every overlay published on it.

        The system is left untouched and keeps running normally; capture
        may happen at any event-loop quiescence point (between
        :meth:`System.drain` strides, or at warmup completion).

        Raises :class:`SnapshotUnsupportedError` when the system carries
        state the serializer cannot round-trip.
        """
        reasons = _unsupported_reasons(system)
        if reasons:
            raise SnapshotUnsupportedError(
                "system cannot be snapshotted: " + "; ".join(reasons)
            )
        try:
            with _gc_paused():
                blob = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 — rewrap with context
            raise SnapshotUnsupportedError(
                f"simulation state failed to pickle: {exc}"
            ) from exc
        meta = {
            "t": system.sim.now,
            "events_fired": system.sim.events_fired,
            "protocol": system.config.protocol,
            "interconnect": system.config.interconnect,
            "n_procs": system.config.n_procs,
            "workload": system.workload_name,
            "issued_ops": [s.issued_ops for s in system.sequencers],
            "done": [s.done for s in system.sequencers],
        }
        return cls(blob, meta)

    def restore(self):
        """A fresh, independent system continuing from the capture point.

        Each call deserializes a new object graph, so restored copies
        never share mutable state — fork N tails from one snapshot and
        they diverge independently.  The cost is O(state): a
        :class:`~repro.snapshot.stream.ReplayableStream` comes back as
        its factory and consumed count, and regenerates its prefix only
        if the restored system reads it.
        """
        with _gc_paused():
            return pickle.loads(self.blob)

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    def __repr__(self) -> str:
        return (
            f"SimulatorSnapshot(t={self.meta['t']}, "
            f"events={self.meta['events_fired']}, "
            f"{self.size_bytes} bytes)"
        )
