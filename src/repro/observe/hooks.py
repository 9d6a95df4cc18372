"""Tracing hooks, armed through the overlay layer (:mod:`repro.overlay`).

Tracing composes with every other overlay in any install order: it adds
recorders to the same hook points the perturbation, fault and lineage
layers use, so a jittered, faulted or lineage-recording system gains
recording without losing behaviour, and stays picklable.

What gets hooked, and why it cannot perturb the run:

* **Nodes** — ``start_miss`` / ``_finish_mshr`` (miss spans),
  ``send_msg`` / ``broadcast_msg`` (send instants + flow origins), and
  on token protocols ``invoke_persistent_request`` /
  ``_handle_activation`` / ``_send_transient`` (escalation marks).
  Every hook records synchronously, then calls the node's own method.
* **Sequencers** — ``_miss_complete`` records the exact per-miss
  latency into the recorder's histogram before completing the op.
* **Delivery** — the outermost delivery hook records each delivery
  with the kernel queue depth it saw, and drives the epoch time-series
  sampler, all inside the existing delivery event.
* **Links** — only for a :class:`~repro.observe.trace.TimelineRecorder`:
  an ``on_hop`` link hook records the serialization-slot span each
  crossing claimed.  Hooked links move the torus onto its per-hop
  reference fan-out, which posts the same events at the same times as
  the batched fast paths it replaces (the determinism goldens pin
  this), so every crossing is seen.  The default recorder counts
  crossings off the traffic meter instead, so it hooks no link and a
  system armed only with it keeps the stock fast paths.

No hook posts a kernel event, which is why an armed run's
``events_fired`` and results are bit-identical to an unarmed one.
"""

from __future__ import annotations

from repro.observe.trace import TimelineRecorder, TraceRecorder
from repro.overlay import DeliveryHook, arm_delivery, arm_link, arm_object


class TraceDelivery(DeliveryHook):
    """Outermost delivery hook: records each message as it arrives."""

    stage = "trace"
    __slots__ = ("sim", "node_id", "delivered", "sample_clock")

    def __init__(self, sim, node_id: int, recorder: TraceRecorder) -> None:
        self.sim = sim
        self.node_id = node_id
        self.delivered = recorder.delivered
        self.sample_clock = recorder.sample_clock if recorder.epoch_ns else None

    def deliver(self, msg) -> None:
        sim = self.sim
        now = sim._now
        # The queue depth: Simulator.pending_events, inline.
        self.delivered(
            now, self.node_id, msg, len(sim._heap) - sim._cancelled_pending
        )
        if self.sample_clock is not None:
            self.sample_clock(now)
        self.inner(msg)


def install_tracing(
    system,
    recorder: TraceRecorder | None = None,
    epoch_ns: float | None = None,
) -> TraceRecorder:
    """Arm ``system`` with tracing; returns the recorder.

    ``recorder`` defaults to a summary :class:`TraceRecorder`; pass a
    :class:`TimelineRecorder` to keep the raw timeline for export.
    ``epoch_ns`` arms the default recorder's time-series sampler.  The
    fault windows of ``system.faults`` are copied onto the trace for
    rendering, so install the fault injector first (the explorer's
    order).  Publishes the recorder as ``system.observe``.
    """
    if system.observe is not None:
        raise ValueError("tracing is already installed on this system")
    if recorder is None:
        recorder = TraceRecorder(epoch_ns=epoch_ns)
    recorder.bind(system)
    if system.faults is not None:
        recorder.note_fault_windows(system.faults.plan)

    for obj in (*system.nodes, *system.sequencers):
        arm_object(obj, _observe=recorder)
    network = system.network
    if isinstance(recorder, TimelineRecorder):
        for link in network.all_links():
            arm_link(network, link, on_hop=recorder.hop)
    for node_id in range(len(network._handlers)):
        arm_delivery(network, node_id, TraceDelivery(system.sim, node_id, recorder))

    system.observe = recorder
    return recorder


__all__ = ["install_tracing"]
