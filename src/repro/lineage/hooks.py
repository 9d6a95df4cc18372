"""Custody hooks, armed through the overlay layer (:mod:`repro.overlay`).

Installing the recorder moves every node onto its ``Hooked<Protocol>``
class and hands it the recorder as ``_lineage``; the hook methods record
each custody event (mint, send, receive, merge, transaction done,
persistent-request and reissue landmarks), then fall through into the
untouched protocol code.  A system that never installs the recorder
runs byte-identical code — no flag checks anywhere on the hot path —
and an armed system still pickles, so lineage runs snapshot and fork.
"""

from __future__ import annotations

from repro.overlay import arm_object

from .record import LineageRecorder


def install_recorder(system) -> LineageRecorder:
    """Arm every node of ``system`` with the custody hooks.

    Returns the new shared recorder and publishes it as
    ``system.lineage``.  Token protocols only — custody chains are
    a token-counting notion; the non-token baselines have no tokens to
    trace.
    """
    if system.ledger is None:
        raise ValueError(
            f"lineage recorder requires a token protocol, not "
            f"{system.config.protocol!r}"
        )
    recorder = LineageRecorder(
        total_tokens=system.config.total_tokens,
        n_nodes=system.config.n_procs,
    )
    for node in system.nodes:
        arm_object(node, _lineage=recorder)
    system.lineage = recorder
    return recorder


__all__ = ["install_recorder"]
