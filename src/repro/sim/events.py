"""Event objects for the discrete-event simulation kernel.

The kernel (see :mod:`repro.sim.kernel`) orders events by ``(time, seq)``
where ``seq`` is a monotonically increasing insertion counter.  The counter
makes the simulation fully deterministic: two events scheduled for the same
instant always fire in the order they were scheduled.

Only *cancellable* schedules materialize an :class:`Event` handle; the
kernel's fire-and-forget fast path (:meth:`repro.sim.kernel.Simulator.post`)
pushes a raw ``(time, seq, callback, args)`` tuple instead, so the heap
compares plain floats and ints at C speed rather than dispatching into a
Python ``__lt__``.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A single cancellable scheduled callback.

    Attributes:
        time: Absolute simulation time (ns) at which the event fires.
        seq: Insertion sequence number used as a deterministic tie-break.
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to ``callback``.
        cancelled: Cancelled events stay in the heap but are skipped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
        sim: "Any" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{state})"
