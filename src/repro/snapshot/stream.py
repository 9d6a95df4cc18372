"""Picklable operation streams for snapshot-able systems.

Sequencers consume plain iterators.  List iterators pickle (position
included), but *generators* — what :meth:`WorkloadProgram.streams`
hands out for memory-bounded streaming — do not.
:class:`ReplayableStream` closes the gap: it wraps a zero-argument
*factory* that rebuilds the underlying iterator (typically a
``functools.partial`` over :meth:`WorkloadProgram.iter_stream`, pure in
``(program, proc, seed)``) and counts every op it yields.  Its pickled
form is just ``(factory, consumed)`` — a program reference and an
integer.

Replay is lazy: unpickling stores those two values and nothing else,
and the first read calls the factory and fast-forwards past the
consumed prefix.  A snapshot restore therefore costs O(state), not
O(ops consumed), and a restored stream that is never read again — the
fork path feeds every drained sequencer a fresh tail — is never
regenerated.  Determinism of the workload generators guarantees the
regenerated tail matches what the original would have produced.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from repro.processor.sequencer import MemoryOp


class ReplayableStream:
    """An iterator that can be pickled mid-consumption.

    ``factory`` must be a picklable zero-argument callable returning a
    *fresh* iterator over the same operation sequence every time it is
    called — the replay soundness condition.  All workload generation in
    this repo is a pure function of ``(spec, proc, seed)``, so a partial
    over any generator entry point qualifies.

    The factory is called on the first read, not on construction, and
    that read skips the first ``consumed`` ops.  A factory that yields
    fewer than ``consumed`` ops breaks the soundness condition and makes
    the first read raise :class:`RuntimeError`: a bare
    ``StopIteration`` would read as a normal end of stream to the
    sequencer and silently truncate the workload.
    """

    __slots__ = ("_factory", "_consumed", "_it")

    def __init__(
        self, factory: Callable[[], Iterator[MemoryOp]], consumed: int = 0
    ) -> None:
        self._factory = factory
        self._consumed = consumed
        self._it: Iterator[MemoryOp] | None = None

    def __iter__(self) -> "ReplayableStream":
        return self

    def __next__(self) -> MemoryOp:
        it = self._it
        if it is None:
            it = self._it = self._replay()
        op = next(it)
        self._consumed += 1
        return op

    def _replay(self) -> Iterator[MemoryOp]:
        """A fresh iterator positioned past the consumed prefix."""
        it = iter(self._factory())
        consumed = self._consumed
        skipped = sum(1 for _ in itertools.islice(it, consumed))
        if skipped < consumed:
            raise RuntimeError(
                f"replay of a stream that had consumed {consumed} ops ended "
                f"after {skipped}, {consumed - skipped} short: its factory "
                "does not regenerate the same sequence"
            )
        return it

    def __reduce__(self):
        return (type(self), (self._factory, self._consumed))

    @property
    def consumed(self) -> int:
        """Ops delivered so far (== regeneration fast-forward depth)."""
        return self._consumed
