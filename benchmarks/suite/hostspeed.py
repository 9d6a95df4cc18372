"""The host's speed, gauged between the units of every timed pass.

The benchmark runs on a few cores of a shared host, whose speed moves by
a quarter or more over tens of seconds, as long as a whole run: a pass's
wall time alone says as much about the neighbours as about the program.
So an untraced pass runs a fixed reference loop before each of its units
(one simulation, one fork family, one campaign stage) and once after the
last, and the harness scales the pass's times by ``NOMINAL_S`` over the
loop's mean time in that pass.  A scaled time is what the pass would take
on a host that runs the loop in ``NOMINAL_S``; a change to the program
moves it, and a slow spell of the host mostly does not.

The loop is the benchmark's own code and does what the simulator's hot
path does (pop and push a heap of tuples, allocate small slotted
messages, call methods, update dicts), with the cycle collector paused
so the program's heap cannot slow it.  Traced passes and the reference
recording are not scaled.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

clock = time.perf_counter

#: Iterations of one reference loop (about 50 ms on the development host).
ITERATIONS = 40_000
#: The loop's time on a quiet development host; scaled times are
#: seconds at this speed.
NOMINAL_S = 0.05


class _Message:
    __slots__ = ("kind", "block", "sender")

    def __init__(self, kind: int, block: int, sender: int):
        self.kind = kind
        self.block = block
        self.sender = sender


class _Node:
    __slots__ = ("lines", "handled")

    def __init__(self):
        self.lines: dict[int, int] = {}
        self.handled = 0

    def handle(self, message: _Message, now: int) -> int:
        self.handled += 1
        old = self.lines.get(message.block, 0)
        self.lines[message.block] = old ^ (now + message.kind)
        return old


def reference_loop(iterations: int = ITERATIONS) -> int:
    """A fixed event loop over 16 nodes; returns a checksum."""
    nodes = [_Node() for _ in range(16)]
    heap = [(i, i, _Message(i & 3, i, i & 15)) for i in range(64)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    seq = len(heap)
    checksum = 0
    for _ in range(iterations):
        now, _, message = pop(heap)
        old = nodes[(message.sender + seq) & 15].handle(message, now)
        checksum = (checksum + old) & 0xFFFFFFFF
        seq += 1
        push(heap, (now + (old & 7) + 1, seq,
                    _Message(seq & 3, seq & 255, message.block & 15)))
    return checksum


def no_gauge() -> None:
    """The gauge of a pass that is not scaled."""


class Gauge:
    """Times the reference loop each time it is called, for one pass."""

    def __init__(self):
        self.samples: list[float] = []
        #: Wall time spent in the gauge, to take off the pass's wall time.
        self.spent = 0.0

    def __call__(self) -> None:
        t0 = clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = clock()
            reference_loop()
            self.samples.append(clock() - t1)
        finally:
            if enabled:
                gc.enable()
            self.spent += clock() - t0

    def slowdown(self) -> float:
        """How much slower than nominal the host ran during the pass."""
        return statistics.mean(self.samples) / NOMINAL_S
