"""Statistics infrastructure shared by every subsystem.

Four small primitives cover everything the paper reports:

* :class:`Counter` — named integer counters (miss classes, message counts).
* :class:`TrafficMeter` — bytes transferred per category per link crossing,
  the quantity behind Figures 4b and 5b ("bytes per miss").
* :class:`LatencyTracker` — sample mean/max plus an exponentially weighted
  moving average, which TokenB uses for its reissue timeout ("twice the
  recent average miss latency", Section 4.2).
* :class:`Histogram` — log-bucketed sample distribution (p50/p90/p99/max)
  for the tail behaviour the mean/max trackers hide; histograms merge
  associatively, so per-shard campaign telemetry folds into one
  distribution without reordering samples.

:func:`ratio` is the shared zero-safe reduction for counter pairs (the
destination-set predictor's hit/coverage/overshoot rates, report
renderers).
"""

from __future__ import annotations

import math
from collections import defaultdict


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with the empty case pinned to 0.0.

    The standard reduction for counter pairs (hits/lookups, covered
    responders/responders, ...) used by the destination-set predictor
    scorecard and the report renderers.
    """
    return numerator / denominator if denominator else 0.0


class Counter:
    """A bag of named integer counters.

    ``add`` is on the per-message hot path: it performs a single
    defaultdict increment and allocates nothing.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: defaultdict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counter({inner})"


class TrafficMeter:
    """Accumulates interconnect traffic in bytes, by message category.

    A message that crosses ``h`` links contributes ``h * size_bytes``, which
    matches the paper's per-link bandwidth accounting.  Categories mirror
    the figure legends, e.g. ``"request"``, ``"data"``, ``"ack"``,
    ``"reissue"``, ``"persistent"``, ``"writeback"``, ``"forward"``,
    ``"invalidation"``, ``"token"``.
    """

    __slots__ = ("_bytes", "_messages")

    def __init__(self) -> None:
        self._bytes: defaultdict[str, int] = defaultdict(int)
        self._messages: defaultdict[str, int] = defaultdict(int)

    def record_crossings(self, category: str, size_bytes: int, count: int) -> None:
        """Record ``count`` link crossings of same-sized messages.

        The torus's up-front (unlimited-bandwidth) broadcast calls it
        once per broadcast; ``Link.cross``, ``Link.occupy`` and the
        batched multicast fan-out make the same increments inline.
        """
        self._bytes[category] += size_bytes * count
        self._messages[category] += count

    def bytes_by_category(self) -> dict[str, int]:
        return dict(self._bytes)

    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def crossings_by_category(self) -> dict[str, int]:
        return dict(self._messages)


class Histogram:
    """Log-bucketed sample distribution with mergeable state.

    Buckets subdivide each power-of-two octave into
    :data:`SUBBUCKETS` geometric sub-buckets (relative bucket width
    ~19%, so reported percentiles are within one bucket width of the
    exact order statistic).  Bucket indices come from
    :func:`math.frexp` — pure integer arithmetic on the float's
    exponent, so bucketing is exact and platform-independent.

    Merging two histograms just adds bucket counts, which makes the
    merge associative and commutative: campaign shards can fold their
    per-scenario histograms in any grouping and arrive at the same
    distribution (the hypothesis property test pins this).
    """

    #: Geometric sub-buckets per power-of-two octave.
    SUBBUCKETS = 4

    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    @classmethod
    def _index(cls, value: float) -> int:
        # value = m * 2**e with m in [0.5, 1): normalize to [1, 2) and
        # slice that octave into SUBBUCKETS linear steps.
        mantissa, exponent = math.frexp(value)
        sub = int((mantissa * 2.0 - 1.0) * cls.SUBBUCKETS)
        if sub == cls.SUBBUCKETS:  # guard the m -> 1.0 rounding edge
            sub = cls.SUBBUCKETS - 1
        return (exponent - 1) * cls.SUBBUCKETS + sub

    @classmethod
    def _lower_bound(cls, index: int) -> float:
        octave, sub = divmod(index, cls.SUBBUCKETS)
        return math.ldexp(1.0 + sub / cls.SUBBUCKETS, octave)

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value``."""
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self._count += count
        self._sum += value * count
        if value > self._max:
            self._max = value
        if value == 0:
            self._zeros += count
            return
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + count

    @property
    def count(self) -> int:
        return self._count

    @property
    def max(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Lower bound of the bucket holding the ``p``-th percentile.

        ``p`` is in [0, 100].  Returns 0.0 on an empty histogram.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            return 0.0
        if p == 100:
            # The maximum is tracked exactly; reporting its bucket's
            # lower bound would understate it by up to a bucket width.
            return self._max
        # Rank of the order statistic (1-based, ceiling), zeros first.
        rank = max(1, math.ceil(self._count * p / 100.0))
        if rank <= self._zeros:
            return 0.0
        seen = self._zeros
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._lower_bound(index)
        return self._max

    def percentiles(self) -> dict[str, float]:
        """The standard report slice: p50/p90/p99 plus exact mean/max."""
        return {
            "count": self._count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self._max,
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns self."""
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zeros += other._zeros
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        return self

    def to_dict(self) -> dict:
        """JSON-safe snapshot (bucket keys become strings)."""
        return {
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            "zeros": self._zeros,
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls()
        hist._buckets = {int(k): v for k, v in payload["buckets"].items()}
        hist._zeros = payload["zeros"]
        hist._count = payload["count"]
        hist._sum = payload["sum"]
        hist._max = payload["max"]
        return hist

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self._count}, p50={self.percentile(50):.1f}, "
            f"p99={self.percentile(99):.1f}, max={self._max:.1f})"
        )


class LatencyTracker:
    """Latency samples with mean, max, and an EWMA.

    The EWMA seed matters for TokenB: before any miss completes, the
    sequencer needs a plausible average miss latency to size its first
    timeout, so the tracker starts from ``initial`` (default 200 ns,
    roughly one memory round-trip in the Table 1 system).
    """

    __slots__ = ("_count", "_sum", "_max", "_ewma", "_alpha")

    def __init__(self, initial: float = 200.0, alpha: float = 0.2) -> None:
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._ewma = initial
        self._alpha = alpha

    def record(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        self._ewma += self._alpha * (value - self._ewma)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def ewma(self) -> float:
        return self._ewma
