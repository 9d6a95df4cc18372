"""Trainable destination-set predictors (the TokenM prediction layer).

Each predictor guesses, per block, which nodes a transient request must
reach to find data and tokens.  Guessing is free of correctness
obligations — a wrong set costs one reissue (and eventually the
persistent-request mechanism), never safety — so the predictors here are
deliberately simple table-based learners in the style of the
destination-set prediction literature:

* :class:`OwnerPredictor` — remember the node believed to hold the owner
  token; aim requests at it alone.  Minimal bandwidth, extra reissues
  whenever data is spread across sharers.
* :class:`BroadcastIfSharedPredictor` — aim at the remembered owner
  while a block looks private or migratory; the moment sharing is
  observed, give up and predict broadcast.  Broadcast's latency on
  contended data, owner-unicast bandwidth on private data.
* :class:`GroupPredictor` — keep a decaying saturating counter per
  recently-active node and aim at every node still above zero.  The
  middle ground: multicast to the probable sharing group.

Training draws on every coherence event a node observes for free:

* **token responses it receives** — the sender just held the block;
* **token responses it sends** — whoever we yield tokens to (a
  requester, the home on eviction, a persistent initiator) is the next
  holder; an all-token handoff means they are the *only* holder;
* **transient requests it observes** — broadcast (and mispredict-
  fallback) GETS/GETM traffic names the nodes actively touching a
  block, and an exclusive request names the node about to hold every
  token.  This is the self-correcting loop: a misprediction's broadcast
  reissue retrains the whole system about where the block went;
* **persistent-request activations** — every token in the system is
  about to flow to the activation's initiator.

All predictor state lives in a bounded, LRU-evicted
:class:`~repro.predict.table.PredictionTable`; all outcomes are
reported through the shared :class:`~repro.sim.stats.Counter` under
``predict_*`` names (hits, coverage, overshoot, evictions), so every
sweep and campaign record carries the predictor's scorecard.
"""

from __future__ import annotations

from repro.predict.table import PredictionTable
from repro.sim.stats import Counter, ratio
from repro.config import SystemConfig


class Predictor:
    """Common interface: train on observations, predict destination sets.

    ``predict`` returns the guessed *holder* set for a block — the
    protocol adds the home node and removes itself — or ``None`` when
    the predictor has nothing (or explicitly wants a broadcast).  The
    four ``train_*`` entry points count trainings and delegate to the
    per-predictor ``_on_*`` hooks (no-ops by default).
    """

    name = "?"

    def __init__(
        self, config: SystemConfig, node_id: int, counters: Counter
    ) -> None:
        self.node_id = node_id
        self.counters = counters
        self.history_depth = config.predictor_history_depth
        self.table = PredictionTable(config.predictor_table_entries, counters)

    # -- training ------------------------------------------------------

    def train_request(self, block: int, requester: int, exclusive: bool) -> None:
        """A transient GETS/GETM from ``requester`` was observed here.

        An exclusive request (GETM) means ``requester`` is about to hold
        every token of the block.
        """
        self.counters.add("predict_training")
        self._on_request(block, requester, exclusive)

    def train_response_received(
        self, block: int, src: int, owner_token: bool
    ) -> None:
        """Tokens arrived from ``src``.  Without the owner token, ``src``
        answered as the owner and kept ownership; with it, ``src`` gave
        the block up."""
        self.counters.add("predict_training")
        self._on_response_received(block, src, owner_token)

    def train_response_sent(
        self, block: int, dst: int, owner_token: bool, all_tokens: bool
    ) -> None:
        """This node yielded tokens to ``dst`` — the one observation a
        cache gets of a block leaving it.  ``all_tokens`` marks a full
        handoff: ``dst`` (or its memory, for evictions to the home) is
        now the sole holder."""
        self.counters.add("predict_training")
        self._on_response_sent(block, dst, owner_token, all_tokens)

    def train_activation(self, block: int, requester: int) -> None:
        """A persistent request activated: all tokens flow to
        ``requester``, present and future."""
        self.counters.add("predict_training")
        self._on_activation(block, requester)

    def _on_request(self, block: int, requester: int, exclusive: bool) -> None:
        pass

    def _on_response_received(
        self, block: int, src: int, owner_token: bool
    ) -> None:
        pass

    def _on_response_sent(
        self, block: int, dst: int, owner_token: bool, all_tokens: bool
    ) -> None:
        pass

    def _on_activation(self, block: int, requester: int) -> None:
        pass

    # -- prediction ----------------------------------------------------

    def predict(self, block: int) -> frozenset[int] | None:
        self.counters.add("predict_lookup")
        predicted = self._predict(block)
        if not predicted:
            self.counters.add("predict_cold")
            return None
        return predicted

    def _predict(self, block: int) -> frozenset[int] | None:
        raise NotImplementedError

    # -- scoring -------------------------------------------------------

    def record_outcome(
        self, predicted: frozenset[int], responders, reissued: bool
    ) -> None:
        """Score one finished transaction whose first attempt was a
        predicted multicast to ``predicted``.

        ``responders`` is the set of nodes whose token responses this
        node absorbed over the whole transaction, reissue rounds
        included — holders a reissue had to find are exactly the ones
        the prediction failed to cover.  ``reissued`` is True when the
        predicted set did not suffice (the miss needed a broadcast
        reissue or the persistent path).
        """
        counters = self.counters
        responders = set(responders)
        counters.add("predict_miss" if reissued else "predict_hit")
        counters.add("predict_predicted_nodes", len(predicted))
        counters.add("predict_responders", len(responders))
        counters.add("predict_responders_covered", len(responders & predicted))
        counters.add("predict_overshoot_nodes", len(predicted - responders))


class _OwnerEntry:
    __slots__ = ("owner",)

    def __init__(self) -> None:
        self.owner: int | None = None


class OwnerPredictor(Predictor):
    """Aim every request at the node believed to hold the owner token."""

    name = "owner"

    def _entry(self, block: int) -> _OwnerEntry:
        return self.table.get_or_create(block, _OwnerEntry)

    def _on_request(self, block: int, requester: int, exclusive: bool) -> None:
        if exclusive:
            self._entry(block).owner = requester

    def _on_response_received(
        self, block: int, src: int, owner_token: bool
    ) -> None:
        if owner_token:
            # Ownership just moved *here*; where it goes next is
            # unknown, and a stale guess would unicast into silence.
            # (Only existing entries are cleared — an empty guess is
            # not worth an LRU eviction.)
            entry = self.table.get(block)
            if entry is not None:
                entry.owner = None
        else:
            # src answered with data but kept the owner token.
            self._entry(block).owner = src

    def _on_response_sent(
        self, block: int, dst: int, owner_token: bool, all_tokens: bool
    ) -> None:
        if owner_token or all_tokens:
            self._entry(block).owner = dst

    def _on_activation(self, block: int, requester: int) -> None:
        self._entry(block).owner = requester

    def _predict(self, block: int) -> frozenset[int] | None:
        entry = self.table.get(block)
        if entry is None or entry.owner is None:
            return None
        return frozenset((entry.owner,))


class _SharedEntry:
    __slots__ = ("owner", "shared")

    def __init__(self) -> None:
        self.owner: int | None = None
        self.shared = False


class BroadcastIfSharedPredictor(Predictor):
    """Owner-unicast while a block looks private; broadcast once shared.

    Sharing is observed as a read request arriving while a *different*
    node is believed to own the block; exclusivity (a GETM, an all-token
    handoff, an activation) resets the block to unshared.
    """

    name = "broadcast-if-shared"

    def _entry(self, block: int) -> _SharedEntry:
        return self.table.get_or_create(block, _SharedEntry)

    def _on_request(self, block: int, requester: int, exclusive: bool) -> None:
        if exclusive:
            entry = self._entry(block)
            entry.owner = requester
            entry.shared = False
            return
        # A read request only trains an *existing* entry (a second
        # reader while someone owns the block = sharing); allocating
        # for it would evict trained entries in favor of placeholders
        # that can never predict.
        entry = self.table.get(block)
        if entry is not None and entry.owner is not None and entry.owner != requester:
            entry.shared = True

    def _on_response_received(
        self, block: int, src: int, owner_token: bool
    ) -> None:
        if owner_token:
            entry = self.table.get(block)
            if entry is not None:
                entry.owner = None  # ownership moved here
        else:
            self._entry(block).owner = src

    def _on_response_sent(
        self, block: int, dst: int, owner_token: bool, all_tokens: bool
    ) -> None:
        if all_tokens:
            entry = self._entry(block)
            entry.owner = dst
            entry.shared = False
        elif owner_token:
            self._entry(block).owner = dst

    def _on_activation(self, block: int, requester: int) -> None:
        entry = self._entry(block)
        entry.owner = requester
        entry.shared = False

    def _predict(self, block: int) -> frozenset[int] | None:
        entry = self.table.get(block)
        if entry is None or entry.shared or entry.owner is None:
            return None  # cold or shared: broadcast
        return frozenset((entry.owner,))


class _GroupEntry:
    __slots__ = ("counts", "trainings")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.trainings = 0


#: Saturation ceiling for the group predictor's per-node counters.
_GROUP_COUNTER_MAX = 3


class GroupPredictor(Predictor):
    """Multicast to the decaying set of recently active nodes.

    Each entry keeps a small saturating counter per node; every
    ``history_depth`` trainings of that entry, all counters decay by one
    and dead nodes drop out — so the predicted group tracks the
    *current* actors on a block, not everyone who ever touched it.
    Exclusivity events (GETM, all-token handoff, activation) collapse
    the group to the new sole holder.
    """

    name = "group"

    def _entry(self, block: int) -> _GroupEntry:
        return self.table.get_or_create(block, _GroupEntry)

    def _add(self, block: int, node: int) -> None:
        entry = self._entry(block)
        counts = entry.counts
        entry.trainings += 1
        if entry.trainings >= self.history_depth:
            # Decay first so the observation being trained survives the
            # round it arrives in.
            entry.trainings = 0
            for member in list(counts):
                counts[member] -= 1
                if counts[member] <= 0:
                    del counts[member]
        current = counts.get(node, 0)
        if current < _GROUP_COUNTER_MAX:
            counts[node] = current + 1

    def _reset_to(self, block: int, node: int) -> None:
        entry = self._entry(block)
        entry.counts = {node: _GROUP_COUNTER_MAX}
        entry.trainings = 0

    def _on_request(self, block: int, requester: int, exclusive: bool) -> None:
        if exclusive:
            # Every other holder is about to lose its tokens.
            self._reset_to(block, requester)
        else:
            self._add(block, requester)

    def _on_response_received(
        self, block: int, src: int, owner_token: bool
    ) -> None:
        self._add(block, src)

    def _on_response_sent(
        self, block: int, dst: int, owner_token: bool, all_tokens: bool
    ) -> None:
        if all_tokens:
            self._reset_to(block, dst)
        else:
            self._add(block, dst)

    def _on_activation(self, block: int, requester: int) -> None:
        self._reset_to(block, requester)

    def _predict(self, block: int) -> frozenset[int] | None:
        entry = self.table.get(block)
        if entry is None or not entry.counts:
            return None
        return frozenset(entry.counts)


#: Registry: ``SystemConfig.predictor`` value -> predictor class.  The
#: names are validated by :meth:`repro.config.SystemConfig.validate`
#: against :data:`repro.config.PREDICTORS`.
PREDICTORS: dict[str, type[Predictor]] = {
    OwnerPredictor.name: OwnerPredictor,
    BroadcastIfSharedPredictor.name: BroadcastIfSharedPredictor,
    GroupPredictor.name: GroupPredictor,
}


def build_predictor(
    config: SystemConfig, node_id: int, counters: Counter
) -> Predictor:
    """The predictor ``config`` asks for, wired to the shared counters."""
    try:
        cls = PREDICTORS[config.predictor]
    except KeyError:
        raise ValueError(
            f"unknown predictor {config.predictor!r} "
            f"(known: {sorted(PREDICTORS)})"
        ) from None
    return cls(config, node_id, counters)


def prediction_rates(counters: dict[str, int]) -> dict[str, float]:
    """Hit/coverage/overshoot rates from a run's counter dict.

    * ``hit_rate`` — predicted multicasts satisfied without a reissue;
    * ``coverage`` — fraction of actual responders the predicted sets
      contained;
    * ``overshoot`` — predicted-but-silent nodes per multicast (wasted
      request bandwidth);
    * ``table_evictions`` — capacity-driven table turnover.
    """
    multicasts = counters.get("predict_hit", 0) + counters.get("predict_miss", 0)
    return {
        "multicasts": float(multicasts),
        "hit_rate": ratio(counters.get("predict_hit", 0), multicasts),
        "coverage": ratio(
            counters.get("predict_responders_covered", 0),
            counters.get("predict_responders", 0),
        ),
        "overshoot": ratio(
            counters.get("predict_overshoot_nodes", 0), multicasts
        ),
        "table_evictions": float(counters.get("predict_table_eviction", 0)),
    }
