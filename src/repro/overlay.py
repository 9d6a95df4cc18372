"""The overlay layer: composable, picklable hooks on a built system.

Perturbation (:mod:`repro.testing.perturb`), fault injection
(:mod:`repro.faults`), tracing (:mod:`repro.observe`) and token lineage
(:mod:`repro.lineage`) all arm a built system through the three hook
points here.  Each overlay also publishes itself on the system, once
(a second install raises): ``system.lineage``, ``system.perturb``,
``system.faults`` and ``system.observe``.  The system thus carries its
whole run: an armed system pickles (snapshots and forks) like a stock
one, counters and buffers included, and overlays find each other on
it — the fault injector reports drops into ``system.lineage``.  The
hooks compose in any install order; the explorer installs lineage,
mutant, perturbation, faults, then tracing, and lineage must precede
faults for drops to be reported.  A system nobody arms runs the stock
classes and fast paths unchanged.

* **Links.**  :func:`arm_link` fills ``Link``'s one ``_hooks`` slot with
  a :class:`LinkHooks` chain and moves the link onto :class:`HookedLink`,
  whose ``cross`` runs the chain on every crossing — one call per armed
  hook, in the crossing's own frame.  The first hooked link switches its
  torus from the batched and up-front broadcast fan-outs to one
  ``Link.cross`` per hop, so every hooked link sees its traffic.
* **Nodes and sequencers.**  :func:`arm_object` moves an object onto
  ``Hooked<Class>`` (one cached class per base, :func:`hooked_class`)
  and sets the recorders its hook methods consult.  The classes are
  published here under their names, so pickle finds them in the
  process that built them.
* **Delivery.**  :func:`arm_delivery` puts a :class:`DeliveryHook` into a
  node's delivery chain at its place in :data:`DELIVERY_ORDER`, whatever
  the order hooks were armed in.
"""

from __future__ import annotations

from heapq import heappush

from repro.interconnect.link import Link
from repro.sim.kernel import Simulator

# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------


class LinkHooks:
    """The hooks armed on one link: one optional callable per stage.

    In chain order:

    * ``drop(link, msg) -> bool`` — asked before a crossing; True loses
      the message (it never occupies the link);
    * ``hold(start) -> start`` — may push the serialization start later;
    * ``stretch(start, serialization) -> serialization``;
    * ``delay(link, busy_until) -> arrival`` — claims the slot until a
      (possibly later) ``busy_until`` and returns the arrival time;
    * ``on_hop(start, end, name, category, size)`` — sees the claimed
      slot, from when the message reached the link to when it freed.
    """

    __slots__ = ("drop", "hold", "stretch", "delay", "on_hop")

    def __init__(self) -> None:
        self.drop = self.hold = self.stretch = self.delay = self.on_hop = None


class HookedLink(Link):
    """A link whose crossings run its :class:`LinkHooks` chain.

    With no hook in a stage the arithmetic is ``Link.cross``'s, float op
    for float op, so an armed link moves no timestamp its hooks do not
    move.
    """

    __slots__ = ()

    def cross(self, msg, callback, args):
        """``Link.cross`` with the chain: drop, hold, stretch, delay, the
        traffic count, ``on_hop`` and the post, in one frame.  A dropped
        message claims no slot, counts no traffic and posts nothing."""
        hooks = self._hooks
        if hooks.drop is not None and hooks.drop(self, msg):
            return
        sim = self.sim
        now = sim._now
        free = self._free_at
        start = now if now >= free else free
        claimed = start if hooks.hold is None else hooks.hold(start)
        size = msg.size_bytes
        if self.bandwidth is not None:
            serialization = size / self.bandwidth
        else:
            serialization = 0.0
        if hooks.stretch is not None:
            serialization = hooks.stretch(claimed, serialization)
        busy_until = claimed + serialization
        if hooks.delay is None:
            self._free_at = busy_until
            arrival = busy_until + self.latency
        else:
            arrival = hooks.delay(self, busy_until)
        self._crossings += 1
        category = msg.category
        traffic = self.traffic
        if traffic is not None:
            traffic._bytes[category] += size
            traffic._messages[category] += 1
        if hooks.on_hop is not None:
            hooks.on_hop(start, self._free_at, self.name, category, size)
        if type(sim) is Simulator:
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, (now + (arrival - now), seq, callback, args))
        else:
            sim.post_at(arrival, callback, *args)


def arm_link(network, link: Link, **hooks) -> None:
    """Add ``hooks`` (stage name -> callable) to ``link``'s chain.

    The first hook on any link of ``network`` switches the network onto
    its per-hop reference fan-out.  A stage holds one hook.
    """
    if not isinstance(link, HookedLink):
        link._hooks = LinkHooks()
        link.__class__ = HookedLink
        network._hooked = True
    chain = link._hooks
    for stage, hook in hooks.items():
        if getattr(chain, stage) is not None:
            raise ValueError(f"link {link.name} already has a {stage} hook")
        setattr(chain, stage, hook)


# ----------------------------------------------------------------------
# Nodes and sequencers
# ----------------------------------------------------------------------

#: Token-carrying message types (the custody-relevant traffic).
_TOKEN_MTYPES = ("TOKEN_DATA", "TOKEN_ONLY")


def _landmark(node, name: str, block: int, peer: int = -1) -> None:
    """A protocol landmark: a trace mark and a custody-chain note."""
    now = node.sim._now
    if node._observe is not None:
        node._observe.mark(now, node.node_id, name, block)
    if node._lineage is not None:
        node._lineage.note(block, name, node.node_id, now, peer)


def _hook_namespace(cls: type) -> dict:
    """The hook methods of ``Hooked<cls>``: one per method ``cls`` has.

    Each captures ``cls``'s implementation as a default argument — what
    a mixin's ``super()`` would resolve to — records into whichever of
    ``_observe`` / ``_lineage`` / ``_escalation`` the instance carries,
    and falls through.
    """
    namespace: dict = {"_observe": None, "_lineage": None, "_escalation": None}

    def hook(fn):
        if hasattr(cls, fn.__name__):
            namespace[fn.__name__] = fn
        return fn

    # -- sequencers: exact per-miss latency -----------------------------

    @hook
    def _miss_complete(self, op, block, version, issue_version, started,
                       _base=getattr(cls, "_miss_complete", None)):
        trace = self._observe
        if trace is not None:
            trace.miss_latency.record(self.sim._now - started)
        _base(self, op, block, version, issue_version, started)

    # -- every protocol node ----------------------------------------------

    @hook
    def start_miss(self, block, for_write, on_complete,
                   _base=getattr(cls, "start_miss", None)):
        trace = self._observe
        if trace is not None and self.mshrs.get(block) is None:
            trace.miss_started(self.sim._now, self.node_id, block, for_write)
        return _base(self, block, for_write, on_complete)

    @hook
    def _finish_mshr(self, entry, _base=getattr(cls, "_finish_mshr", None)):
        trace = self._observe
        if trace is not None:
            trace.miss_finished(self.sim._now, self.node_id, entry.block)
        _base(self, entry)

    @hook
    def send_msg(self, msg, _base=getattr(cls, "send_msg", None)):
        trace = self._observe
        if trace is not None:
            trace.sent(self.sim._now, self.node_id, msg)
        lineage = self._lineage
        if lineage is not None and msg.mtype in _TOKEN_MTYPES:
            lineage.sent(
                msg.block, self.node_id, msg.dst, msg.tokens,
                msg.owner_token, msg.msg_id, self.sim._now,
            )
        _base(self, msg)

    @hook
    def broadcast_msg(self, msg, include_self=False,
                      _base=getattr(cls, "broadcast_msg", None)):
        trace = self._observe
        if trace is not None:
            trace.sent(self.sim._now, self.node_id, msg)
        _base(self, msg, include_self)

    @hook
    def _issue_transaction(self, entry,
                           _base=getattr(cls, "_issue_transaction", None)):
        _base(self, entry)
        escalation = self._escalation
        if escalation is not None:
            escalation(self, entry)

    # -- token protocols: starvation-path landmarks ----------------------

    @hook
    def invoke_persistent_request(
        self, entry, _base=getattr(cls, "invoke_persistent_request", None)
    ):
        fresh = entry.block not in self._my_persistent
        _base(self, entry)
        if fresh and entry.block in self._my_persistent:
            _landmark(self, "persistent-request", entry.block)

    @hook
    def _handle_activation(self, msg,
                           _base=getattr(cls, "_handle_activation", None)):
        if msg.requester == self.node_id:
            _landmark(self, "persistent-activate", msg.block, msg.src)
        _base(self, msg)

    @hook
    def _send_transient(self, entry, category,
                        _base=getattr(cls, "_send_transient", None)):
        if category == "reissue":
            _landmark(self, "reissue", entry.block)
        _base(self, entry, category)

    # -- token protocols: custody movements (lineage only) ----------------

    @hook
    def _handle_tokens(self, msg, _base=getattr(cls, "_handle_tokens", None)):
        lineage = self._lineage
        if lineage is not None:
            lineage.received(
                msg.block, self.node_id, msg.tokens, msg.owner_token,
                msg.msg_id, self.sim._now,
            )
        _base(self, msg)

    @hook
    def _absorb_into_cache(self, msg,
                           _base=getattr(cls, "_absorb_into_cache", None)):
        lineage = self._lineage
        if lineage is not None:
            lineage.merged(
                msg.block, self.node_id, "cache", msg.tokens,
                msg.owner_token, self.sim._now,
            )
        _base(self, msg)

    @hook
    def _absorb_into_memory(self, msg,
                            _base=getattr(cls, "_absorb_into_memory", None)):
        lineage = self._lineage
        if lineage is not None:
            lineage.merged(
                msg.block, self.node_id, "memory", msg.tokens,
                msg.owner_token, self.sim._now,
            )
        _base(self, msg)

    @hook
    def _memory_state(self, block, _base=getattr(cls, "_memory_state", None)):
        lineage = self._lineage
        if lineage is None:
            return _base(self, block)
        fresh = block not in self._memory
        mem = _base(self, block)
        if fresh:
            lineage.mint(block, self.node_id, self.sim._now)
        return mem

    @hook
    def _complete_token_transaction(
        self, entry, _base=getattr(cls, "_complete_token_transaction", None)
    ):
        lineage = self._lineage
        if lineage is not None:
            lineage.transaction_complete(
                entry.block, self.node_id, self.sim._now
            )
        _base(self, entry)

    return namespace


#: base class -> its hooked subclass.
_HOOKED: dict[type, type] = {}


def hooked_class(cls: type) -> type:
    """The cached ``Hooked<cls>`` single-base subclass of ``cls``.

    Published in this module under its name, so pickle resolves it.
    """
    if cls.__module__ == __name__:
        return cls  # already hooked
    sub = _HOOKED.get(cls)
    if sub is None:
        name = f"Hooked{cls.__name__}"
        namespace = _hook_namespace(cls)
        namespace.update(__module__=__name__, __qualname__=name)
        sub = type(name, (cls,), namespace)
        _HOOKED[cls] = sub
        globals()[name] = sub
    return sub


def arm_object(obj, **recorders) -> None:
    """Move a node or sequencer onto its hooked class and set ``recorders``.

    ``recorders`` names any of ``_observe``, ``_lineage`` and
    ``_escalation``.  A node binds its handler table at construction
    (``ProtocolNode._bind_handlers``), so it is rebound after the move
    and dispatches to the hooked class's methods.
    """
    for attr, recorder in recorders.items():
        if getattr(obj, attr, None) is not None:
            raise ValueError(f"{type(obj).__name__} already has {attr} armed")
    cls = type(obj)
    hooked = hooked_class(cls)
    if hooked is not cls:
        obj.__class__ = hooked
        rebind = getattr(obj, "_bind_handlers", None)
        if rebind is not None:
            rebind()
    for attr, recorder in recorders.items():
        setattr(obj, attr, recorder)


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------

#: Delivery-chain stages, outermost first.  Tracing sees every message
#: as it arrives; corruption and drop/dup decide whether it survives
#: (and drop/dup re-delivers duplicates into the rest of the chain); a
#: pause gate holds what survives until the node resumes; a mutant
#: (:mod:`repro.testing.mutants`) sabotages delivery innermost, just
#: before the node's own handler.
DELIVERY_ORDER = ("trace", "corrupt", "drop_dup", "pause", "mutant")


class DeliveryHook:
    """One stage of a node's delivery chain.

    Subclasses name their ``stage`` (one of :data:`DELIVERY_ORDER`) and
    implement ``deliver(msg)``, passing what survives to ``inner``: the
    next stage's ``deliver``, or the node's own handler.
    """

    stage = ""
    __slots__ = ("inner",)


def arm_delivery(network, node_id: int, hook: DeliveryHook) -> None:
    """Put ``hook`` into ``node_id``'s delivery chain at its stage."""
    hooks = []
    handler = network._handlers[node_id]
    while isinstance(getattr(handler, "__self__", None), DeliveryHook):
        hooks.append(handler.__self__)
        handler = handler.__self__.inner
    hooks.append(hook)
    hooks.sort(key=lambda h: DELIVERY_ORDER.index(h.stage))
    for outer, inner in zip(hooks, hooks[1:]):
        outer.inner = inner.deliver
    hooks[-1].inner = handler
    network._handlers[node_id] = hooks[0].deliver


__all__ = [
    "DELIVERY_ORDER",
    "DeliveryHook",
    "HookedLink",
    "LinkHooks",
    "arm_delivery",
    "arm_link",
    "arm_object",
    "hooked_class",
]
