"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.coherence.states import Moesi, state_from_tokens
from repro.core.tokens import TokenLedger
from repro.interconnect.torus import TorusInterconnect, torus_dims
from repro.sim.kernel import Simulator
from repro.sim.rng import ExponentialBackoff, derive_rng
from repro.workloads.trace import dumps_streams, loads_streams
from repro.processor.sequencer import MemoryOp


# ----------------------------------------------------------------------
# Event kernel: any schedule of events fires in (time, insertion) order.
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=50)
def test_kernel_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# Cache: resident set never exceeds capacity; LRU victim is stale-most.
# ----------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50)
def test_cache_capacity_never_exceeded(blocks, assoc, n_sets):
    cache = SetAssociativeCache(n_sets, assoc)
    for block in blocks:
        if not cache.contains(block):
            victim = cache.victim_for(block)
            if victim is not None:
                cache.remove(victim.block)
        cache.insert(block)
        assert len(cache) <= cache.capacity_lines
        for probe in set(blocks):
            in_set = len(cache.lines_in_set(probe))
            assert in_set <= assoc
    # Most recently inserted block is always resident.
    assert cache.contains(blocks[-1])


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=50))
@settings(max_examples=50)
def test_lru_victim_is_least_recently_used(accesses):
    cache = SetAssociativeCache(1, 4)  # single set: pure LRU
    touched = []
    for block in accesses:
        if cache.contains(block):
            cache.lookup(block)
        else:
            victim = cache.victim_for(block)
            if victim is not None:
                # The victim must be the least recently touched resident.
                resident = [b for b in touched if cache.contains(b)]
                order = {b: i for i, b in enumerate(touched[::-1])}
                expected = max(resident, key=lambda b: order[b])
                assert victim.block == expected
                cache.remove(victim.block)
            cache.insert(block)
        touched = [b for b in touched if b != block] + [block]


# ----------------------------------------------------------------------
# Token accounting: conservation under arbitrary send/receive sequences.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=64),
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=40),
)
@settings(max_examples=50)
def test_ledger_conserves_tokens_through_any_flight_pattern(total, sizes):
    class Holder:
        def __init__(self, total):
            self.tokens = total
            self.owner = 1

        def tokens_held(self, block):
            return self.tokens, self.owner

    holder = Holder(total)
    ledger = TokenLedger(total)
    ledger.register_holder(holder)
    in_flight = []
    for size in sizes:
        size = min(size, holder.tokens)
        if size == 0:
            if in_flight:
                tokens, owner = in_flight.pop(0)
                ledger.message_received(1, tokens, owner)
                holder.tokens += tokens
                holder.owner += 1 if owner else 0
            continue
        owner = holder.owner == 1 and size == holder.tokens
        holder.tokens -= size
        if owner:
            holder.owner = 0
        ledger.message_sent(1, size, owner)
        in_flight.append((size, owner))
        ledger.audit(1)
    while in_flight:
        tokens, owner = in_flight.pop(0)
        ledger.message_received(1, tokens, owner)
        holder.tokens += tokens
        holder.owner += 1 if owner else 0
        ledger.audit(1)


@given(st.integers(min_value=1, max_value=128), st.booleans())
@settings(max_examples=100)
def test_token_state_mapping_total(total, owner):
    for tokens in range(0, total + 1):
        if tokens == 0 and owner:
            continue
        state = state_from_tokens(tokens, owner, total)
        assert state in (
            Moesi.INVALID, Moesi.SHARED, Moesi.OWNED, Moesi.MODIFIED
        )
        # Write permission iff all tokens; read iff any token.
        assert (state is Moesi.MODIFIED) == (tokens == total)
        assert state.can_read() == (tokens > 0)


# ----------------------------------------------------------------------
# Torus routing: path length equals the wrap-around Manhattan metric.
# ----------------------------------------------------------------------


@given(
    st.sampled_from([4, 8, 16, 36, 64]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)
@settings(max_examples=100)
def test_torus_route_is_shortest(n, src, dst):
    src %= n
    dst %= n
    torus = TorusInterconnect(Simulator(), n, 15.0, None)
    width, height = torus_dims(n)
    sx, sy = torus.coords(src)
    dx, dy = torus.coords(dst)
    expected = min((dx - sx) % width, (sx - dx) % width) + min(
        (dy - sy) % height, (sy - dy) % height
    )
    route = torus.route(src, dst)
    assert len(route) == expected
    # The route really arrives at dst.
    at = src
    for step in route:
        at = torus.neighbour(at, step)
    assert at == dst


@given(st.sampled_from([4, 8, 16, 36, 64]), st.integers(min_value=0, max_value=63))
@settings(max_examples=30)
def test_torus_spanning_tree_reaches_every_node_once(n, src):
    src %= n
    torus = TorusInterconnect(Simulator(), n, 15.0, None)
    children = torus._spanning_tree(src)
    reached = [src]
    frontier = [src]
    while frontier:
        vertex = frontier.pop()
        for _, child in children[vertex]:
            reached.append(child)
            frontier.append(child)
    assert sorted(reached) == list(range(n))
    assert sum(len(c) for c in children.values()) == n - 1


# ----------------------------------------------------------------------
# Address map: block/home mapping is total and consistent.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=2, max_value=64),
    st.sampled_from([32, 64, 128]),
)
@settings(max_examples=100, deadline=None)
def test_address_map_properties(address, n_procs, block_bytes):
    """A store lands on the block holding its byte address, and exactly
    one node, ``block % n_procs``, is that block's home."""
    from repro.config import SystemConfig
    from repro.system.builder import build_system

    config = SystemConfig(
        n_procs=n_procs, block_bytes=block_bytes, l1_bytes=4 * block_bytes,
        l1_assoc=2, l2_bytes=8 * block_bytes, l2_assoc=2,
    )
    system = build_system(config, {0: [MemoryOp(address, True)]})
    system.run()
    block = address // block_bytes
    assert system.checker.current_version(block) == 1
    homes = [node.node_id for node in system.nodes if node.is_home(block)]
    assert homes == [system.nodes[0].home_of(block)] == [block % n_procs]


# ----------------------------------------------------------------------
# Backoff: delays bounded by the (capped) doubling window.
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=20))
@settings(max_examples=50)
def test_backoff_delays_respect_cap(seed, draws):
    backoff = ExponentialBackoff(derive_rng(seed, "prop"), 10.0, 160.0)
    window = 10.0
    for _ in range(draws):
        delay = backoff.next_delay()
        assert 0.0 <= delay < window
        window = min(window * 2, 160.0)


# ----------------------------------------------------------------------
# Trace round trip.
# ----------------------------------------------------------------------


op_strategy = st.builds(
    MemoryOp,
    address=st.integers(min_value=0, max_value=2**40).map(lambda a: a & ~0x3F),
    is_write=st.booleans(),
    # Arbitrary-precision think times: the round trip is bit-identical,
    # with no decimal rounding anywhere in the format.
    think_ns=st.floats(min_value=0, max_value=1000),
    depends_on_prev=st.booleans(),
)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=7),
        st.lists(op_strategy, max_size=20),
        max_size=4,
    )
)
@settings(max_examples=50)
def test_trace_round_trip(streams):
    streams = {p: ops for p, ops in streams.items() if ops}
    text = dumps_streams(streams)
    restored = loads_streams(text)
    assert restored == streams


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_procs=st.integers(min_value=1, max_value=4),
    ops=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=25, deadline=None)
def test_generated_stream_trace_round_trip_is_identity(seed, n_procs, ops):
    """dump → load of any generated stream reproduces it exactly —
    generated think times carry full float precision."""
    from repro.workloads.commercial import OLTP
    from repro.workloads.synthetic import generate_streams

    streams = generate_streams(OLTP.scaled(ops), n_procs, seed)
    assert loads_streams(dumps_streams(streams)) == streams


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    ops=st.integers(min_value=1, max_value=61),
)
@settings(max_examples=25, deadline=None)
def test_all_migratory_streams_never_split_pairs(seed, ops):
    """Any stream length (odd included) with migratory_weight=1.0 ends
    without a dangling half of a load/store pair."""
    from repro.workloads.microbench import contended_sharing_spec
    from repro.workloads.synthetic import generate_stream

    stream = generate_stream(
        contended_sharing_spec(ops_per_proc=ops), 0, 4, seed
    )
    assert len(stream) == ops
    for prev, op in zip(stream, stream[1:]):
        if op.depends_on_prev:
            assert op.is_write and not prev.is_write
            assert op.address == prev.address
    # A stream never ends on the load half of a pair expecting a store:
    # writes are exactly pairs' stores.
    assert sum(op.is_write for op in stream) == ops // 2
