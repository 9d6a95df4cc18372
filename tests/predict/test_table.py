"""PredictionTable: capacity and LRU order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict.table import PredictionTable
from repro.sim.stats import Counter


def test_capacity_evicts_least_recently_used():
    table = PredictionTable(2)
    table.get_or_create(1, list)
    table.get_or_create(2, list)
    table.get(1)  # refresh 1; 2 becomes the LRU victim
    table.get_or_create(3, list)
    assert 1 in table and 3 in table
    assert 2 not in table
    assert table.evictions == 1


def test_eviction_reported_through_shared_counter():
    counters = Counter()
    table = PredictionTable(1, counters=counters, eviction_counter="softdir_eviction")
    table.get_or_create(1, list)
    table.get_or_create(2, list)
    assert counters.get("softdir_eviction") == 1


def test_get_or_create_returns_same_entry():
    table = PredictionTable(4)
    first = table.get_or_create(7, list)
    assert table.get_or_create(7, list) is first
    assert table.get(7) is first
    assert len(table) == 1


def test_rejects_bad_geometry():
    with pytest.raises(ValueError, match="at least one entry"):
        PredictionTable(0)


# ----------------------------------------------------------------------
# Property: against any op sequence, the table behaves exactly like an
# LRU-ordered dict of blocks — same membership, same victim choice, same
# eviction tally.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "create"]),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=80,
)


@given(ops=_ops, capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=120, deadline=None)
def test_table_matches_lru_reference_model(ops, capacity):
    table = PredictionTable(capacity)
    model: dict[int, object] = {}  # insertion-ordered = LRU order
    evictions = 0
    for op, block in ops:
        if op == "get":
            got = table.get(block)
            assert got is model.get(block), (op, block)
            if block in model:
                model[block] = model.pop(block)  # refresh to MRU
        else:
            entry = table.get_or_create(block, object)
            if block in model:
                assert entry is model[block]
                model[block] = model.pop(block)
            else:
                if len(model) >= capacity:
                    victim = next(iter(model))  # least recently used
                    del model[victim]
                    evictions += 1
                model[block] = entry
        assert len(table) == len(model) <= capacity
    for block in range(64):
        assert (block in table) == (block in model)
    assert table.evictions == evictions
