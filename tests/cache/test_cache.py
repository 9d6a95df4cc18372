"""Tests for the set-associative LRU cache."""

import pytest

from repro.cache import SetAssociativeCache


def test_geometry_from_table1_l2():
    cache = SetAssociativeCache.from_geometry(4 * 1024 * 1024, 4, 64)
    assert cache.capacity_lines == 65536
    assert cache.n_sets == 16384
    assert cache.assoc == 4


def test_geometry_from_table1_l1():
    cache = SetAssociativeCache.from_geometry(128 * 1024, 4, 64)
    assert cache.capacity_lines == 2048


def test_insert_and_lookup():
    cache = SetAssociativeCache(4, 2)
    line = cache.insert(0x10)
    assert cache.lookup(0x10) is line
    assert cache.lookup(0x11) is None
    assert cache.contains(0x10)
    assert len(cache) == 1


def test_insert_existing_returns_same_line():
    cache = SetAssociativeCache(4, 2)
    a = cache.insert(0x10)
    b = cache.insert(0x10)
    assert a is b
    assert len(cache) == 1


def test_blocks_map_to_sets_by_modulo():
    cache = SetAssociativeCache(4, 1)
    cache.insert(0)
    # Block 4 maps to the same set as block 0 in a 4-set cache...
    assert cache.victim_for(4) is not None
    # ...while block 1 maps to a different, empty set.
    assert cache.victim_for(1) is None


def test_victim_is_lru():
    cache = SetAssociativeCache(1, 3)
    cache.insert(1)
    cache.insert(2)
    cache.insert(3)
    cache.lookup(1)  # 2 is now LRU
    victim = cache.victim_for(4)
    assert victim.block == 2


def test_victim_none_when_room_or_resident():
    cache = SetAssociativeCache(1, 2)
    cache.insert(1)
    assert cache.victim_for(2) is None  # free way
    cache.insert(2)
    assert cache.victim_for(1) is None  # already resident


def test_insert_into_full_set_raises():
    cache = SetAssociativeCache(1, 2)
    cache.insert(1)
    cache.insert(2)
    with pytest.raises(RuntimeError):
        cache.insert(3)


def test_remove():
    cache = SetAssociativeCache(2, 2)
    cache.insert(5)
    removed = cache.remove(5)
    assert removed.block == 5
    assert cache.remove(5) is None
    assert len(cache) == 0


def test_lookup_without_touch_preserves_lru():
    cache = SetAssociativeCache(1, 2)
    cache.insert(1)
    cache.insert(2)
    cache.peek(1)
    victim = cache.victim_for(3)
    assert victim.block == 1  # untouched lookup did not refresh 1


def test_lines_iteration():
    cache = SetAssociativeCache(4, 2)
    for block in (1, 2, 3):
        cache.insert(block)
    assert sorted(line.block for line in cache.lines()) == [1, 2, 3]


def test_lines_walk_sets_in_index_order_and_ways_in_insertion_order():
    cache = SetAssociativeCache(4, 2)
    for block in (7, 2, 3, 6, 5):
        cache.insert(block)
    assert [line.block for line in cache.lines()] == [5, 2, 6, 7, 3]


def test_sets_exist_only_while_they_hold_lines():
    cache = SetAssociativeCache(16384, 4)
    assert cache._sets == {}
    cache.insert(5)
    cache.insert(5 + 16384)
    assert list(cache._sets) == [5]
    assert cache.lines_in_set(21) == []
    cache.remove(5)
    assert cache.set_has_room(5 + 3 * 16384)
    cache.remove(5 + 16384)
    assert cache._sets == {} and len(cache) == 0


def test_line_default_fields():
    cache = SetAssociativeCache(1, 1)
    line = cache.insert(9)
    assert line.version == 0
    assert not line.dirty
    assert line.state == "I"
    assert line.tokens == 0
    assert not line.owner_token
    assert not line.valid_data


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(0, 1)
    with pytest.raises(ValueError):
        SetAssociativeCache(1, 0)
