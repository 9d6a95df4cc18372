"""Tests for the MSHR table and the typed records protocols keep."""

import sys

import pytest

from repro.cache import MshrEntry, MshrTable
from repro.config import SystemConfig
from repro.core.substrate import OwnPersistentRequest
from repro.protocols.mosi import Writeback
from repro.system.builder import build_system
from repro.system.grid import ALL_PROTOCOLS, interconnect_for


def test_allocate_get_free_cycle():
    table = MshrTable(4)
    entry = table.allocate(0x40, for_write=True, now=10.0)
    assert entry.block == 0x40
    assert entry.for_write
    assert entry.issued_at == 10.0
    assert table.get(0x40) is entry
    assert 0x40 in table
    freed = table.free(0x40)
    assert freed is entry
    assert table.get(0x40) is None


def test_double_allocate_same_block_rejected():
    table = MshrTable(4)
    table.allocate(1, False, 0.0)
    with pytest.raises(RuntimeError):
        table.allocate(1, True, 0.0)


def test_capacity_enforced():
    table = MshrTable(2)
    table.allocate(1, False, 0.0)
    table.allocate(2, False, 0.0)
    assert table.is_full()
    with pytest.raises(RuntimeError):
        table.allocate(3, False, 0.0)


def test_free_unknown_block_rejected():
    table = MshrTable(2)
    with pytest.raises(RuntimeError):
        table.free(9)


def test_waiters_coalesce():
    table = MshrTable(2)
    entry = table.allocate(1, False, 0.0)
    entry.waiters.append((False, lambda v: None))
    entry.waiters.append((True, lambda v: None))
    assert len(entry.waiters) == 2


def _assert_declared_only(record):
    """A module-level ``__slots__`` class: it pickles by reference, and
    an undeclared attribute is an error rather than a new key."""
    cls = type(record)
    assert getattr(sys.modules[cls.__module__], cls.__qualname__) is cls
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.undeclared = 1


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_live_miss_record_rejects_undeclared_attributes(protocol):
    config = SystemConfig(
        protocol=protocol, interconnect=interconnect_for(protocol), n_procs=4
    )
    node = build_system(config, {}).nodes[1]
    entry = node.start_miss(0x40, False, lambda version: None)
    assert node.mshrs.get(0x40) is entry
    assert isinstance(entry, MshrEntry) and type(entry) is not MshrEntry
    assert not hasattr(entry, "protocol")
    _assert_declared_only(entry)


def test_writeback_and_persistent_session_records_are_declared():
    _assert_declared_only(Writeback(3))
    _assert_declared_only(OwnPersistentRequest())


def test_len_and_entries():
    table = MshrTable(3)
    table.allocate(1, False, 0.0)
    table.allocate(2, True, 1.0)
    assert len(table) == 2
    assert {e.block for e in table.entries()} == {1, 2}
