"""System builder tests."""

import gc

import pytest

from repro.config import INTERCONNECTS, PREDICTORS, PROTOCOLS, SystemConfig
from repro.interconnect import NETWORKS
from repro.predict.predictors import PREDICTORS as PREDICTOR_CLASSES
from repro.processor.sequencer import MemoryOp
from repro.system.builder import NODE_CLASSES, build_system, simulate
from repro.system.grid import ALL_PROTOCOLS, interconnect_for, protocol_grid
from repro.workloads.commercial import OLTP


def test_builds_one_node_and_sequencer_per_processor():
    config = SystemConfig(n_procs=8, protocol="tokenb", interconnect="torus")
    system = build_system(config, {})
    assert len(system.nodes) == 8
    assert len(system.sequencers) == 8


def test_all_protocols_buildable():
    for protocol in ALL_PROTOCOLS:
        config = SystemConfig(
            n_procs=4, protocol=protocol,
            interconnect=interconnect_for(protocol),
        )
        system = build_system(config, {})
        assert len(system.nodes) == 4


def test_the_protocol_table_is_the_only_gate():
    """``config.PROTOCOLS`` says where each protocol runs: the config
    accepts exactly its pairs, the grid yields exactly them, and every
    name table covers exactly the config's names."""
    legal = [
        (protocol, interconnect)
        for protocol in PROTOCOLS
        for interconnect in INTERCONNECTS
        if interconnect in PROTOCOLS[protocol]
    ]
    for protocol in PROTOCOLS:
        for interconnect in INTERCONNECTS:
            if (protocol, interconnect) in legal:
                SystemConfig(protocol=protocol, interconnect=interconnect)
            else:
                with pytest.raises(ValueError, match="total"):
                    SystemConfig(protocol=protocol, interconnect=interconnect)
    assert len(legal) == 13
    assert list(protocol_grid()) == legal
    assert set(NODE_CLASSES) == set(PROTOCOLS)
    assert set(NETWORKS) == set(INTERCONNECTS)
    assert set(PREDICTOR_CLASSES) == set(PREDICTORS)
    for protocol, interconnect in legal:
        system = build_system(SystemConfig(
            n_procs=2, protocol=protocol, interconnect=interconnect
        ), {})
        node_class = NODE_CLASSES[protocol]
        assert all(type(node) is node_class for node in system.nodes)
        assert type(system.network) is NETWORKS[interconnect]


def test_token_ledger_only_for_token_protocols():
    token = build_system(
        SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus"), {}
    )
    assert token.ledger is not None
    directory = build_system(
        SystemConfig(n_procs=4, protocol="directory", interconnect="torus"), {}
    )
    assert directory.ledger is None


def test_simulate_replays_identical_streams_across_protocols():
    results = {}
    for protocol in ("tokenb", "directory"):
        config = SystemConfig(n_procs=4, protocol=protocol, interconnect="torus")
        results[protocol] = simulate(config, OLTP.scaled(50))
    assert results["tokenb"].total_ops == results["directory"].total_ops


def test_run_is_repeatable_from_fresh_builds():
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    a = simulate(config, OLTP.scaled(40))
    b = simulate(config, OLTP.scaled(40))
    assert a.runtime_ns == b.runtime_ns
    assert a.traffic_bytes == b.traffic_bytes


def test_seed_changes_outcome():
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    a = simulate(config, OLTP.scaled(40))
    b = simulate(config.replace(seed=1234), OLTP.scaled(40))
    assert a.runtime_ns != b.runtime_ns


def test_result_fields_populated():
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    result = simulate(config, OLTP.scaled(30))
    assert result.total_ops == 120
    assert result.total_misses > 0
    assert result.runtime_ns > 0
    assert result.events_fired > 0
    assert len(result.per_proc_finish_ns) == 4
    assert result.workload_name == "oltp"


def test_streams_for_missing_procs_default_empty():
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    system = build_system(config, {0: [MemoryOp(0x1000, False)]})
    result = system.run()
    assert result.total_ops == 1


def test_gc_reenabled_after_clean_run():
    """System.run pauses the cyclic collector for the event loop and
    must hand it back afterwards."""
    assert gc.isenabled()
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    simulate(config, OLTP.scaled(20))
    assert gc.isenabled()


def test_gc_reenabled_when_exception_escapes_run_loop():
    """An exception escaping mid-run (here the max_events safety valve,
    firing with the queue still busy) must not leave GC disabled."""
    assert gc.isenabled()
    config = SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus")
    streams = {
        proc: [MemoryOp(0x1000 + 0x40 * i, True) for i in range(10)]
        for proc in range(4)
    }
    system = build_system(config, streams)
    with pytest.raises(Exception):
        system.run(max_events=10)
    assert gc.isenabled()


def test_gc_left_disabled_if_caller_disabled_it():
    """System.run only restores the state it found: a caller that runs
    with GC off keeps it off."""
    gc.disable()
    try:
        config = SystemConfig(
            n_procs=4, protocol="tokenb", interconnect="torus"
        )
        simulate(config, OLTP.scaled(10))
        assert not gc.isenabled()
    finally:
        gc.enable()
