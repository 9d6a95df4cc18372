"""Recorder installation hooks and the custody query CLI.

The hooks must be pay-for-use: an un-armed run executes the exact same
node classes as before the lineage subsystem existed, and an armed run
observes without perturbing the simulation.
"""

import pytest

from repro.core.tokenb import TokenBNode
from repro.lineage import install_recorder
from repro.observe import install_tracing
from repro.overlay import _hook_namespace, hooked_class
from repro.system.builder import build_system
from repro.testing.explore import (
    Scenario,
    _armed_system,
    _build_config,
    _finish_scenario,
    _generate_streams,
    run_scenario,
)


def _recorded_run(scenario):
    """The explorer's run of ``scenario`` and the recorder it armed."""
    system = _armed_system(scenario)
    system.start()
    return _finish_scenario(scenario, system), system.lineage


def _token_system(protocol="tokenb", seed=0):
    scenario = Scenario(
        protocol=protocol, interconnect="torus",
        workload="false_sharing", seed=seed,
    )
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    return build_system(config, streams, workload_name=scenario.workload)


def test_install_swaps_classes_and_sets_recorder():
    system = _token_system()
    assert system.lineage is None
    recorder = install_recorder(system)
    assert system.lineage is recorder
    for node in system.nodes:
        assert type(node).__name__.startswith("Hooked")
        assert node._lineage is recorder


def test_lineage_class_is_cached_single_base():
    system = _token_system()
    cls = type(system.nodes[0])
    generated = hooked_class(cls)
    assert hooked_class(cls) is generated
    assert hooked_class(generated) is generated
    assert generated.__bases__ == (cls,)


def test_uninstalled_run_uses_pristine_classes():
    """Zero-cost claim: with the recorder off, the node classes are the
    shipped ones — no wrapper, no subclass, no per-message overhead."""
    system = _token_system()
    for node in system.nodes:
        assert type(node).__module__ != "repro.overlay"
        assert "Hooked" not in type(node).__name__


def test_install_rejects_ledgerless_protocols():
    system = _token_system(protocol="directory")
    with pytest.raises(ValueError, match="token"):
        install_recorder(system)


def test_dispatch_rebinds_to_hooked_methods():
    """A node binds its handler table at construction; moving it onto
    its hooked class must rebind every entry to the hooked class's
    methods: lineage on a token node, tracing on a Directory node."""
    token = _token_system()
    directory = _token_system(protocol="directory")
    nodes = (*token.nodes, *directory.nodes)
    built = [node._handlers for node in nodes]
    install_recorder(token)
    install_tracing(directory)
    for node, table in zip(nodes, built):
        assert type(node).__name__.startswith("Hooked")
        assert node._handlers is not table
        assert node._handlers.keys() == node.handlers.keys()
        for mtype, name in node.handlers.items():
            handler = node._handlers[mtype]
            assert handler.__func__ is getattr(type(node), name)
            assert handler.__self__ is node
    # Lineage overrides the token handler, so the rebind is visible.
    hooked = token.nodes[0]._handlers["TOKEN_DATA"].__func__
    assert hooked is not TokenBNode._handle_tokens


def test_hook_namespace_covers_custody_surface():
    system = _token_system()
    namespace = _hook_namespace(type(system.nodes[0]))
    for name in ("send_msg", "_handle_tokens", "_memory_state",
                 "_complete_token_transaction"):
        assert name in namespace


def test_armed_run_is_observationally_equivalent():
    """The recorder watches; it must not steer.  Same scenario with and
    without lineage produces the identical simulation."""
    base = Scenario(protocol="tokenb", interconnect="torus",
                    workload="false_sharing", seed=3)
    armed = Scenario(protocol="tokenb", interconnect="torus",
                     workload="false_sharing", seed=3, lineage=True)
    plain = run_scenario(base)
    recorded = run_scenario(armed)
    assert plain.ok and recorded.ok
    assert plain.runtime_ns == recorded.runtime_ns
    assert plain.total_ops == recorded.total_ops
    assert plain.events_fired == recorded.events_fired
    assert recorded.lineage_stats["lineage_events"] > 0
    assert plain.lineage_stats == {}


def test_recorded_run_returns_finalized_recorder():
    scenario = Scenario(protocol="tokenb", interconnect="torus",
                        workload="false_sharing", seed=0, lineage=True)
    outcome, recorder = _recorded_run(scenario)
    assert outcome.ok
    assert recorder is not None and recorder.finalized
    assert recorder.stats() == outcome.lineage_stats


def test_fault_scenario_chains_absorb_dropped_requests():
    """Corruption-dropped requests must terminate as absorbed-by-reissue
    when the recorder is armed under the fault injector."""
    from repro.testing.explore import make_fault_scenario

    found = False
    for seed in range(6):
        scenario = make_fault_scenario(seed, "tokenb", "torus", "corrupt")
        assert scenario.lineage
        outcome, recorder = _recorded_run(scenario)
        assert outcome.ok, outcome.violation_message
        if recorder.dropped_requests():
            found = True
            assert recorder.stats()["lineage_absorbed_reissues"] == len(
                recorder.dropped_requests()
            )
    assert found, "no seed produced a corruption drop; weaken oracle test"


# ----------------------------------------------------------------------
# The query CLI (python -m repro.lineage)
# ----------------------------------------------------------------------


def test_cli_record_then_query_round_trip(tmp_path, capsys):
    from repro.lineage.__main__ import main

    store = str(tmp_path / "store")
    assert main(["record", "--protocol", "tokenb", "--seed", "1",
                 "--store", store]) == 0
    out = capsys.readouterr().out
    assert "events" in out and "terminal outcomes" in out

    assert main(["query", "where was block 0x200's owner token at t=4200?",
                 "--store", store]) == 0
    out = capsys.readouterr().out
    assert "block 0x200 owner token at t=4200" in out


def test_cli_bare_question_is_a_query(tmp_path, capsys):
    from repro.lineage.__main__ import main

    store = str(tmp_path / "store")
    assert main(["record", "--seed", "0", "--store", store]) == 0
    capsys.readouterr()
    assert main(["where was block 0x200's owner token at t=100?",
                 "--store", store]) == 0
    assert "owner token" in capsys.readouterr().out


def test_cli_rejects_non_token_protocols(tmp_path, capsys):
    from repro.lineage.__main__ import main

    assert main(["record", "--protocol", "directory",
                 "--store", str(tmp_path / "s")]) == 2
    assert "not a token protocol" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--workload", "--interconnect"])
def test_cli_record_rejects_unknown_scenario_arguments(
    option, tmp_path, capsys
):
    from repro.lineage.__main__ import main

    with pytest.raises(SystemExit) as exited:
        main(["record", option, "bogus", "--store", str(tmp_path / "s")])
    assert exited.value.code == 2
    assert f"argument {option}: invalid choice: 'bogus'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "s").exists()


def test_cli_query_missing_store_errors(tmp_path, capsys):
    from repro.lineage.__main__ import main

    assert main(["query", "block 0x40 at t=1",
                 "--store", str(tmp_path / "nowhere")]) == 2
    assert "no custody store" in capsys.readouterr().err


def test_cli_query_unparseable_question_errors(tmp_path, capsys):
    from repro.lineage.__main__ import main

    store = str(tmp_path / "store")
    assert main(["record", "--seed", "0", "--store", store]) == 0
    capsys.readouterr()
    assert main(["query", "what even is custody?", "--store", store]) == 2
    assert "error" in capsys.readouterr().err
