"""End-of-run invariants: every run finishes through one set of checks.

:meth:`System.finish` runs :func:`repro.system.invariants.check_finished`,
so a plain ``System.run()`` is judged for drainage and the custody
contract exactly as an explorer scenario is, with no harness around it.
"""

import pytest

from repro.lineage import LineageContractError, install_recorder
from repro.system.builder import build_system
from repro.system.invariants import OracleError
from repro.testing.explore import Scenario, _build_config, _generate_streams
from repro.testing.mutants import MUTANTS


def _plain_system(protocol, workload, seed):
    """A scenario's machine and streams as a plain build: no overlay."""
    scenario = Scenario(seed, protocol, "torus", workload)
    config = _build_config(scenario)
    return build_system(config, _generate_streams(scenario, config))


@pytest.mark.parametrize("seed", range(4))
def test_plain_run_catches_a_writeback_leak(seed):
    """A directory system that ignores PUT_ACKs fails its own run."""
    system = _plain_system("directory", "writeback_churn", seed)
    MUTANTS["writeback-leak"].install(system)
    with pytest.raises(
        OracleError, match=r"drainage: P\d writeback buffer still holds"
    ):
        system.run()


def test_plain_run_checks_the_custody_contract():
    """A recorder armed on a plain system is finalized and checked."""
    system = _plain_system("tokenb", "false_sharing", 0)
    install_recorder(system)
    MUTANTS["lineage-leak"].install(system)
    with pytest.raises(LineageContractError):
        system.run()
    assert system.lineage.finalized


def test_clean_plain_run_finishes():
    system = _plain_system("tokenb", "false_sharing", 0)
    install_recorder(system)
    result = system.run()
    assert result.total_ops == 4 * 40
    assert system.audited_blocks > 0
    assert system.lineage.finalized
