"""Perturbation-layer tests: legality bounds, determinism, and the
guarantee that an uninstalled perturber leaves the hot path untouched."""

import pytest

from repro.coherence.messages import CoherenceMessage
from repro.config import SystemConfig
from repro.interconnect.link import Link
from repro.sim.kernel import Simulator
from repro.system.builder import build_system
from repro.testing.explore import Scenario, run_scenario
from repro.overlay import HookedLink
from repro.testing.perturb import (
    LinkJitter,
    PerturbedSimulator,
    Perturber,
    PerturbSpec,
)
from repro.workloads.adversarial import false_sharing_streams


def _build(protocol="tokenb", interconnect="torus", seed=0):
    config = SystemConfig(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=4,
        seed=seed,
        l2_bytes=16 * 64,
        l2_assoc=4,
        l1_bytes=8 * 64,
    )
    streams = false_sharing_streams(seed, 4, 24)
    return build_system(config, streams)


# ----------------------------------------------------------------------
# Spec validation and legality bounds
# ----------------------------------------------------------------------


def test_spec_rejects_negative_jitter_and_bad_probabilities():
    with pytest.raises(ValueError):
        PerturbSpec(kernel_jitter_ns=-1.0)
    with pytest.raises(ValueError):
        PerturbSpec(drop_request_prob=1.5)
    with pytest.raises(ValueError):
        PerturbSpec(dup_request_prob=-0.1)


def test_active_fields_reflect_switched_on_perturbations():
    spec = PerturbSpec(link_jitter_ns=5.0, drop_request_prob=0.1)
    assert spec.active_fields() == ["link_jitter_ns", "drop_request_prob"]
    assert spec.token_only_fields() == ["drop_request_prob"]
    assert spec.any_active()
    assert not PerturbSpec().any_active()


def test_spec_roundtrips_through_dict():
    spec = PerturbSpec(seed=7, kernel_jitter_ns=3.0, dup_request_prob=0.2)
    assert PerturbSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("protocol", ["snooping", "directory", "hammer"])
@pytest.mark.parametrize("field", [
    "drop_request_prob", "dup_request_prob", "force_escalation_prob",
    "kernel_jitter_ns", "reorder_jitter_ns",
])
def test_token_only_perturbations_rejected_on_baselines(protocol, field):
    """Baselines assume ordered lossless delivery; installing any
    token-only perturbation on them must raise, not silently corrupt —
    each field individually, on each baseline.  (Only FIFO link jitter
    is ordering-safe; see test_fifo_link_jitter_legal_on_baselines.)"""
    system = _build(protocol, "tree" if protocol == "snooping" else "torus")
    perturber = Perturber(PerturbSpec(**{field: 0.1}))
    with pytest.raises(ValueError, match="only legal on token"):
        perturber.install(system)


def test_fifo_link_jitter_legal_on_baselines():
    system = _build("directory")
    Perturber(PerturbSpec(link_jitter_ns=4.0)).install(system)
    result = system.run()
    assert result.total_ops == 4 * 24


def test_perturber_installs_once():
    system = _build()
    perturber = Perturber(PerturbSpec(link_jitter_ns=1.0))
    perturber.install(system)
    with pytest.raises(RuntimeError, match="already installed"):
        perturber.install(system)


def test_second_perturber_on_one_system_raises():
    """The perturber publishes itself as ``system.perturb``, one per
    system: a second one with another spec must not silently replace
    the first one's kernel jitter."""
    system = _build()
    first = Perturber(PerturbSpec(seed=1, kernel_jitter_ns=5.0))
    first.install(system)
    with pytest.raises(RuntimeError, match="already installed"):
        Perturber(PerturbSpec(seed=2, kernel_jitter_ns=50.0)).install(system)
    assert system.perturb is first
    assert system.sim._perturb[1] == 5.0


# ----------------------------------------------------------------------
# Hooks are free when no perturber is installed
# ----------------------------------------------------------------------


def test_unperturbed_system_uses_base_classes():
    """Without a perturber the simulator and links are the exact shipped
    classes — the perturbation layer exists only as a reserved slot."""
    system = _build()
    assert type(system.sim) is Simulator
    assert not system.network._hooked
    for link in system.network.all_links():
        assert type(link) is Link


def test_install_swaps_classes_in_place():
    system = _build()
    spec = PerturbSpec(kernel_jitter_ns=2.0, link_jitter_ns=1.0,
                       reorder_jitter_ns=1.0)
    Perturber(spec).install(system)
    assert type(system.sim) is PerturbedSimulator
    assert system.network._hooked
    for link in system.network.all_links():
        assert type(link) is HookedLink
        assert isinstance(link._hooks.delay.__self__, LinkJitter)


@pytest.mark.parametrize("protocol,interconnect", [
    ("tokenb", "torus"),   # batched torus multicast must be re-routed
    ("tokenb", "tree"),    # tree fan-out already crosses hop by hop
    ("hammer", "torus"),   # baseline whose probes broadcast on the torus
])
def test_every_link_crossing_goes_through_jittered_occupy(
    monkeypatch, protocol, interconnect
):
    """Broadcast hops must not bypass the jitter: the production torus
    claims link slots inline in its batched multicast, so a hooked
    network takes the per-hop fan-out instead.  Count calls to the
    jitter's ``delay`` hook against recorded crossings — any hop that
    skipped the hook chain would break the equality."""
    calls = [0]
    base_delay = LinkJitter.delay

    def counting_delay(self, link, busy_until):
        calls[0] += 1
        return base_delay(self, link, busy_until)

    monkeypatch.setattr(LinkJitter, "delay", counting_delay)
    system = _build(protocol, interconnect)
    Perturber(PerturbSpec(link_jitter_ns=2.0)).install(system)
    assert system.network._hooked
    result = system.run()
    assert result.total_ops == 4 * 24
    crossings = sum(
        link._crossings for link in system.network.all_links()
    )
    assert crossings > 0
    assert calls[0] == crossings


#: Kernel-jitter samples drawn when one GETS reaches its block's home
#: node.  TokenB and the null protocol push their two snoop responses
#: inline, so the jitter misses them; TokenD and TokenM post theirs
#: through the kernel.  Letting the jitter reach every snoop response
#: (an open ROADMAP item) flips the two zeros to 2.
SNOOP_JITTER_SAMPLES = {"tokenb": 0, "null-token": 0, "tokend": 2, "tokenm": 2}


def test_kernel_jitter_reaches_which_snoop_responses():
    samples = {}
    for protocol in SNOOP_JITTER_SAMPLES:
        system = build_system(
            SystemConfig(protocol=protocol, interconnect="torus", n_procs=4),
            {},
        )
        Perturber(PerturbSpec(kernel_jitter_ns=4.0)).install(system)
        drawn = []
        random, jitter = system.sim._perturb

        def counting_random(random=random, drawn=drawn):
            drawn.append(None)
            return random()

        system.sim._perturb = (counting_random, jitter)
        block = 6
        home = system.nodes[block % 4]
        home.handle_message(CoherenceMessage(
            src=1, dst=home.node_id, mtype="GETS", block=block, requester=1,
            category="request", vnet="request",
        ))
        assert len(system.sim._heap) == 2  # the cache and memory responses
        samples[protocol] = len(drawn)
    assert samples == SNOOP_JITTER_SAMPLES


def test_perturbed_subclasses_add_no_instance_layout():
    """``__class__`` reassignment on a live object requires identical
    slot layouts; pin that the subclasses declare no new slots."""
    assert PerturbedSimulator.__slots__ == ()
    assert HookedLink.__slots__ == ()


def test_empty_spec_is_never_installed_by_the_explorer():
    outcome = run_scenario(
        Scenario(seed=0, protocol="tokenb", interconnect="torus",
                 workload="false_sharing", ops_per_proc=16)
    )
    assert outcome.ok
    assert outcome.perturb_stats == {
        "dropped_requests": 0, "duplicated_requests": 0,
        "forced_escalations": 0,
    }


# ----------------------------------------------------------------------
# Determinism: a perturbed run is a pure function of its spec
# ----------------------------------------------------------------------


def _full_adversarial_scenario(seed):
    return Scenario(
        seed=seed,
        protocol="tokenb",
        interconnect="tree",
        workload="arbiter_contention",
        ops_per_proc=20,
        perturb=PerturbSpec(
            seed=seed,
            kernel_jitter_ns=12.0,
            link_jitter_ns=6.0,
            reorder_jitter_ns=10.0,
            drop_request_prob=0.1,
            dup_request_prob=0.1,
            force_escalation_prob=0.05,
        ),
    )


def test_perturbed_run_is_deterministic():
    first = run_scenario(_full_adversarial_scenario(3))
    second = run_scenario(_full_adversarial_scenario(3))
    assert first.ok and second.ok
    assert first.events_fired == second.events_fired
    assert first.persistent_requests == second.persistent_requests
    assert first.perturb_stats == second.perturb_stats


def test_perturbation_actually_perturbs():
    """The adversarial spec must change the schedule (else the sweep
    proves nothing) and visibly drop/duplicate requests."""
    clean = run_scenario(
        Scenario(seed=3, protocol="tokenb", interconnect="tree",
                 workload="arbiter_contention", ops_per_proc=20)
    )
    perturbed = run_scenario(_full_adversarial_scenario(3))
    assert clean.ok and perturbed.ok
    assert perturbed.events_fired != clean.events_fired
    stats = perturbed.perturb_stats
    assert stats["dropped_requests"] > 0
    assert stats["duplicated_requests"] > 0


def test_different_perturb_seeds_give_different_schedules():
    outcomes = {
        run_scenario(_full_adversarial_scenario(seed)).events_fired
        for seed in range(4)
    }
    assert len(outcomes) > 1
