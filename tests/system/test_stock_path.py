"""The stock hot path: equal to the per-hop reference path, and cheap.

On a stock system (no hook armed, stock kernel) the interconnects cross
a link in one call and post each last hop straight to the destination's
handler.  Arming any link hook moves the whole network onto the per-hop
reference path (``HookedLink.cross`` on every hop, the per-hop torus
fan-out); a no-op hook there must change no output field of
:func:`~repro.testing.signature.result_signature`.

The cost guards count Python calls per fired event under cProfile: on
the stock path, and on the armed path of two explorer scenarios
(perturbation, lineage and summary tracing, as every campaign arms
them).  The count is deterministic for one Python version (CI pins
3.11), so it catches a hot-path change that adds calls without timing
anything.  A third guard counts calls per generated op for four
stream generators.  Each sums the profiler's raw entries: ``pstats``
keys functions by file, line and name and keeps one per key, and every
dataclass ``__init__`` is ``<string>:2:__init__``, so its total drops
all but one of them, and which one depends on the process.
"""

import cProfile
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COMMERCIAL_WORKLOADS, SystemConfig
from repro.overlay import arm_link
from repro.sim.kernel import Simulator
from repro.snapshot.fork import demo_family
from repro.system.builder import build_system
from repro.system.grid import protocol_grid
from repro.testing.explore import make_scenario, run_scenario
from repro.testing.signature import result_signature
from repro.workloads import eviction_storm_streams, generate_streams
from tests.workloads.test_stream_golden import CACHE_HOT

#: The six figure-grid configs: label -> (workload, SystemConfig kwargs).
FIGURE_GRID = {
    "tokenb/torus": ("apache", dict(protocol="tokenb", interconnect="torus")),
    "tokenb/torus-unlim": (
        "apache",
        dict(protocol="tokenb", interconnect="torus",
             link_bandwidth_bytes_per_ns=None),
    ),
    "tokenb/tree": ("apache", dict(protocol="tokenb", interconnect="tree")),
    "snooping/tree": ("apache", dict(protocol="snooping", interconnect="tree")),
    "directory/torus": (
        "apache", dict(protocol="directory", interconnect="torus")
    ),
    "hammer/oltp-torus": ("oltp", dict(protocol="hammer", interconnect="torus")),
}

#: Calls per event at 16 procs x 60 ops, seed 42, on Python 3.11, as
#: measured when the per-miss path was last changed (before the MOSI
#: baselines shared one base: 10.10, 11.40, 14.46 and 8.34).  TokenB's
#: figure was re-recorded when every node came to dispatch through one
#: bound handler table, which drops a ``dict.get`` per token message
#: (9.99 before).
CALLS_PER_EVENT = {
    "tokenb/torus": 9.54,
    "snooping/tree": 11.23,
    "directory/torus": 14.18,
    "hammer/oltp-torus": 7.93,
}

#: Calls per event of a whole armed explorer scenario (build, run and
#: oracles; ``make_scenario(42, protocol, "torus", "false_sharing")``)
#: on Python 3.11, recorded when a hooked link came to cross in one call
#: and summary tracing stopped hooking links (27.25 and 25.96 before).
ARMED_CALLS_PER_EVENT = {
    "tokenb": 21.51,
    "directory": 20.91,
}

#: Calls per generated op on Python 3.11, recorded when every generator
#: came to draw straight from bound ``random``/``getrandbits`` methods
#: into a slotted ``MemoryOp`` (19.62, 16.11, 14.01 and 11.74 before).
#: Generating streams is most of a cache-hot run's set-up.
CALLS_PER_OP = {
    "apache/16x400": 5.91,
    "cache-hot/16x1000": 7.52,
    "demo-warmup/8x1600": 7.01,
    "eviction-storm/4x40": 5.74,
}

_DEMO_WARMUP = demo_family(1600, 40, 4).warmup

#: label -> the streams whose generation CALLS_PER_OP counts.
STREAMS = {
    "apache/16x400": lambda: generate_streams(
        COMMERCIAL_WORKLOADS["apache"].scaled(400), 16, 42
    ),
    "cache-hot/16x1000": lambda: generate_streams(CACHE_HOT, 16, 42),
    "demo-warmup/8x1600": lambda: _DEMO_WARMUP.materialize(8, 42),
    "eviction-storm/4x40": lambda: eviction_storm_streams(42, 4, 40),
}

_CPYTHON_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the recorded call counts are CPython 3.11's",
)


def _profiled(run):
    """``run()``'s result and the Python calls it made (raw entries)."""
    profile = cProfile.Profile()
    profile.enable()
    result = run()
    profile.disable()
    return result, sum(entry.callcount for entry in profile.getstats())


def _system(label: str, ops_per_proc: int):
    workload, kwargs = FIGURE_GRID[label]
    config = SystemConfig(n_procs=16, seed=42, **kwargs)
    spec = COMMERCIAL_WORKLOADS[workload].scaled(ops_per_proc)
    streams = generate_streams(spec, 16, config.seed, config.block_bytes)
    return build_system(
        config, streams, workload_name=spec.name,
        ops_per_transaction=spec.ops_per_transaction,
    )


@pytest.mark.parametrize("label", sorted(FIGURE_GRID))
def test_stock_path_matches_the_per_hop_reference_path(label):
    stock = _system(label, 120)
    reference = _system(label, 120)
    hops = []
    network = reference.network
    for link in network.all_links():
        arm_link(network, link, on_hop=lambda *hop: hops.append(None))
    assert network._hooked
    assert result_signature(stock.run()) == result_signature(reference.run())
    assert len(hops) == sum(stock.traffic.crossings_by_category().values())


class _SubclassKernel(Simulator):
    """A kernel that is not the stock class: every inline push checks
    ``type(sim) is Simulator`` and posts through the kernel instead."""

    __slots__ = ()


@given(
    grid_point=st.sampled_from(list(protocol_grid())),
    n_procs=st.integers(2, 16),
    bandwidth=st.sampled_from((None, 0.8, 1.6, 3.2, 12.8)),
    workload=st.sampled_from(sorted(COMMERCIAL_WORKLOADS)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_stock_kernel_matches_a_kernel_subclass_on_drawn_configs(
    grid_point, n_procs, bandwidth, workload, seed
):
    """The inline fast paths equal their ``post``/``post_at`` twins on
    whole systems nobody chose, not only on the fixed configs above."""
    protocol, interconnect = grid_point
    config = SystemConfig(
        n_procs=n_procs, protocol=protocol, interconnect=interconnect,
        link_bandwidth_bytes_per_ns=bandwidth, seed=seed,
    )
    spec = COMMERCIAL_WORKLOADS[workload].scaled(60)

    def run(kernel):
        streams = generate_streams(spec, n_procs, seed, config.block_bytes)
        system = build_system(config, streams, workload_name=spec.name)
        system.sim.__class__ = kernel
        return result_signature(system.run())

    assert run(Simulator) == run(_SubclassKernel)


@_CPYTHON_311
@pytest.mark.parametrize("label", sorted(CALLS_PER_EVENT))
def test_calls_per_event_stay_at_the_recorded_figure(label):
    result, calls = _profiled(_system(label, 60).run)
    calls /= result.events_fired
    expected = CALLS_PER_EVENT[label]
    assert abs(calls - expected) <= 0.10 * expected, (
        f"{label}: {calls:.2f} calls per event, recorded {expected}; "
        "re-record CALLS_PER_EVENT only for an intended hot-path change"
    )


@_CPYTHON_311
@pytest.mark.parametrize("protocol", sorted(ARMED_CALLS_PER_EVENT))
def test_armed_calls_per_event_stay_at_the_recorded_figure(protocol):
    scenario = make_scenario(42, protocol, "torus", "false_sharing")
    run_scenario(scenario)  # warm: first-use imports are not the path
    outcome, calls = _profiled(lambda: run_scenario(scenario))
    assert outcome.ok
    calls /= outcome.events_fired
    expected = ARMED_CALLS_PER_EVENT[protocol]
    assert abs(calls - expected) <= 0.10 * expected, (
        f"armed {protocol}: {calls:.2f} calls per event, recorded "
        f"{expected}; re-record ARMED_CALLS_PER_EVENT only for an "
        "intended change to the armed path"
    )


@_CPYTHON_311
@pytest.mark.parametrize("label", sorted(CALLS_PER_OP))
def test_calls_per_generated_op_stay_at_the_recorded_figure(label):
    streams, calls = _profiled(STREAMS[label])
    calls /= sum(len(ops) for ops in streams.values())
    expected = CALLS_PER_OP[label]
    assert abs(calls - expected) <= 0.10 * expected, (
        f"{label}: {calls:.2f} calls per generated op, recorded "
        f"{expected}; re-record CALLS_PER_OP only for an intended "
        "generator change"
    )
