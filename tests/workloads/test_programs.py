"""Phase-structured workload engine tests: patterns, programs,
serialization, laziness, and the simulate path."""

import itertools

import pytest

from repro import SystemConfig, simulate_program
from repro.workloads.commercial import APACHE
from repro.workloads.patterns import (
    PATTERN_KINDS,
    PatternSpec,
    pattern_ops,
)
from repro.workloads.programs import (
    ADVERSARIAL_PROGRAMS,
    CAMPAIGN_PROGRAMS,
    WorkloadProgram,
)
from repro.workloads.synthetic import WorkloadSpec, stream_stats
from repro.workloads.trace import dumps_streams, loads_streams


def pattern(kind, **kwargs):
    defaults = dict(ops_per_proc=48, n_blocks=8, hot_blocks=2,
                    rotation_period=8, group_size=2)
    defaults.update(kwargs)
    return PatternSpec(f"test-{kind}", kind, **defaults)


def sample_program():
    return WorkloadProgram(
        "test-program",
        [
            APACHE.scaled(30),
            pattern("rotating_hotspot"),
            pattern("producer_group_handoff", ops_per_proc=20),
        ],
    )


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_pattern_yields_exact_length_deterministically(kind):
    spec = pattern(kind)
    a = list(pattern_ops(spec, 1, 4, seed=3))
    b = list(pattern_ops(spec, 1, 4, seed=3))
    assert len(a) == spec.ops_per_proc
    assert a == b
    assert a != list(pattern_ops(spec, 1, 4, seed=4))


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_pattern_procs_differ_and_salt_namespaces(kind):
    spec = pattern(kind)
    zero = list(pattern_ops(spec, 0, 4, seed=1))
    one = list(pattern_ops(spec, 1, 4, seed=1))
    assert zero != one
    salted = list(pattern_ops(spec, 0, 4, seed=1, salt=("phase", 2)))
    assert salted != zero


def test_unknown_pattern_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        PatternSpec("bad", "nope")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(write_prob=2.0), "write_prob"),
        (dict(think_min_ns=-1.0), "think_min_ns"),
        (dict(think_min_ns=20.0, think_max_ns=2.0), "think_min_ns"),
    ],
    ids=["write-prob", "negative-think", "inverted-think"],
)
def test_pattern_rejects_what_no_generator_can_draw(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PatternSpec("bad", "rotating_hotspot", **kwargs)


def test_spec_files_reach_the_checks_through_from_dict():
    """A campaign spec file names its phases as plain documents."""
    for phase in (
        {"workload": {"name": "bad", "n_private_blocks": 0}},
        {"pattern": {"name": "bad", "kind": "rotating_hotspot",
                     "write_prob": 2.0}},
    ):
        with pytest.raises(ValueError):
            WorkloadProgram.from_dict({"name": "p", "phases": [phase]})


def test_barrier_all_touch_walks_whole_pool_with_one_writer():
    spec = pattern("barrier_all_touch", ops_per_proc=16, n_blocks=8)
    ops = list(pattern_ops(spec, 0, 4, seed=2))
    first_round = ops[:8]
    # Every block of the pool touched exactly once per round.
    assert len({op.address for op in first_round}) == 8
    # Round 0's writer is proc 0; round 1's is proc 1 (so proc 0 reads).
    assert all(op.is_write for op in first_round)
    assert not any(op.is_write for op in ops[8:16])


def test_rotating_hotspot_moves_between_groups():
    spec = pattern("rotating_hotspot", ops_per_proc=16, n_blocks=8,
                   hot_blocks=2, rotation_period=8)
    ops = list(pattern_ops(spec, 0, 4, seed=2))
    first = {op.address for op in ops[:8]}
    second = {op.address for op in ops[8:]}
    assert not (first & second)  # the hot group rotated


def test_false_sharing_stride_never_leaves_half_pairs():
    spec = pattern("false_sharing_stride", ops_per_proc=7)
    ops = list(pattern_ops(spec, 2, 4, seed=5))
    assert len(ops) == 7
    for prev, op in zip(ops, ops[1:]):
        if op.depends_on_prev:
            assert prev.address == op.address and not prev.is_write
    assert not ops[-1].is_write  # the odd slot is a lone read probe
    # Write fraction stays at pairs/total, not skewed by truncation.
    assert sum(op.is_write for op in ops) == 3


def test_producer_group_handoff_rotates_the_writer():
    spec = pattern("producer_group_handoff", ops_per_proc=16,
                   group_size=2, rotation_period=8)
    zero = list(pattern_ops(spec, 0, 4, seed=1))
    # Proc 0 produces in epoch 0, consumes in epoch 1.
    assert all(op.is_write for op in zero[:8])
    assert not any(op.is_write for op in zero[8:])
    # Groups own disjoint block slices.
    two = list(pattern_ops(spec, 2, 4, seed=1))
    assert not ({op.address for op in zero} & {op.address for op in two})


def test_pattern_stats_characterizes():
    spec = pattern("false_sharing_stride")
    stats = stream_stats(
        {proc: list(pattern_ops(spec, proc, 2, seed=1)) for proc in range(2)}
    )
    assert stats["total_ops"] == 96.0
    assert stats["write_fraction"] == pytest.approx(0.5)
    assert stats["dependent_fraction"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


def test_program_concatenates_phases_in_order():
    program = sample_program()
    assert program.ops_per_proc == 98
    assert program.phase_boundaries() == [
        ("apache", 0, 30),
        ("test-rotating_hotspot", 30, 78),
        ("test-producer_group_handoff", 78, 98),
    ]
    stream = list(program.iter_stream(0, 4, seed=9))
    assert len(stream) == 98


def test_program_streams_are_lazy_generators():
    program = sample_program()
    streams = program.streams(4, seed=9)
    assert set(streams) == {0, 1, 2, 3}
    head = list(itertools.islice(streams[0], 10))
    assert head == program.materialize(4, seed=9)[0][:10]


def test_program_is_deterministic_and_seed_sensitive():
    program = sample_program()
    assert program.materialize(4, seed=9) == program.materialize(4, seed=9)
    assert program.materialize(4, seed=9) != program.materialize(4, seed=10)


def test_phase_index_salts_rng():
    """Two phases sharing one spec still produce distinct operations."""
    spec = pattern("rotating_hotspot")
    program = WorkloadProgram("twice", [spec, spec])
    stream = list(program.iter_stream(0, 4, seed=1))
    half = spec.ops_per_proc
    assert stream[:half] != stream[half:]


def test_program_round_trips_through_dict():
    program = sample_program()
    assert WorkloadProgram.from_dict(program.to_dict()) == program


def test_program_dict_is_json_canonicalizable():
    from repro.campaign.spec import ScenarioCase

    program = sample_program()
    case = ScenarioCase(
        "simulate",
        {"program": program.to_dict(), "config": {"protocol": "tokenb"}},
        fingerprint="pinned",
    )
    rebuilt = WorkloadProgram.from_dict(case.params["program"])
    assert rebuilt == program


def test_program_scaled_keeps_every_phase():
    small = sample_program().scaled(10)
    assert len(small.phases) == 3
    assert all(phase.ops_per_proc >= 1 for phase in small.phases)
    assert small.ops_per_proc <= 12


def test_isolate_phase_names_the_parent():
    isolated = sample_program().isolate_phase(1)
    assert isolated.name == "test-program@test-rotating_hotspot"
    assert len(isolated.phases) == 1


def test_empty_program_rejected():
    with pytest.raises(ValueError, match="at least one phase"):
        WorkloadProgram("empty", [])


def test_non_spec_phase_rejected():
    with pytest.raises(TypeError, match="phases must be"):
        WorkloadProgram("bad", [object()])


def test_program_traces_round_trip_from_generators():
    program = sample_program()
    text = dumps_streams(program.streams(3, seed=4))
    assert loads_streams(text) == program.materialize(3, seed=4)


def test_registries_hold_valid_programs():
    for name, program in CAMPAIGN_PROGRAMS.items():
        assert program.name == name
        assert program.ops_per_proc >= 100
        assert WorkloadProgram.from_dict(program.to_dict()) == program
    for name, factory in ADVERSARIAL_PROGRAMS.items():
        streams = factory(0, 4, 20)
        assert set(streams) == {0, 1, 2, 3}
        assert all(len(ops) >= 18 for ops in streams.values())
        assert streams == factory(0, 4, 20)


def test_simulate_program_runs_to_completion():
    program = sample_program()
    config = SystemConfig(protocol="tokenb", interconnect="torus", n_procs=4)
    result = simulate_program(config, program)
    assert result.total_ops == 4 * program.ops_per_proc
    assert result.workload_name == "test-program"
    assert result.runtime_ns > 0


def test_simulate_program_replays_identically():
    program = sample_program()
    config = SystemConfig(protocol="directory", interconnect="torus", n_procs=4)
    first = simulate_program(config, program)
    second = simulate_program(config, program)
    assert first.runtime_ns == second.runtime_ns
    assert first.counters == second.counters


def test_program_and_mix_phases_use_disjoint_regions():
    """Pattern pools must not alias the synthetic category pools."""
    mix_ops = WorkloadSpec(name="mix", ops_per_proc=200)
    program = WorkloadProgram("regions", [mix_ops, pattern("rotating_hotspot")])
    stream = program.materialize(2, seed=1)[0]
    mix_addrs = {op.address for op in stream[:200]}
    pattern_addrs = {op.address for op in stream[200:]}
    assert not (mix_addrs & pattern_addrs)
