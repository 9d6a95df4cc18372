"""ReplayableStream: the pickle-safe op stream under the snapshots."""

import functools
import pickle

import pytest

from repro.config import SystemConfig
from repro.snapshot import ReplayableStream, demo_family


def _config(**overrides) -> SystemConfig:
    params = dict(
        protocol="tokenb", interconnect="torus", n_procs=4, seed=7
    )
    params.update(overrides)
    return SystemConfig(**params)


@pytest.fixture()
def family():
    return demo_family(warmup_ops=40, tail_ops=8, n_tails=2)


def _range_stream(start, stop):
    return iter(range(start, stop))


#: Every call of :func:`_counted_range_stream`, in order.
FACTORY_CALLS = []


def _counted_range_stream(start, stop):
    FACTORY_CALLS.append((start, stop))
    return iter(range(start, stop))


def test_replayable_stream_resumes_at_consumed_position(family):
    # The factory must pickle by reference (module-level partial), the
    # same shape fork_family builds for warmup streams.
    factory = functools.partial(_range_stream, 100, 120)
    stream = ReplayableStream(factory)
    first = [next(stream) for _ in range(7)]
    assert first == list(range(100, 107))
    assert stream.consumed == 7

    clone = pickle.loads(pickle.dumps(stream))
    assert clone.consumed == 7
    assert list(clone) == list(range(107, 120))
    # The original is unaffected by the clone's progress.
    assert next(stream) == 107


def test_replayable_stream_from_workload_program(family):
    config = _config(n_procs=2)
    warmup = family.warmup
    factory = functools.partial(
        warmup.iter_stream, 0, 2, config.seed, config.block_bytes
    )
    stream = ReplayableStream(factory)
    head = [next(stream) for _ in range(5)]
    clone = pickle.loads(pickle.dumps(stream))
    rest_original = list(stream)
    rest_clone = list(clone)
    assert rest_clone == rest_original
    assert head + rest_original == list(
        warmup.iter_stream(0, 2, config.seed, config.block_bytes)
    )


def test_replayable_stream_replays_only_when_read():
    """Unpickling stores the factory and the consumed count; the first
    read calls the factory once and resumes at the consumed position."""
    FACTORY_CALLS.clear()
    stream = ReplayableStream(
        functools.partial(_counted_range_stream, 100, 120)
    )
    assert FACTORY_CALLS == []
    assert [next(stream) for _ in range(7)] == list(range(100, 107))
    assert len(FACTORY_CALLS) == 1

    clone = pickle.loads(pickle.dumps(stream))
    assert len(FACTORY_CALLS) == 1
    assert clone.consumed == 7
    assert next(clone) == 107
    assert len(FACTORY_CALLS) == 2
    assert list(clone) == list(range(108, 120))
    assert clone.consumed == 20
    assert len(FACTORY_CALLS) == 2


def test_replay_shortfall_raises_on_first_read():
    """A factory that cannot regenerate the consumed prefix is an error,
    not an end of stream: a sequencer reads ``StopIteration`` as "no
    more ops" and would silently truncate the workload."""
    stream = ReplayableStream(
        functools.partial(_range_stream, 0, 5), consumed=8
    )
    clone = pickle.loads(pickle.dumps(stream))
    with pytest.raises(RuntimeError, match=r"consumed 8 ops .* 3 short"):
        next(clone)
