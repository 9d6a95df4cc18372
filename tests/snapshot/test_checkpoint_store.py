"""Checkpoint store: content addressing, miss tolerance, env wiring."""

import functools
import os
import pickle

import pytest

from repro.config import SystemConfig
from repro.snapshot import (
    CheckpointStore,
    ReplayableStream,
    demo_family,
    fork_family,
    store_from_env,
)


def _config(**overrides) -> SystemConfig:
    params = dict(
        protocol="tokenb", interconnect="torus", n_procs=4, seed=7
    )
    params.update(overrides)
    return SystemConfig(**params)


@pytest.fixture()
def family():
    return demo_family(warmup_ops=40, tail_ops=8, n_tails=2)


def test_key_is_stable_and_parameter_sensitive(tmp_path, family):
    store = CheckpointStore(tmp_path)
    key = store.key(_config(), family.warmup, fingerprint="f0")
    assert key == store.key(_config(), family.warmup, fingerprint="f0")
    # Any input shift addresses a different checkpoint: config...
    assert key != store.key(_config(seed=8), family.warmup, fingerprint="f0")
    # ...warmup program...
    other = demo_family(warmup_ops=41, tail_ops=8, n_tails=2)
    assert key != store.key(_config(), other.warmup, fingerprint="f0")
    # ...and code fingerprint (stale snapshots must never be replayed).
    assert key != store.key(_config(), family.warmup, fingerprint="f1")
    # Tails are deliberately NOT part of the key: families sharing a
    # warmup share checkpoints.
    more_tails = demo_family(warmup_ops=40, tail_ops=8, n_tails=3)
    assert key == store.key(_config(), more_tails.warmup, fingerprint="f0")


def test_fork_family_populates_then_hits_the_store(tmp_path, family):
    store = CheckpointStore(tmp_path / "ckpt")
    config = _config()

    cold_results, cold_stats = fork_family(config, family, store=store)
    assert cold_stats["checkpoint_hit"] is False
    assert len(store) == 1

    warm_results, warm_stats = fork_family(config, family, store=store)
    assert warm_stats["checkpoint_hit"] is True
    assert len(store) == 1  # hit, not rewrite
    for name in cold_results:
        assert (
            cold_results[name].events_fired
            == warm_results[name].events_fired
        )
        assert (
            cold_results[name].per_proc_finish_ns
            == warm_results[name].per_proc_finish_ns
        )

    stats = store.stats()
    assert stats["checkpoints"] == 1 and stats["bytes"] > 0


def test_corrupt_and_foreign_files_read_as_misses(tmp_path, family):
    store = CheckpointStore(tmp_path)
    config = _config()
    _results, stats = fork_family(config, family, store=store)
    assert stats["checkpoint_hit"] is False
    key = store.key(config, family.warmup)
    assert key in store

    # A torn write is a miss, never an error...
    store.path_for(key).write_bytes(b"\x80garbage")
    assert store.get(key) is None
    # ...as is a well-formed pickle of the wrong shape...
    store.path_for(key).write_bytes(pickle.dumps({"not": "a snapshot"}))
    assert store.get(key) is None
    # ...and a missing file.
    store.path_for(key).unlink()
    assert store.get(key) is None

    # The fork path recovers by re-running the warmup and republishing.
    _results, stats = fork_family(config, family, store=store)
    assert stats["checkpoint_hit"] is False
    assert store.get(key) is not None


def test_store_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT_STORE", raising=False)
    assert store_from_env() is None
    monkeypatch.setenv("REPRO_CHECKPOINT_STORE", "none")
    assert store_from_env() is None
    monkeypatch.setenv("REPRO_CHECKPOINT_STORE", str(tmp_path / "ckpt"))
    store = store_from_env()
    assert isinstance(store, CheckpointStore)
    assert store.root == tmp_path / "ckpt"


def test_puts_are_atomic_leaving_no_temp_files(tmp_path, family):
    store = CheckpointStore(tmp_path)
    fork_family(_config(), family, store=store)
    leftovers = [
        name for name in os.listdir(tmp_path) if not name.endswith(".snap")
    ]
    assert leftovers == []


# ----------------------------------------------------------------------
# ReplayableStream: the pickle-safe op stream under the snapshots
# ----------------------------------------------------------------------


def _range_stream(start, stop):
    return iter(range(start, stop))


#: Every call of :func:`_counted_range_stream`, in order.
FACTORY_CALLS = []


def _counted_range_stream(start, stop):
    FACTORY_CALLS.append((start, stop))
    return iter(range(start, stop))


def test_replayable_stream_resumes_at_consumed_position(family):
    # The factory must pickle by reference (module-level partial), the
    # same shape fork_program builds for warmup streams.
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
