"""Tests for deterministic RNG derivation and exponential backoff."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import ExponentialBackoff, derive_rng


def test_derive_rng_is_deterministic():
    a = derive_rng(7, "sequencer", 3)
    b = derive_rng(7, "sequencer", 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_derive_rng_scopes_are_independent():
    a = derive_rng(7, "sequencer", 3)
    b = derive_rng(7, "sequencer", 4)
    assert a.random() != b.random()


def test_derive_rng_seed_changes_stream():
    a = derive_rng(1, "x")
    b = derive_rng(2, "x")
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scope=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=10_000),
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=8,
            ),
        ),
        max_size=3,
    ),
    consumed=st.integers(min_value=0, max_value=64),
    remaining=st.integers(min_value=1, max_value=64),
)
def test_derived_stream_round_trips_mid_sequence(
    seed, scope, consumed, remaining
):
    """The snapshot contract on RNG state: a derived stream interrupted
    after any number of draws continues identically through both
    ``getstate``/``setstate`` and a pickle round-trip (how
    ``SimulatorSnapshot`` actually carries it)."""
    rng = derive_rng(seed, "prop", *scope)
    for _ in range(consumed):
        rng.random()

    state = rng.getstate()
    clone = pickle.loads(pickle.dumps(rng))
    expected = [rng.random() for _ in range(remaining)]

    # setstate resumes an unrelated stream at exactly this point...
    other = derive_rng(seed + 1, "elsewhere")
    other.setstate(state)
    assert [other.random() for _ in range(remaining)] == expected
    # ...and the pickled copy was already there.
    assert [clone.random() for _ in range(remaining)] == expected


def test_backoff_window_doubles_and_caps():
    backoff = ExponentialBackoff(derive_rng(1, "bk"), 10.0, 35.0)
    delays = [backoff.next_delay() for _ in range(6)]
    assert all(0 <= d < 10.0 for d in delays[:1])
    # Window sequence: 10, 20, 35, 35, ...
    assert all(0 <= d < 35.0 for d in delays)


def test_backoff_rejects_bad_windows():
    rng = derive_rng(1, "bk")
    with pytest.raises(ValueError):
        ExponentialBackoff(rng, 0.0, 10.0)
    with pytest.raises(ValueError):
        ExponentialBackoff(rng, 10.0, 5.0)
