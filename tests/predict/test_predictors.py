"""Predictor unit tests: training, prediction, decay, and scoring."""

import pytest

from repro.config import PREDICTORS as CONFIG_PREDICTORS
from repro.config import SystemConfig
from repro.predict.predictors import (
    PREDICTORS,
    BroadcastIfSharedPredictor,
    GroupPredictor,
    OwnerPredictor,
    build_predictor,
    prediction_rates,
)
from repro.sim.stats import Counter


def make(cls_or_name, **config_overrides):
    config = SystemConfig(protocol="tokenm", **config_overrides)
    counters = Counter()
    if isinstance(cls_or_name, str):
        config = config.replace(predictor=cls_or_name)
        return build_predictor(config, 0, counters), counters
    return cls_or_name(config, 0, counters), counters


def test_registry_matches_config_names():
    assert set(PREDICTORS) == set(CONFIG_PREDICTORS)
    for name, cls in PREDICTORS.items():
        assert cls.name == name


def test_build_predictor_resolves_config_choice():
    predictor, _ = make("owner")
    assert isinstance(predictor, OwnerPredictor)


def test_owner_predictor_follows_the_owner_token():
    predictor, _ = make(OwnerPredictor)
    assert predictor.predict(5) is None
    # An owner answered our GETS with data and kept ownership.
    predictor.train_response_received(5, 2, owner_token=False)
    assert predictor.predict(5) == frozenset({2})
    # We handed the owner token to node 3 (a GETM response/eviction).
    predictor.train_response_sent(5, 3, owner_token=True, all_tokens=False)
    assert predictor.predict(5) == frozenset({3})
    # An observed exclusive request names the next sole holder.
    predictor.train_request(5, 4, exclusive=True)
    assert predictor.predict(5) == frozenset({4})
    # Tokens flow to a persistent initiator.
    predictor.train_activation(5, 1)
    assert predictor.predict(5) == frozenset({1})


def test_owner_predictor_forgets_when_ownership_arrives_here():
    predictor, counters = make(OwnerPredictor)
    predictor.train_response_received(5, 2, owner_token=False)
    # The owner token then moved *to this node*: the old guess is stale
    # and where it goes next is unknown.
    predictor.train_response_received(5, 2, owner_token=True)
    assert predictor.predict(5) is None
    assert counters.get("predict_cold") == 1


def test_broadcast_if_shared_goes_broadcast_on_second_reader():
    predictor, counters = make(BroadcastIfSharedPredictor)
    predictor.train_request(5, 2, exclusive=True)
    assert predictor.predict(5) == frozenset({2})
    # A read request from a different node while 2 owns it: shared.
    predictor.train_request(5, 3, exclusive=False)
    assert predictor.predict(5) is None
    assert counters.get("predict_cold") == 1


def test_broadcast_if_shared_resets_on_exclusivity():
    predictor, _ = make(BroadcastIfSharedPredictor)
    predictor.train_request(5, 2, exclusive=True)
    predictor.train_request(5, 3, exclusive=False)
    assert predictor.predict(5) is None
    # An all-token handoff makes the recipient the sole holder again.
    predictor.train_response_sent(5, 4, owner_token=True, all_tokens=True)
    assert predictor.predict(5) == frozenset({4})
    # So does a persistent activation.
    predictor.train_request(5, 1, exclusive=False)
    predictor.train_activation(5, 6)
    assert predictor.predict(5) == frozenset({6})


def test_group_predictor_accumulates_and_decays():
    predictor, _ = make(GroupPredictor, predictor_history_depth=4)
    for node in (1, 2, 1):
        predictor.train_response_received(5, node, owner_token=False)
    assert predictor.predict(5) == frozenset({1, 2})
    # The 4th training triggers a decay round first: 2 (count 1) drops
    # out, 1 survives, the fresh observation of 3 lands after the decay.
    predictor.train_request(5, 3, exclusive=False)
    assert predictor.predict(5) == frozenset({1, 3})


def test_group_collapses_to_sole_holder_on_exclusivity():
    predictor, _ = make(GroupPredictor)
    for node in (1, 2, 3):
        predictor.train_request(5, node, exclusive=False)
    # A GETM invalidates every sharer: only the requester remains.
    predictor.train_request(5, 4, exclusive=True)
    assert predictor.predict(5) == frozenset({4})


def test_group_counters_saturate():
    predictor, _ = make(GroupPredictor, predictor_history_depth=100)
    for _ in range(10):
        predictor.train_response_received(5, 1, owner_token=False)
    entry = predictor.table.get(5)
    assert entry.counts[1] <= 3


def test_table_capacity_bounds_predictor_state():
    predictor, counters = make(GroupPredictor, predictor_table_entries=2)
    for block in range(5):
        predictor.train_response_received(block, 1, owner_token=False)
    assert len(predictor.table) == 2
    assert counters.get("predict_table_eviction") == 3
    assert predictor.predict(0) is None  # evicted: back to cold


def test_trainings_are_counted():
    predictor, counters = make(GroupPredictor)
    predictor.train_request(5, 1, exclusive=False)
    predictor.train_response_received(5, 2, owner_token=False)
    predictor.train_response_sent(5, 3, owner_token=False, all_tokens=False)
    predictor.train_activation(5, 4)
    assert counters.get("predict_training") == 4


def test_record_outcome_scores_hit_coverage_overshoot():
    predictor, counters = make(GroupPredictor)
    predictor.record_outcome(frozenset({1, 2, 3}), {2, 4}, reissued=False)
    predictor.record_outcome(frozenset({1}), {5}, reissued=True)
    assert counters.get("predict_hit") == 1
    assert counters.get("predict_miss") == 1
    assert counters.get("predict_predicted_nodes") == 4
    assert counters.get("predict_responders") == 3
    assert counters.get("predict_responders_covered") == 1
    assert counters.get("predict_overshoot_nodes") == 3

    rates = prediction_rates(counters.as_dict())
    assert rates["multicasts"] == 2
    assert rates["hit_rate"] == pytest.approx(0.5)
    assert rates["coverage"] == pytest.approx(1 / 3)
    assert rates["overshoot"] == pytest.approx(1.5)


def test_prediction_rates_empty_counters():
    rates = prediction_rates({})
    assert rates == {"multicasts": 0.0, "hit_rate": 0.0,
                     "coverage": 0.0, "overshoot": 0.0,
                     "table_evictions": 0.0}


def test_unknown_predictor_rejected_by_config():
    with pytest.raises(ValueError, match="predictor must be one of"):
        SystemConfig(protocol="tokenm", predictor="oracle")
