"""Scenario identity: content hashing, fingerprints, spec documents."""

import pytest

from repro.campaign.spec import CampaignSpec, ScenarioCase, code_fingerprint


def test_case_key_stable_across_construction_order():
    a = ScenarioCase("simulate", {"x": 1, "y": [1, 2], "z": {"b": 2, "a": 1}})
    b = ScenarioCase("simulate", {"z": {"a": 1, "b": 2}, "y": (1, 2), "x": 1})
    assert a.key == b.key
    assert a == b
    assert a.params == b.params  # tuples normalized to lists


def test_case_key_distinguishes_kind_and_params():
    base = ScenarioCase("simulate", {"x": 1})
    assert ScenarioCase("explore", {"x": 1}).key != base.key
    assert ScenarioCase("simulate", {"x": 2}).key != base.key


def test_case_key_survives_json_roundtrip():
    import json

    case = ScenarioCase("simulate", {"cfg": {"bw": 3.2, "dl": None}})
    reloaded = ScenarioCase(
        case.kind, json.loads(json.dumps(case.params)), fingerprint=case.fingerprint
    )
    assert reloaded.key == case.key


def test_case_rejects_unserializable_params():
    with pytest.raises(TypeError):
        ScenarioCase("simulate", {"bad": {1, 2}})


def test_fingerprint_env_override_rekeys_everything(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "fp-one")
    one = ScenarioCase("simulate", {"x": 1})
    assert code_fingerprint() == "fp-one"
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "fp-two")
    two = ScenarioCase("simulate", {"x": 1})
    assert one.params == two.params
    assert one.key != two.key


def test_fingerprint_is_stable_within_a_version(monkeypatch):
    monkeypatch.delenv("REPRO_CAMPAIGN_FINGERPRINT", raising=False)
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def test_spec_cases_dedup_and_roundtrip(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "fp")
    spec = CampaignSpec(
        name="t", kind="simulate", grid=[{"x": 1}, {"x": 1}, {"x": 2}]
    )
    cases = spec.cases()
    assert len(cases) == 2
    reloaded = CampaignSpec.from_dict(spec.to_dict())
    assert [c.key for c in reloaded.cases()] == [c.key for c in cases]
    assert reloaded.to_dict() == spec.to_dict()


def test_presets_declare_expected_scales():
    from repro.campaign import presets

    figures = presets.figures_spec()
    assert figures.kind == "simulate"
    # 45 historic standard-grid cases plus the ablation variants.
    assert len(figures.cases()) >= 45
    explorer = presets.explorer_spec(seeds=2)
    # 2 seeds x 13 legal grid points x 6 adversarial workloads (4 flat
    # generators + 2 phased programs).
    assert len(explorer.cases()) == 156
    # Programs x the performance grid, plus per-phase isolation points.
    assert len(presets.workloads_spec().cases()) == 66
    assert len(presets.workloads_spec(smoke=True).cases()) == 15
    differential = presets.differential_spec(seeds=3)
    # 3 seeds x 6 adversarial workloads x 7 protocols, one case each.
    assert differential.kind == "explore"
    assert len(differential.cases()) == 126
    assert len(presets.smoke_spec().cases()) == 10
    # The predict tradeoff grid: 3 workloads x (7 full-bandwidth + 3
    # constrained-bandwidth variants).
    assert len(presets.build_spec("predict").cases()) == 30


@pytest.mark.parametrize(
    "name", ["explorer", "faults", "lineage", "differential"]
)
def test_explore_presets_share_one_default_seed_count(name):
    """An explore preset built directly and built by name through the
    CLI's path (``build_spec``, ``--seeds`` left at its default) has the
    same cases: one default seed count, whoever builds it."""
    from repro.campaign import cli, presets

    direct = presets.SPEC_BUILDERS[name]()
    by_name = presets.build_spec(name)
    assert [c.key for c in direct.cases()] == [c.key for c in by_name.cases()]
    assert cli._parse_args(["run", "--spec", name]).seeds == (
        presets.DEFAULT_SEEDS
    )
