"""Store durability: shards, torn-line recovery, compaction, staleness."""

import os
from pathlib import Path

import pytest

from repro.campaign.spec import ScenarioCase, canonical_json
from repro.campaign.store import CampaignStore, make_record


def _case(i: int, fingerprint: str = "fp-test") -> ScenarioCase:
    return ScenarioCase("test", {"i": i}, fingerprint=fingerprint)


def _record(case: ScenarioCase) -> dict:
    return make_record(case, {"value": case.params["i"] * 2})


def test_append_load_roundtrip(tmp_path):
    store = CampaignStore(tmp_path)
    cases = [_case(i) for i in range(5)]
    for case in cases:
        store.append(_record(case), stream="serial")
    store.close()

    fresh = CampaignStore(tmp_path)
    assert len(fresh) == 5
    assert fresh.missing(cases) == []
    assert fresh.result_for(cases[3]) == {"value": 6}
    assert fresh.get(cases[0].key)["params"] == {"i": 0}


def test_missing_reports_unexecuted_cases(tmp_path):
    store = CampaignStore(tmp_path)
    cases = [_case(i) for i in range(4)]
    store.append(_record(cases[0]))
    store.append(_record(cases[2]))
    assert [c.params["i"] for c in store.missing(cases)] == [1, 3]


def test_torn_trailing_line_is_skipped_and_recomputable(tmp_path):
    """A killed writer's partial append reads as a missing scenario."""
    store = CampaignStore(tmp_path)
    cases = [_case(i) for i in range(3)]
    store.append(_record(cases[0]), stream="w1")
    store.append(_record(cases[1]), stream="w1")
    store.close()
    # Simulate the kill: half of case 2's record at the end of the file.
    line = canonical_json(_record(cases[2]))
    with open(store.pending_path("w1"), "a") as fh:
        fh.write(line[: len(line) // 2])

    fresh = CampaignStore(tmp_path)
    fresh.load()
    assert fresh.corrupt_lines == 1
    assert len(fresh) == 2
    assert [c.params["i"] for c in fresh.missing(cases)] == [2]
    assert fresh.stats()["corrupt_lines"] == 1


def test_compacted_store_bytes_are_history_independent(tmp_path):
    """Same record set -> identical shard bytes, regardless of how many
    writers, interruptions, or orderings produced it."""
    cases = [_case(i) for i in range(8)]

    a = CampaignStore(tmp_path / "a")
    for case in cases:
        a.append(_record(case), stream="serial")
    a.compact()

    b = CampaignStore(tmp_path / "b")
    for index, case in enumerate(reversed(cases)):
        b.append(_record(case), stream=f"w{index % 3}")
    b.compact()

    files_a = {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*.jsonl")}
    files_b = {p.name: p.read_bytes() for p in (tmp_path / "b").glob("*.jsonl")}
    assert files_a == files_b
    assert not list((tmp_path / "a").glob("pending-*.jsonl"))


def test_compact_merges_pending_from_other_writers(tmp_path):
    """Compaction folds in records a different process appended."""
    writer = CampaignStore(tmp_path)
    writer.append(_record(_case(0)), stream="worker-123")
    writer.close()

    parent = CampaignStore(tmp_path)
    parent.append(_record(_case(1)), stream="serial")
    parent.compact()
    assert len(parent) == 2
    assert not list(Path(tmp_path).glob("pending-*.jsonl"))


def test_compact_refuses_while_another_writer_is_live(tmp_path):
    """Multi-writer safety: a live appender (a daemon run, a concurrent
    CLI ``run``) holds the store's shared writer lock, and compaction
    refuses rather than rewriting shards under it.  Once the writer
    closes, compaction folds everything and clears the pending files."""
    import pytest

    from repro.campaign.store import StoreBusyError

    live = CampaignStore(tmp_path)
    live.append(_record(_case(0)), stream="worker-live")  # holds the lock

    other = CampaignStore(tmp_path)
    other.append(_record(_case(1)), stream="serial")
    with pytest.raises(StoreBusyError):
        other.compact()
    assert live.pending_path("worker-live").exists()  # untouched

    live.append(_record(_case(2)), stream="worker-live")
    live.close()
    fresh = CampaignStore(tmp_path)
    assert len(fresh) == 3  # nothing lost
    fresh.compact()
    assert not list(Path(tmp_path).glob("pending-*.jsonl"))


def test_compact_allowed_after_own_streams_only(tmp_path):
    """A store's own open streams never block its own compaction —
    compact() closes them first, so the common end-of-run compact in a
    single-writer campaign still works unconditionally."""
    store = CampaignStore(tmp_path)
    store.append(_record(_case(0)), stream="serial")
    store.append(_record(_case(1)), stream="worker-7")  # two live streams
    store.compact()  # must not raise
    assert len(store) == 2
    assert not list(Path(tmp_path).glob("pending-*.jsonl"))


def test_failed_shard_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    """Every atomic write cleans up its temp file on failure — a
    compaction's shard write included."""
    store = CampaignStore(tmp_path)
    store.append(_record(_case(0)))
    real_replace = os.replace

    def replace_failing_for_shards(src, dst):
        if Path(dst).name.startswith("shard-"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_for_shards)
    with pytest.raises(OSError, match="disk full"):
        store.compact()
    assert not list(Path(tmp_path).glob("*.tmp"))


def test_same_stream_name_from_two_writers_does_not_collide(tmp_path):
    """Two live writers using the same stream name get distinct files,
    so neither can have its records compacted away mid-write."""
    a = CampaignStore(tmp_path)
    a.append(_record(_case(0)), stream="serial")
    b = CampaignStore(tmp_path)
    b.append(_record(_case(1)), stream="serial")  # falls back to unique
    assert len(list(Path(tmp_path).glob("pending-serial*.jsonl"))) == 2

    b.close()
    a.compact()  # a's own streams close; b finished: fold + unlink all
    a.append(_record(_case(2)), stream="serial")
    a.close()
    assert len(CampaignStore(tmp_path)) == 3  # nothing lost


def test_fingerprint_change_invalidates_every_scenario(tmp_path):
    store = CampaignStore(tmp_path)
    old = [_case(i, fingerprint="fp-old") for i in range(3)]
    for case in old:
        store.append(_record(case))
    assert store.missing(old) == []

    # Same params, new code fingerprint: all keys differ, all missing.
    new = [_case(i, fingerprint="fp-new") for i in range(3)]
    assert len(store.missing(new)) == 3
    assert len(store.stale_records(fingerprint="fp-new")) == 3
    assert store.stale_records(fingerprint="fp-old") == []

    store.compact(prune_stale=False)
    assert len(CampaignStore(tmp_path)) == 3


def test_compact_prune_stale_drops_old_fingerprints(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "fp-new")
    store = CampaignStore(tmp_path)
    store.append(_record(_case(0, fingerprint="fp-old")))
    store.append(_record(_case(1, fingerprint="fp-new")))
    store.compact(prune_stale=True)
    fresh = CampaignStore(tmp_path)
    assert len(fresh) == 1
    assert fresh.records()[0]["fingerprint"] == "fp-new"


def test_dirty_tracks_uncompacted_data(tmp_path):
    store = CampaignStore(tmp_path)
    assert not store.dirty
    store.append(_record(_case(0)))
    assert store.dirty
    store.compact()
    assert not store.dirty
    # Pending files left by another (killed) writer also count as dirty.
    other = CampaignStore(tmp_path)
    other.append(_record(_case(1)), stream="worker-9")
    other.close()
    assert CampaignStore(tmp_path).dirty
