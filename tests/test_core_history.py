"""Tests for the ARCS history store."""

from __future__ import annotations

import json

import pytest

from repro.core.history import (
    CorruptHistoryError,
    HistoryKeyMissing,
    HistoryStore,
    experiment_key,
)
from repro.openmp.types import OMPConfig, ScheduleKind


def configs():
    return {
        "x_solve": OMPConfig(16, ScheduleKind.GUIDED, 1),
        "y_solve": OMPConfig(8, ScheduleKind.STATIC, None),
    }


class TestInMemory:
    def test_save_load_roundtrip(self):
        store = HistoryStore()
        store.save("k", configs(), {"x_solve": 1.5})
        assert store.load("k") == configs()
        assert store.load_values("k")["x_solve"] == 1.5
        assert store.load_values("k")["y_solve"] is None

    def test_missing_key(self):
        with pytest.raises(KeyError):
            HistoryStore().load("missing")

    def test_has_and_keys(self):
        store = HistoryStore()
        assert not store.has("k")
        store.save("k", configs())
        assert store.has("k")
        assert store.keys() == ["k"]

    def test_overwrite(self):
        store = HistoryStore()
        store.save("k", configs())
        store.save("k", {"only": OMPConfig(2)})
        assert list(store.load("k")) == ["only"]


class TestPersistence:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "history.json"
        store = HistoryStore(path)
        store.save("k", configs(), {"y_solve": 0.25})
        reloaded = HistoryStore(path)
        assert reloaded.load("k") == configs()
        assert reloaded.load_values("k")["y_solve"] == 0.25

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "h.json"
        HistoryStore(path).save("k", configs())
        assert path.exists()

    def test_chunk_none_survives_json(self, tmp_path):
        path = tmp_path / "h.json"
        HistoryStore(path).save(
            "k", {"r": OMPConfig(4, ScheduleKind.STATIC, None)}
        )
        assert HistoryStore(path).load("k")["r"].chunk is None

    def test_persist_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "h.json"
        store = HistoryStore(path)
        for i in range(3):
            store.save(f"k{i}", configs())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]


class TestCorruption:
    def test_truncated_file_raises_clear_error(self, tmp_path):
        """A crash mid-write used to surface later as a raw
        JSONDecodeError; the error must now name the bad path."""
        path = tmp_path / "h.json"
        path.write_text('{"k": {"r": {"n_threads":')
        with pytest.raises(CorruptHistoryError) as err:
            HistoryStore(path)
        assert str(path) in str(err.value)
        assert err.value.path == path

    def test_wrong_top_level_type_raises(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptHistoryError, match="JSON object"):
            HistoryStore(path)

    def test_failed_write_preserves_previous_contents(
        self, tmp_path, monkeypatch
    ):
        import repro.util.atomicio as atomicio_mod

        path = tmp_path / "h.json"
        store = HistoryStore(path)
        store.save("k", configs())
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("injected crash")

        monkeypatch.setattr(atomicio_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save("k2", {"r": OMPConfig(2)})
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []


class TestExperimentKey:
    def test_capped(self):
        assert experiment_key("sp", "crill", 85.0, "B") == (
            "sp|crill|85W|B"
        )

    def test_uncapped_is_tdp(self):
        assert experiment_key("sp", "crill", None, "B") == (
            "sp|crill|tdp|B"
        )

    def test_distinct_per_cap(self):
        keys = {
            experiment_key("sp", "crill", cap, "B")
            for cap in (55.0, 70.0, 85.0, None)
        }
        assert len(keys) == 4


class TestMalformedEntries:
    """A history file whose JSON parses but whose entries are not
    region configs raises :class:`CorruptHistoryError` naming the path
    and the key, not a raw ``AttributeError``/``ValueError``."""

    @pytest.mark.parametrize(
        "entry",
        [5, {"r": {"n_threads": "x"}}],
        ids=["not-a-mapping", "bad-thread-count"],
    )
    def test_load_and_load_values_raise(self, tmp_path, entry):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"k": entry}))
        store = HistoryStore(path)
        for read in (store.load, store.load_values):
            with pytest.raises(CorruptHistoryError) as err:
                read("k")
            assert str(path) in str(err.value)
            assert "'k'" in str(err.value)
            assert err.value.path == path

    def test_missing_key_is_still_key_missing(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"k": 5}))
        store = HistoryStore(path)
        with pytest.raises(HistoryKeyMissing):
            store.load("other")
        assert store.load_values("other") == {}
