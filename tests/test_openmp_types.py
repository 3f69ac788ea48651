"""Tests for OpenMP configuration types."""

from __future__ import annotations

import json

import pytest

from repro.openmp.types import OMPConfig, ScheduleKind, default_config


class TestOMPConfig:
    def test_label_with_chunk(self):
        cfg = OMPConfig(16, ScheduleKind.GUIDED, 8)
        assert cfg.label() == "16, guided, 8"

    def test_label_default_chunk(self):
        cfg = OMPConfig(32, ScheduleKind.STATIC, None)
        assert cfg.label() == "32, static, default"

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OMPConfig(0)

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            OMPConfig(4, ScheduleKind.DYNAMIC, 0)

    def test_hashable_and_comparable(self):
        a = OMPConfig(4, ScheduleKind.STATIC, None)
        b = OMPConfig(4, ScheduleKind.STATIC, None)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestDefaultConfig:
    def test_paper_definition(self):
        """'maximum number of available threads, static scheduling, and
        chunk sizes calculated dynamically' (spec-default static)."""
        cfg = default_config(32)
        assert cfg.n_threads == 32
        assert cfg.schedule is ScheduleKind.STATIC
        assert cfg.chunk is None


class TestScheduleKind:
    def test_values(self):
        assert ScheduleKind("static") is ScheduleKind.STATIC
        assert ScheduleKind("dynamic") is ScheduleKind.DYNAMIC
        assert ScheduleKind("guided") is ScheduleKind.GUIDED


class TestJsonCodec:
    def test_round_trip_over_the_crill_space(self):
        from repro.core.config import config_from_point, search_space_for
        from repro.machine.spec import crill

        space = search_space_for(crill())
        seen = 0
        for indices in space.iter_indices():
            cfg = config_from_point(space.decode(indices))
            blob = cfg.to_json()
            assert list(blob) == ["n_threads", "schedule", "chunk"]
            assert blob["schedule"] == cfg.schedule.value
            assert OMPConfig.from_json(blob) == cfg
            assert OMPConfig.from_json(json.loads(json.dumps(blob))) == cfg
            seen += 1
        assert seen == space.size

    def test_default_chunk_is_null(self):
        cfg = OMPConfig(8, ScheduleKind.GUIDED)
        assert json.dumps(cfg.to_json()) == (
            '{"n_threads": 8, "schedule": "guided", "chunk": null}'
        )
