"""The one strict JSON document reader and indented writer.

Every strict loader (plans, schedules, checkpoints, SLO rules, models,
corpora, the history) reads through ``repro.util.atomicio.read_json``;
these tests hold each of them to the same contract: a missing file,
torn JSON, a non-object document and (for schema-stamped files) a
wrong schema each raise the loader's own typed error, naming the path.
"""

from __future__ import annotations

import json

import pytest

from repro.core.capschedule import CapScheduleError, load_cap_schedule
from repro.core.checkpoint import CheckpointError
from repro.core.history import CorruptHistoryError, HistoryStore
from repro.experiments.resumable import load_run_checkpoint
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    load_fault_plan,
    save_fault_plan,
)
from repro.fleet.plan import (
    FleetPlanError,
    load_fleet_plan,
    save_fleet_plan,
    synthesize_fleet,
)
from repro.obs.slo import SloConfigError, load_rules
from repro.surrogate.corpus import load_corpus
from repro.surrogate.model import SurrogateError, load_model
from repro.util.atomicio import read_json, write_json

#: (loader, its typed error, whether the file carries a schema stamp)
LOADERS = {
    "fault plan": (load_fault_plan, FaultPlanError, False),
    "fleet plan": (load_fleet_plan, FleetPlanError, False),
    "cap schedule": (load_cap_schedule, CapScheduleError, False),
    "checkpoint": (load_run_checkpoint, CheckpointError, True),
    "SLO rules": (load_rules, SloConfigError, True),
    "surrogate model": (load_model, SurrogateError, True),
    "corpus": (load_corpus, ValueError, True),
    "history": (HistoryStore, CorruptHistoryError, False),
}

#: what each failure mode writes (``None``: no file at all)
BAD_FILES = {
    "missing": (None, "cannot read"),
    "torn": ('{"schema": 1, "x": [', "not valid JSON"),
    "list": ("[1, 2, 3]", "must be a JSON object, got list"),
}


@pytest.mark.parametrize(
    "what, failure",
    [
        (what, failure)
        for what in sorted(LOADERS)
        for failure in sorted(BAD_FILES)
        # a missing history file is an empty store, not an error
        if (what, failure) != ("history", "missing")
    ],
)
def test_bad_file_raises_typed_error_naming_path(tmp_path, what, failure):
    load, error, _ = LOADERS[what]
    text, needle = BAD_FILES[failure]
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(error) as err:
        load(path)
    assert str(path) in str(err.value)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "what", sorted(w for w, (_, _, stamped) in LOADERS.items() if stamped)
)
def test_wrong_schema_raises_typed_error_naming_path(tmp_path, what):
    load, error, _ = LOADERS[what]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema": 999}))
    with pytest.raises(error, match="unsupported schema 999") as err:
        load(path)
    assert str(path) in str(err.value)


def test_parse_errors_get_the_path_prefix(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"seed": 0, "typo": 1}))
    with pytest.raises(FaultPlanError) as err:
        load_fault_plan(path)
    assert str(err.value).startswith(f"fault plan {path}: unknown")


def test_read_json_returns_the_object_without_parse(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"schema": 3, "a": [1]}')
    assert read_json(path, "doc", ValueError, schema=3) == {
        "schema": 3,
        "a": [1],
    }


def test_write_json_round_trips_through_read_json(tmp_path):
    blob = {"b": [1.5, None], "a": "x"}
    path = write_json(tmp_path / "sub" / "doc.json", blob)
    assert path.read_text() == json.dumps(blob, indent=2) + "\n"
    assert read_json(path, "doc", ValueError) == blob


@pytest.mark.parametrize(
    "plan, save",
    [
        (
            FaultPlan(
                specs=(FaultSpec("rapl.read", "stale", probability=0.5),),
                seed=3,
            ),
            save_fault_plan,
        ),
        (synthesize_fleet(5, seed=2), save_fleet_plan),
    ],
    ids=["fault plan", "fleet plan"],
)
def test_plan_savers_write_indented_json_atomically(tmp_path, plan, save):
    path = tmp_path / "plan.json"
    save(plan, path)
    assert path.read_text() == json.dumps(plan.to_json(), indent=2) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]

