"""Content-addressed cache for :class:`StrategyRunResult`\\ s.

The ARCS history file already memoizes the *tuning* phase ("the saved
values can be used instead of repeating the search process", paper
Section III-B).  This module extends the same idea to whole
measurements: a sweep cell is a pure function of its experiment
parameters, so its summarized result can be keyed by a deterministic
digest of those parameters and replayed from disk on the next run.

Layout (default root ``results/.cache``)::

    results/.cache/
        <digest>.json          # one cached StrategyRunResult per cell
        history/<digest>.json  # shared tuned HistoryStore per
                               # (app, machine, cap) - see parallel.py

Every entry is stamped with :data:`CACHE_SCHEMA_VERSION`; entries
written by an older schema (or unreadable/corrupt files) are treated
as misses and silently overwritten, never crashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.capschedule import schedule_fingerprint
from repro.experiments.runner import ExperimentSetup, StrategyRunResult
from repro.experiments.serialize import (
    app_fingerprint,
    overhead_from_json as _overhead_from_json,
    overhead_to_json as _overhead_to_json,
    run_from_json as _run_from_json,
    run_to_json as _run_to_json,
)
from repro.faults.plan import plan_fingerprint
from repro.openmp.types import OMPConfig
from repro.util.atomicio import atomic_write_text
from repro.util.jsonlog import digest
from repro.workloads.base import Application

#: bump whenever the digest inputs or the serialized result layout
#: change; stale entries become cache misses.
CACHE_SCHEMA_VERSION = 1

#: default on-disk location, alongside the regenerated figure data.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


# ---------------------------------------------------------------------------
# digesting
# ---------------------------------------------------------------------------
def _identity(app: Application, setup: ExperimentSetup) -> dict:
    """The tuning context every digest keys on: application (name,
    workload, content fingerprint), machine, power cap, seed, noise
    level and, for faulty setups only, the fault plan (omitting the
    key keeps clean-run digests byte-identical)."""
    key = {
        "schema": CACHE_SCHEMA_VERSION,
        "app": app.name,
        "workload": app.workload,
        "fingerprint": app_fingerprint(app),
        "machine": setup.spec.name,
        "cap_w": setup.cap_w,
        "seed": setup.seed,
        "noise_sigma": setup.noise_sigma,
    }
    faults = plan_fingerprint(setup.fault_plan)
    if faults is not None:
        key["faults"] = faults
    return key


def tuning_digest(app: Application, setup: ExperimentSetup) -> str:
    """Digest for the shared tuned history of one (app, machine, cap).

    Strategy, repeats and the online budget are deliberately excluded:
    every offline cell of the same experiment context replays the same
    exhaustive tuning result.  It is also the config-source chain's
    content key (:func:`repro.service.source.config_key`).
    """
    return digest(_identity(app, setup))


def experiment_digest(
    app: Application, setup: ExperimentSetup, strategy: str
) -> str:
    """Deterministic hex digest identifying one sweep cell: the
    :func:`tuning_digest` context plus strategy, repeats, the online
    search budget and, for dynamic caps only, the cap schedule."""
    key = _identity(app, setup)
    key["strategy"] = strategy
    key["repeats"] = setup.repeats
    key["online_max_evals"] = setup.online_max_evals
    capsched = schedule_fingerprint(setup.cap_schedule)
    if capsched is not None:
        key["capsched"] = capsched
    return digest(key)


# ---------------------------------------------------------------------------
# StrategyRunResult <-> JSON
# ---------------------------------------------------------------------------
# The sub-object codecs (imported above) live in
# repro.experiments.serialize so the run-checkpoint layer can share
# them; the StrategyRunResult codec stays here because it needs the
# runner's types and the cache schema version.
def result_to_json(result: StrategyRunResult) -> dict:
    """Full-fidelity JSON form of a result (floats round-trip exactly
    through ``json`` because Python serializes them via ``repr``)."""
    return {
        "strategy": result.strategy,
        "app_label": result.app_label,
        "machine": result.machine,
        "cap_w": result.cap_w,
        "time_s": result.time_s,
        "energy_j": result.energy_j,
        "runs": [_run_to_json(r) for r in result.runs],
        "chosen_configs": {
            name: cfg.to_json()
            for name, cfg in result.chosen_configs.items()
        },
        "overhead": _overhead_to_json(result.overhead),
        "tuning_runs": result.tuning_runs,
        "degradations": list(result.degradations),
        "cap_changes": list(result.cap_changes),
    }


def result_from_json(blob: dict) -> StrategyRunResult:
    return StrategyRunResult(
        strategy=blob["strategy"],
        app_label=blob["app_label"],
        machine=blob["machine"],
        cap_w=blob["cap_w"],
        time_s=blob["time_s"],
        energy_j=blob["energy_j"],
        runs=tuple(_run_from_json(r) for r in blob["runs"]),
        chosen_configs={
            name: OMPConfig.from_json(cfg)
            for name, cfg in blob["chosen_configs"].items()
        },
        overhead=_overhead_from_json(blob["overhead"]),
        tuning_runs=int(blob["tuning_runs"]),
        degradations=tuple(blob.get("degradations", ())),
        cap_changes=tuple(blob.get("cap_changes", ())),
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss counters (misses include invalidated entries)."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    writes: int = 0


@dataclass
class ExperimentCache:
    """On-disk result cache keyed by :func:`experiment_digest`.

    All reads degrade gracefully: a missing, corrupt, or
    schema-mismatched entry is a miss, never an exception.  Writes are
    atomic (temp file + ``os.replace``) so concurrent sweep workers
    and interrupted runs cannot leave torn entries behind.
    """

    root: Path = DEFAULT_CACHE_DIR
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- paths ---------------------------------------------------------
    def result_path(
        self, app: Application, setup: ExperimentSetup, strategy: str
    ) -> Path:
        return self.root / f"{experiment_digest(app, setup, strategy)}.json"

    def history_path(
        self, app: Application, setup: ExperimentSetup
    ) -> Path:
        """Where the shared tuned history for this (app, machine, cap)
        lives; offline cells replay it instead of re-tuning."""
        return self.root / "history" / f"{tuning_digest(app, setup)}.json"

    # -- read / write --------------------------------------------------
    def get(
        self, app: Application, setup: ExperimentSetup, strategy: str
    ) -> StrategyRunResult | None:
        path = self.result_path(app, setup, strategy)
        try:
            blob = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(blob, dict)
            or blob.get("schema") != CACHE_SCHEMA_VERSION
        ):
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        try:
            result = result_from_json(blob["result"])
        except (KeyError, TypeError, ValueError, IndexError):
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        app: Application,
        setup: ExperimentSetup,
        strategy: str,
        result: StrategyRunResult,
    ) -> Path:
        path = self.result_path(app, setup, strategy)
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "digest": path.stem,
                "app": app.label,
                "machine": setup.spec.name,
                "strategy": strategy,
                "result": result_to_json(result),
            },
            indent=2,
        )
        atomic_write_text(path, payload)
        self.stats.writes += 1
        return path

    def clear(self) -> int:
        """Remove every cached entry (results and shared histories);
        returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in sorted(self.root.rglob("*.json")):
            path.unlink()
            removed += 1
        return removed
