"""The ARCS history file.

"When the program completes, the policy saves the best parameters
found during the search.  When the same program is run again in the
same configuration in the future, the saved values can be used instead
of repeating the search process."  (Section III-B)

Stored as JSON keyed by an experiment key (application | machine |
power cap | workload), mapping region names to their best configuration
and its measured objective.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.openmp.types import OMPConfig, ScheduleKind
from repro.util.atomicio import atomic_write_text

if TYPE_CHECKING:
    from repro.service.source import ConfigKey, ConfigSource


class HistoryKeyMissing(KeyError):
    """``HistoryStore.load`` was asked for a key the store does not
    hold.  Carries the key, the store's path (``None`` for in-memory
    stores) and the keys that *are* present, so an ARCS-Offline
    measured run pointed at the wrong history file gets an actionable
    message instead of a bare ``KeyError``."""

    def __init__(
        self, key: str, path: Path | None, known: tuple[str, ...]
    ) -> None:
        self.key = key
        self.path = path
        self.known = known
        where = "in-memory history" if path is None else f"history {path}"
        saved = ", ".join(repr(k) for k in known) if known else "none"
        super().__init__(
            f"no saved history for {key!r} in {where} "
            f"(saved keys: {saved}); run the tuning phase first"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0]


class CorruptHistoryError(RuntimeError):
    """A history file on disk exists but does not parse as a history.

    Raised on load instead of a raw :class:`json.JSONDecodeError` so
    the message names the offending path (a truncated file left behind
    by a crash used to surface as an inscrutable decode error).
    """

    def __init__(self, path: Path, reason: str) -> None:
        self.path = path
        super().__init__(
            f"corrupt ARCS history file {path}: {reason}; delete or "
            "restore it to proceed"
        )


def _config_to_json(config: OMPConfig, value: float | None) -> dict:
    return {
        "n_threads": config.n_threads,
        "schedule": config.schedule.value,
        "chunk": config.chunk,
        "value": value,
    }


def _config_from_json(blob: dict) -> tuple[OMPConfig, float | None]:
    config = OMPConfig(
        n_threads=int(blob["n_threads"]),
        schedule=ScheduleKind(blob["schedule"]),
        chunk=None if blob["chunk"] is None else int(blob["chunk"]),
    )
    value = blob.get("value")
    return config, None if value is None else float(value)


class HistoryStore:
    """Best-configuration persistence, in memory or on disk.

    Pass ``path=None`` for a purely in-memory store (used by the
    experiment harness, which holds tuning and measured runs in one
    process); pass a path to persist across processes.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = None if path is None else Path(path)
        self._data: dict[str, dict[str, dict]] = {}
        if self.path is not None and self.path.exists():
            try:
                data = json.loads(self.path.read_text())
            except json.JSONDecodeError as exc:
                raise CorruptHistoryError(self.path, str(exc)) from exc
            if not isinstance(data, dict):
                raise CorruptHistoryError(
                    self.path,
                    f"expected a JSON object, got {type(data).__name__}",
                )
            self._data = data

    # ------------------------------------------------------------------
    def save(
        self,
        key: str,
        configs: dict[str, OMPConfig],
        values: dict[str, float | None] | None = None,
    ) -> None:
        """Record best configs for experiment ``key`` and persist."""
        values = values or {}
        self._data[key] = {
            region: _config_to_json(cfg, values.get(region))
            for region, cfg in configs.items()
        }
        self._persist()

    def warm_from(
        self,
        key: str,
        source: ConfigSource | None,
        source_key: ConfigKey | None,
    ) -> None:
        """Fill a missing ``key`` from a config-source chain lookup
        (remote service, then warm memo, ...).  A chain miss or tier
        failure leaves the store unchanged."""
        if source is None or self.has(key):
            return
        entry = source.lookup(source_key)
        if entry is not None:
            self.save(key, *entry)

    def load(self, key: str) -> dict[str, OMPConfig]:
        """Best configs per region for ``key``
        (:class:`HistoryKeyMissing` if absent)."""
        try:
            blob = self._data[key]
        except KeyError:
            raise HistoryKeyMissing(
                key, self.path, tuple(self.keys())
            ) from None
        return {
            region: _config_from_json(entry)[0]
            for region, entry in blob.items()
        }

    def load_values(self, key: str) -> dict[str, float | None]:
        blob = self._data.get(key, {})
        return {
            region: _config_from_json(entry)[1]
            for region, entry in blob.items()
        }

    def has(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> list[str]:
        return sorted(self._data)

    def _persist(self) -> None:
        """Write atomically (temp file + ``os.replace``) so a crash —
        or a parallel worker dying mid-write — never leaves a
        half-written history behind."""
        if self.path is None:
            return
        atomic_write_text(self.path, json.dumps(self._data, indent=2))


def experiment_key(
    app: str, machine: str, cap_w: float | None, workload: str = ""
) -> str:
    """Canonical history key for one (app, machine, cap, workload)."""
    cap = "tdp" if cap_w is None else f"{cap_w:g}W"
    return f"{app}|{machine}|{cap}|{workload}"
