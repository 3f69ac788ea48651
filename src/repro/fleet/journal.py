"""Crash-safe fleet journal: resume a killed fleet run byte-identically.

A :class:`~repro.util.jsonlog.JsonLog` (the sweep journal's format)
whose header identifies the fleet run (fleet-plan and fault-plan
fingerprints, seed, global cap) and whose records are one *complete*
simulation snapshot per finished step - node cells, allocator,
membership, fault-injector counters and the cumulative event log.

Because every snapshot is self-contained, resume only needs the last
intact record: restore it, continue from ``step + 1``, and the final
:class:`~repro.fleet.sim.FleetResult` JSON is byte-identical to an
uninterrupted run.  Torn-tail repair and the identity rule (another
fleet's journal raises :class:`~repro.util.jsonlog.JournalMismatchError`)
are the log's.
"""

from __future__ import annotations

from pathlib import Path

from repro.util.jsonlog import JsonLog

#: bump when the snapshot layout changes; mismatched lines are ignored.
FLEET_JOURNAL_SCHEMA = 1


class FleetJournal:
    """Append-only per-step snapshot log for one fleet invocation."""

    def __init__(self, path: str | Path) -> None:
        self.log = JsonLog(path, FLEET_JOURNAL_SCHEMA, "fleet")
        self.path = self.log.path

    def resume(self, header: dict) -> tuple[int, dict] | None:
        """Reopen the journal for the fleet run ``header`` identifies
        (:meth:`JsonLog.resume`) and return its last snapshot."""
        self.log.resume(header)
        return self.last_snapshot()

    def load_last_snapshot(self) -> tuple[int, dict] | None:
        """The last snapshot, after truncating a torn tail (owner only)."""
        self.log.repair()
        return self.last_snapshot()

    def last_snapshot(self) -> tuple[int, dict] | None:
        """The newest ``(step, state)`` snapshot, or ``None``; read-only."""
        latest: tuple[int, dict] | None = None
        for record in self.log.records():
            try:
                latest = (int(record["step"]), record["state"])
            except (KeyError, TypeError, ValueError):
                continue
        return latest

    def read_header(self) -> dict | None:
        return self.log.header()

    def write_header(self, header: dict) -> None:
        """Start the journal over with the fleet identity ``header``."""
        self.log.start(header)

    def append_snapshot(self, step: int, state: dict) -> None:
        """Record one finished step durably."""
        self.log.append({"step": step, "state": state})
