"""Crash-safe sweep journal: resume interrupted sweeps cell by cell.

The result cache (:mod:`repro.experiments.cache`) already memoizes
completed cells, but it is optional, shared across sweeps, and keyed
only by experiment digest - it cannot say *which sweep* a result
belongs to or whether a sweep finished.  The journal is the
sweep-scoped complement: the executor records each completed cell
(digest + full-fidelity result) the moment it finishes.

On resume (``ParallelSweepExecutor(..., resume=True)``) completed
cells are served from the journal and only the remainder executes.
Because results round-trip through the same serializer as the cache
(floats via ``repr``), a killed-and-resumed sweep produces output
byte-identical to an uninterrupted run at the same seed.

The file is a :class:`~repro.util.jsonlog.JsonLog`: it owns the
header, fsync, torn-tail repair and the identity rule that refuses to
resume another sweep's journal; this module is the codec between its
records and completed cells.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.cache import result_from_json, result_to_json
from repro.experiments.runner import StrategyRunResult
from repro.util.jsonlog import JsonLog

#: bump when the journal line layout changes; mismatched lines are
#: ignored on load (the cells simply re-run).
JOURNAL_SCHEMA_VERSION = 1


class SweepJournal:
    """Append-only completed-cell log for one sweep invocation."""

    def __init__(self, path: str | Path) -> None:
        self.log = JsonLog(path, JOURNAL_SCHEMA_VERSION, "sweep")
        self.path = self.log.path

    def resume(self, header: dict) -> dict[str, StrategyRunResult]:
        """Reopen the journal for the sweep ``header`` identifies
        (:meth:`JsonLog.resume`) and return its completed cells."""
        self.log.resume(header)
        return self.cells()

    def load(self) -> dict[str, StrategyRunResult]:
        """Completed cells, after truncating a torn tail (owner only)."""
        self.log.repair()
        return self.cells()

    def cells(self) -> dict[str, StrategyRunResult]:
        """Completed cells keyed by experiment digest; read-only.  A
        damaged cell record is skipped (the cell simply re-runs)."""
        completed: dict[str, StrategyRunResult] = {}
        for record in self.log.records():
            try:
                completed[record["digest"]] = result_from_json(
                    record["result"]
                )
            except (KeyError, TypeError, ValueError, IndexError):
                continue
        return completed

    def run_ids(self) -> dict[str, str]:
        """Telemetry run-ids of journaled cells, keyed by digest, so
        ``sweep --resume`` (and ``repro trace``) can associate each
        completed cell with its ``task-<run_id>.jsonl`` trace file."""
        return self._field_by_digest("run_id")

    def traceparents(self) -> dict[str, str]:
        """Trace-context handoffs of journaled cells, keyed by digest:
        a resumed sweep re-announces each reused cell with them, so the
        stitched trace tree stays whole across the kill/resume."""
        return self._field_by_digest("trace")

    def _field_by_digest(self, field: str) -> dict[str, str]:
        return {
            r["digest"]: r[field]
            for r in self.log.records()
            if isinstance(r.get("digest"), str)
            and isinstance(r.get(field), str)
        }

    def read_header(self) -> dict | None:
        return self.log.header()

    def write_header(self, header: dict) -> None:
        """Start the journal over with the sweep identity ``header``."""
        self.log.start(header)

    def append(
        self,
        digest: str,
        label: str,
        result: StrategyRunResult,
        run_id: str | None = None,
        trace: str | None = None,
    ) -> None:
        """Record one completed cell durably.  ``run_id`` (the cell's
        telemetry run) and ``trace`` (the traceparent handed to its
        worker) let a resumed sweep stitch the killed sweep's traces."""
        record = {
            "digest": digest,
            "task": label,
            "result": result_to_json(result),
        }
        if run_id is not None:
            record["run_id"] = run_id
        if trace is not None:
            record["trace"] = trace
        self.log.append(record)

    def clear(self) -> None:
        self.log.clear()
