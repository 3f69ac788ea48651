"""Run-checkpoint persistence for crash-recoverable measurements.

The experiment runner writes one checkpoint file after every completed
region invocation of an ARCS-Online run (and at every repeat
boundary).  The file is a single JSON object::

    {
      "schema": 1,
      "meta": {...},         # identifies the experiment; resume
                             # refuses a mismatch
      "runs": [...],         # completed repeats (full AppRunResults)
      "fallbacks": {...},    # per-region tuning fallbacks so far
      "dropouts": N,
      "configs": {...},      # chosen configs after the last repeat
      "overhead": {...},
      "cap_changes": [...],
      "next_run": R,         # first repeat not fully completed
      "active": {...} | null # mid-repeat state (progress, node,
                             # runtime, injector, controller,
                             # supervisor, capsched snapshots)
    }

Writes go through :func:`repro.util.atomicio.atomic_write_text`, so a
kill at any instant leaves either the previous checkpoint or the new
one on disk - never a torn file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.checkpoint import CheckpointError
from repro.telemetry.bus import bus
from repro.util.atomicio import atomic_write_text, read_json

#: bump whenever the checkpoint layout or any snapshot format changes;
#: resuming from an older schema fails loudly instead of mis-restoring.
RUN_CHECKPOINT_SCHEMA = 1


class SimulatedKill(RuntimeError):
    """Raised by the runner's ``kill_after`` test hook *after* the
    checkpoint write for the target invocation, simulating a process
    killed at that exact point.  The chaos soak and the checkpoint
    tests catch it and resume from the file left behind."""

    def __init__(self, measurements: int, path: Path) -> None:
        self.measurements = measurements
        self.path = path
        super().__init__(
            f"simulated kill after {measurements} completed "
            f"measurement(s); checkpoint left at {path}"
        )


def write_run_checkpoint(path: str | Path, blob: dict) -> Path:
    """Atomically persist one checkpoint blob.

    ``allow_nan=False`` keeps the file strict JSON: an ``inf``/``NaN``
    sentinel leaking into a snapshot fails the write loudly instead of
    producing a file other parsers reject.
    """
    text = json.dumps(blob, allow_nan=False)
    result = atomic_write_text(path, text)
    tb = bus()
    if tb.enabled:
        tb.count("checkpoint.writes")
        tb.emit("checkpoint.write", bytes=len(text))
    return result


def load_run_checkpoint(path: str | Path) -> dict:
    """Load and schema-check a checkpoint; raises
    :class:`CheckpointError` naming the path on any problem."""
    return read_json(
        path, "checkpoint", CheckpointError, schema=RUN_CHECKPOINT_SCHEMA
    )
