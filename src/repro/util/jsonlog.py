"""One durable JSONL log and one content digest.

Every persistence layer that appends records to survive a crash (the
sweep journal, the fleet journal) and every content fingerprint (cache
digests, plan fingerprints, journal-header identities, store-line
checksums) goes through this module, so they share one format and one
set of rules:

* :func:`digest` - sha256 over the canonical JSON form of an object
  (sorted keys, no whitespace), optionally truncated;
* :class:`JsonLog` - an append-only JSONL file whose first line is a
  schema-stamped ``kind: "header"`` identity record and whose other
  lines are flushed and fsynced before :meth:`JsonLog.append` returns;
* :func:`read_jsonl` - the read-only reader: undecodable lines (a torn
  tail, a corrupt line) are skipped and counted, never raised, and the
  file is never modified.

The identity rule, the same for every log, decides whether a resuming
owner may reuse what is on disk (:meth:`JsonLog.resume`):

* a missing or empty file gets the header written and the run starts
  fresh;
* a file whose header equals the expected one resumes;
* anything else - another run's header, a headerless file, another
  schema - raises :class:`JournalMismatchError` naming what differs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def digest(obj, n: int | None = None) -> str:
    """Hex sha256 of ``obj``'s canonical JSON, truncated to ``n``
    characters (the full 64 when ``n`` is ``None``)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:n]


def _decode(raw: bytes) -> dict | None:
    """The JSON object on one line, or ``None`` if it holds none."""
    try:
        blob = json.loads(raw.decode(errors="replace"))
    except json.JSONDecodeError:
        return None
    return blob if isinstance(blob, dict) else None


def decode_lines(data: bytes) -> tuple[list[dict], int]:
    """The JSON objects on the lines of ``data``, and how many
    non-blank lines held none (torn or corrupt: skipped, counted)."""
    records: list[dict] = []
    damaged = 0
    for raw in data.splitlines():
        if not raw.strip():
            continue
        record = _decode(raw)
        if record is None:
            damaged += 1
        else:
            records.append(record)
    return records, damaged


def _first_record(data: bytes) -> dict | None:
    """The JSON object on the first non-blank line of ``data``."""
    for raw in data.splitlines():
        if raw.strip():
            return _decode(raw)
    return None


def read_jsonl(path: str | Path) -> tuple[list[dict], int]:
    """:func:`decode_lines` over one file, read-only; raises
    :class:`OSError` when the file cannot be read."""
    return decode_lines(Path(path).read_bytes())


class JournalMismatchError(ValueError):
    """The log on disk was written by a different run (or by nothing
    this program recognizes); resuming would silently mix incompatible
    records, so the owner refuses instead."""


class JsonLog:
    """Append-only, schema-stamped JSONL log with an identity header.

    ``name`` says whose log it is (``"sweep"``, ``"fleet"``) in error
    messages.  :meth:`records` and :meth:`header` only read; the
    owning writer alone calls :meth:`start`, :meth:`resume` or
    :meth:`repair`, which may rewrite the file.
    """

    def __init__(self, path: str | Path, schema: int, name: str) -> None:
        self.path = Path(path)
        self.schema = schema
        self.name = name

    # ------------------------------------------------------------------
    # reading (never modifies the file)
    # ------------------------------------------------------------------
    def _read(self) -> bytes:
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    def records(self) -> list[dict]:
        """Body records of this schema, in order.  The header, lines
        of another schema and undecodable lines are skipped."""
        records, _damaged = decode_lines(self._read())
        return [
            r for r in records
            if r.get("schema") == self.schema and r.get("kind") != "header"
        ]

    def header(self) -> dict | None:
        """The identity header (without its ``schema``/``kind`` stamp),
        or ``None`` when the first line is not one."""
        first = _first_record(self._read())
        if first is None or first.get("kind") != "header":
            return None
        return {
            k: v for k, v in first.items() if k not in ("schema", "kind")
        }

    # ------------------------------------------------------------------
    # writing (the owner only)
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Append ``record`` stamped with the schema, flushed and
        fsynced so it survives the process dying right after."""
        line = json.dumps(
            {"schema": self.schema, **record}, separators=(",", ":")
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")

    def start(self, header: dict) -> None:
        """Start the log over with ``header`` as its first line."""
        self.clear()
        self.append({"kind": "header", **header})

    def resume(self, header: dict) -> None:
        """Reopen the log for the run identified by ``header`` under
        the identity rule (module docstring), repairing a torn tail."""
        data = self._read()
        if not data.strip():
            self.start(header)
            return
        expected = {"schema": self.schema, "kind": "header", **header}
        found = _first_record(data)
        if found is None or found.get("kind") != "header":
            problem = f"has no {self.name} header"
        elif found != expected:
            mismatched = sorted(
                k for k in set(found) | set(expected)
                if k not in found or k not in expected
                or found[k] != expected[k]
            )
            problem = (
                f"was written by a different {self.name} run "
                f"(mismatched: {', '.join(mismatched)})"
            )
        else:
            self.repair()
            return
        raise JournalMismatchError(
            f"journal {self.path} {problem}; resuming would mix "
            "incompatible results - use a fresh journal path or re-run "
            "without resume"
        )

    def repair(self) -> None:
        """Truncate a torn tail - the first line that is unterminated
        or undecodable, and everything after it - so appends land on
        an intact prefix.  A crash mid-append can only tear the last
        line; what precedes it was fsynced whole."""
        data = self._read()
        intact = 0
        for raw in data.split(b"\n")[:-1]:
            if raw.strip() and _decode(raw) is None:
                break
            intact += len(raw) + 1
        if intact < len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(intact)
