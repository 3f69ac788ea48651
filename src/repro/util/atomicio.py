"""Atomic file writes and strict JSON document reads.

The history store, the result cache and the run checkpoints all need
the same guarantee: a reader (or a resumed run) must never observe a
half-written file, even if the writer is ``kill -9``'d mid-write.  The
standard POSIX recipe - write to a temp file in the same directory,
then ``os.replace`` over the target - provides it; this module is the
one implementation of that recipe.

It also holds the one strict reader for single-document JSON files
(plans, schedules, checkpoints, rule files, models, corpora, the
history): every file, JSON, shape and schema problem becomes the
caller's typed error with a message naming the path.  The tolerant
readers (cache entries, BENCH files, telemetry logs) count and skip
damaged files instead, and do not use it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + replace).

    Parent directories are created as needed.  On any failure the temp
    file is removed, so a crash can leave either the old file or the
    new one - never a torn mixture, never stray temp litter that a
    retry would trip over.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def write_json(path: str | Path, blob: Any) -> Path:
    """Atomically write ``blob`` as indented JSON plus a newline."""
    return atomic_write_text(path, json.dumps(blob, indent=2) + "\n")


def read_json(
    path: str | Path,
    what: str,
    error: Callable[[str], Exception],
    *,
    schema: int | None = None,
    parse: Callable[[dict], Any] | None = None,
) -> Any:
    """Read the JSON object in ``path`` and return ``parse(blob)`` (the
    object itself without ``parse``).

    A missing or unreadable file, invalid JSON, a non-object document
    or, when ``schema`` is given, a ``"schema"`` stamp other than it
    raise ``error(message)``; every message names ``what`` and the
    path.  ``error`` is an exception type or a factory; when it is a
    type, the ``error``\\ s that ``parse`` raises are re-raised with
    the ``"{what} {path}: "`` prefix.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(
            f"cannot read {what} {path}: not valid JSON: {exc}"
        ) from exc
    if not isinstance(blob, dict):
        raise error(
            f"{what} {path} must be a JSON object, got "
            f"{type(blob).__name__}"
        )
    if schema is not None and blob.get("schema") != schema:
        raise error(
            f"{what} {path} has unsupported schema "
            f"{blob.get('schema')!r}; this version reads schema {schema}"
        )
    if parse is None:
        return blob
    caught = error if isinstance(error, type) else ()
    try:
        return parse(blob)
    except caught as exc:
        raise error(f"{what} {path}: {exc}") from None
