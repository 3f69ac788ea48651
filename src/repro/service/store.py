"""The daemon's disk-persistent sharded config-knowledge store.

Layout (``root`` is the daemon's ``--store`` directory)::

    root/
        shard-00.jsonl ... shard-<n>.jsonl   # append-only entry logs
        quarantine/<shard>.<k>               # corrupt shards, kept for
                                             # post-mortem, never read

Each shard is an append-only JSONL log whose lines are schema-stamped
**and checksummed** (:func:`~repro.util.jsonlog.digest` of the key and
payload).  It is not a :class:`~repro.util.jsonlog.JsonLog`: a journal
only ever loses its torn tail, while a shard must survive damage
anywhere, so it keeps its own recovery policy.  A torn tail from a
crash mid-write *or* a bit flipped anywhere in the file is detected
per line, the offending shard is quarantined (renamed aside, preserved
for inspection), every line that still validates is salvaged into a
fresh shard, and the other shards are never touched.  Within a shard the
last line for a key wins, so an update is just another append -
compaction happens on :meth:`close`.

Admission is LRU-bounded (``capacity`` entries across all shards);
writes are batched in memory (``write_behind`` pending entries per
flush) and the final flush on :meth:`close` is fsynced, so a daemon
shut down cleanly never loses acknowledged writes and a daemon killed
hard loses at most the unflushed write-behind window - never its
integrity.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.bus import bus
from repro.util.atomicio import atomic_write_text
from repro.util.jsonlog import digest

#: bump when the entry line layout changes; mismatched lines are
#: treated as corrupt (quarantined + salvaged), never silently mixed.
STORE_SCHEMA_VERSION = 1

#: default shard count; keys spread by digest prefix.
DEFAULT_SHARDS = 16

#: default LRU capacity (entries across all shards).
DEFAULT_CAPACITY = 4096

#: default write-behind window: pending puts buffered before an
#: automatic flush.
DEFAULT_WRITE_BEHIND = 64


def _line_checksum(key: str, payload: dict) -> str:
    return digest([key, payload], 12)


@dataclass
class StoreStats:
    """Operation counters, surfaced through the daemon's ``stats`` op."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    flushes: int = 0
    quarantined_shards: int = 0
    salvaged_entries: int = 0


class ServiceStore:
    """Sharded, LRU-bounded, write-behind (key -> JSON payload) store.

    Not thread-safe by design: the daemon drives it from a single
    asyncio event loop.  All loading is tolerant - a corrupt shard
    costs its unsalvageable lines, never an exception and never the
    other shards.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        shards: int = DEFAULT_SHARDS,
        capacity: int = DEFAULT_CAPACITY,
        write_behind: int = DEFAULT_WRITE_BEHIND,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if write_behind < 1:
            raise ValueError(
                f"write_behind must be >= 1, got {write_behind}"
            )
        self.root = Path(root)
        self.shards = shards
        self.capacity = capacity
        self.write_behind = write_behind
        self.stats = StoreStats()
        #: per-shard (hits, misses) counters, keyed by shard index -
        #: the raw material of the ``service_hit_rate`` figure, served
        #: live through the daemon's ``stats`` op.
        self._shard_hits: dict[int, int] = {}
        self._shard_misses: dict[int, int] = {}
        #: live entries in LRU order (oldest first; dict preserves
        #: insertion order and re-insertion moves to the end).
        self._entries: dict[str, dict] = {}
        #: keys with writes not yet flushed to their shard.
        self._pending: dict[str, dict] = {}
        #: shards whose on-disk form has stale lines (evicted or
        #: superseded entries); rewritten on close.
        self._dirty_shards: set[int] = set()
        self._closed = False
        self._load()

    # ------------------------------------------------------------------
    # paths / sharding
    # ------------------------------------------------------------------
    def shard_index(self, key: str) -> int:
        return hashlib.sha256(key.encode()).digest()[0] % self.shards

    def shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}.jsonl"

    # ------------------------------------------------------------------
    # loading + corruption recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for index in range(self.shards):
            self._load_shard(index)
        self._enforce_capacity()

    def _load_shard(self, index: int) -> None:
        path = self.shard_path(index)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        entries: dict[str, dict] = {}
        corrupt = 0
        for raw in data.splitlines():
            line = raw.decode(errors="replace").strip()
            if not line:
                continue
            entry = self._parse_line(line)
            if entry is None:
                # a torn tail, a bit flip, or a foreign schema.  Keep
                # scanning: lines are independently checksummed, so
                # later intact lines are still trustworthy.
                corrupt += 1
                continue
            key, payload = entry
            entries[key] = payload
        if corrupt:
            self._quarantine(index, path, entries, corrupt)
        self._entries.update(entries)

    @staticmethod
    def _parse_line(line: str) -> tuple[str, dict] | None:
        try:
            blob = json.loads(line)
        except json.JSONDecodeError:
            return None
        if (
            not isinstance(blob, dict)
            or blob.get("schema") != STORE_SCHEMA_VERSION
        ):
            return None
        key = blob.get("key")
        payload = blob.get("payload")
        if not isinstance(key, str) or not isinstance(payload, dict):
            return None
        if blob.get("crc") != _line_checksum(key, payload):
            return None
        return key, payload

    def _quarantine(
        self,
        index: int,
        path: Path,
        salvaged: dict[str, dict],
        corrupt: int,
    ) -> None:
        """Move a damaged shard aside and rebuild it from the lines
        that still validate.  Quarantined copies are numbered, never
        overwritten, so repeated corruption keeps every post-mortem."""
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        n = 0
        while (qdir / f"{path.name}.{n}").exists():
            n += 1
        os.replace(path, qdir / f"{path.name}.{n}")
        self._rewrite_shard(index, salvaged)
        self.stats.quarantined_shards += 1
        self.stats.salvaged_entries += len(salvaged)
        tb = bus()
        if tb.enabled:
            tb.count("service.store.quarantines")
            tb.emit(
                "service.store.shard_quarantined",
                shard=index,
                corrupt_lines=corrupt,
                salvaged=len(salvaged),
            )

    def _rewrite_shard(
        self, index: int, entries: dict[str, dict]
    ) -> None:
        lines = [
            self._encode_line(key, payload)
            for key, payload in entries.items()
        ]
        atomic_write_text(
            self.shard_path(index),
            "".join(line + "\n" for line in lines),
        )

    @staticmethod
    def _encode_line(key: str, payload: dict) -> str:
        # payload insertion order is preserved (no sort_keys): served
        # entries must round-trip byte-identically; only the CRC uses
        # a canonical (sorted) rendering.
        return json.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "key": key,
                "payload": payload,
                "crc": _line_checksum(key, payload),
            },
            separators=(",", ":"),
        )

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        shard = self.shard_index(key)
        payload = self._entries.get(key)
        if payload is None:
            self.stats.misses += 1
            self._shard_misses[shard] = (
                self._shard_misses.get(shard, 0) + 1
            )
            return None
        # LRU touch: re-insert at the freshest end.
        del self._entries[key]
        self._entries[key] = payload
        self.stats.hits += 1
        self._shard_hits[shard] = self._shard_hits.get(shard, 0) + 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        if self._closed:
            raise RuntimeError("store is closed")
        if key in self._entries:
            del self._entries[key]
            self._dirty_shards.add(self.shard_index(key))
        self._entries[key] = payload
        self._pending[key] = payload
        self.stats.puts += 1
        self._enforce_capacity()
        if len(self._pending) >= self.write_behind:
            self.flush()

    def _enforce_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._pending.pop(oldest, None)
            self._dirty_shards.add(self.shard_index(oldest))
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def flush(self, *, fsync: bool = False) -> int:
        """Append pending writes to their shards; returns how many
        entries were written.  ``fsync=True`` additionally forces the
        appends to stable storage (the shutdown path)."""
        if not self._pending:
            return 0
        by_shard: dict[int, list[str]] = {}
        for key, payload in self._pending.items():
            by_shard.setdefault(self.shard_index(key), []).append(
                self._encode_line(key, payload)
            )
        for index, lines in sorted(by_shard.items()):
            path = self.shard_path(index)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as handle:
                handle.write("".join(line + "\n" for line in lines))
                handle.flush()
                if fsync:
                    os.fsync(handle.fileno())
        written = len(self._pending)
        self._pending.clear()
        self.stats.flushes += 1
        tb = bus()
        if tb.enabled:
            tb.count("service.store.flushes")
            tb.emit(
                "service.store.flush", entries=written, fsync=fsync
            )
        return written

    def compact(self) -> None:
        """Rewrite every shard that accumulated stale lines (evicted
        or superseded entries) from the live map."""
        for index in sorted(self._dirty_shards):
            live = {
                key: payload
                for key, payload in self._entries.items()
                if self.shard_index(key) == index
            }
            self._rewrite_shard(index, live)
        self._dirty_shards.clear()

    def close(self) -> None:
        """Flush (fsynced) and compact; idempotent."""
        if self._closed:
            return
        self.flush(fsync=True)
        self.compact()
        self._closed = True

    # ------------------------------------------------------------------
    def stats_json(self) -> dict:
        shard_entries: dict[int, int] = {}
        for key in self._entries:
            index = self.shard_index(key)
            shard_entries[index] = shard_entries.get(index, 0) + 1
        per_shard = []
        for index in range(self.shards):
            hits = self._shard_hits.get(index, 0)
            misses = self._shard_misses.get(index, 0)
            per_shard.append(
                {
                    "shard": index,
                    "entries": shard_entries.get(index, 0),
                    "hits": hits,
                    "misses": misses,
                }
            )
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "shards": self.shards,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "puts": self.stats.puts,
            "evictions": self.stats.evictions,
            "flushes": self.stats.flushes,
            "quarantined_shards": self.stats.quarantined_shards,
            "salvaged_entries": self.stats.salvaged_entries,
            "per_shard": per_shard,
        }
