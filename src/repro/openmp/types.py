"""Core OpenMP configuration types.

An *OpenMP configuration* in the paper's sense (Section I) is the
triple **(number of threads, scheduling policy, chunk size)**.  The
``DEFAULT`` markers mirror Table I, where "default" is an explicit
member of each search dimension: default schedule means the runtime's
``static`` policy, and a ``None`` chunk means the specification default
(iterations/threads for static, 1 for dynamic and guided).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class ScheduleKind(Enum):
    """OpenMP loop scheduling policies explored by ARCS (Table I)."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class OMPConfig:
    """One point of the ARCS search space.

    ``chunk=None`` selects the specification-default chunking for the
    schedule kind.
    """

    n_threads: int
    schedule: ScheduleKind = ScheduleKind.STATIC
    chunk: int | None = None

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError(
                f"n_threads must be >= 1, got {self.n_threads}"
            )
        if self.chunk is not None and self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")

    def label(self) -> str:
        """Compact label used in paper-style tables, e.g.
        ``"16, guided, 8"`` or ``"32, static, default"``."""
        return _cached_label(self)

    def to_json(self) -> dict:
        """Plain-JSON form: ``n_threads``, ``schedule``, ``chunk``."""
        return {
            "n_threads": self.n_threads,
            "schedule": self.schedule.value,
            "chunk": self.chunk,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "OMPConfig":
        """Inverse of :meth:`to_json`."""
        chunk = blob["chunk"]
        return cls(
            int(blob["n_threads"]),
            ScheduleKind(blob["schedule"]),
            None if chunk is None else int(chunk),
        )


@lru_cache(maxsize=None)
def _cached_label(config: OMPConfig) -> str:
    # telemetry labels every applied config; the search space is tiny
    # (hundreds of points) so memoizing beats re-formatting per event
    chunk = "default" if config.chunk is None else str(config.chunk)
    return f"{config.n_threads}, {config.schedule.value}, {chunk}"


def default_config(max_threads: int) -> OMPConfig:
    """The paper's baseline: "maximum number of available threads,
    static scheduling, and chunk sizes calculated dynamically by
    dividing total number of loop iterations by number of threads"
    (i.e. spec-default static chunking)."""
    return OMPConfig(
        n_threads=max_threads, schedule=ScheduleKind.STATIC, chunk=None
    )
