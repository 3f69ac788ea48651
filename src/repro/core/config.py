"""The ARCS search space (paper Table I).

Reconstructed values (the OCR'd text drops '1' and '0' digits; the
reconstruction below is the unique one consistent with the machines):

=====================  ==========================================
Parameter              Set of values
=====================  ==========================================
Threads (Crill)        2, 4, 8, 16, 24, 32, default
Threads (Minotaur)     10, 20, 40, 80, 120, 160, default
Schedule type          dynamic, static, guided, default
Chunk size             1, 8, 16, 32, 64, 128, 256, 512, default
=====================  ==========================================

"default" resolves to: max hardware threads (threads), ``static``
(schedule) and the specification-default chunk (``None``).  Because the
resolved defaults coincide with existing members (max threads is in the
thread list; static is in the schedule list), the runtime space drops
the redundant sentinels - except for the chunk dimension, where
"default" (``None``) is a genuinely distinct ninth value.
"""

from __future__ import annotations

from repro.harmony.space import Parameter, SearchSpace
from repro.machine.spec import MachineSpec
from repro.openmp.types import OMPConfig, ScheduleKind

#: Table I chunk sizes; ``None`` is the spec-default sentinel.
ARCS_CHUNK_VALUES: tuple = (None, 1, 8, 16, 32, 64, 128, 256, 512)

#: Table I schedule types ("default" resolves to static).
ARCS_SCHEDULE_VALUES: tuple[ScheduleKind, ...] = (
    ScheduleKind.STATIC,
    ScheduleKind.DYNAMIC,
    ScheduleKind.GUIDED,
)

_TABLE1_THREADS = {
    "crill": (2, 4, 8, 16, 24, 32),
    "minotaur": (10, 20, 40, 80, 120, 160),
}


def arcs_thread_values(spec: MachineSpec) -> tuple[int, ...]:
    """Thread counts ARCS explores on ``spec`` (Table I for the paper's
    machines; doubling series up to the hardware-thread count for
    anything else)."""
    known = _TABLE1_THREADS.get(spec.name)
    if known is not None:
        return known
    values = []
    n = 2
    while n < spec.total_hw_threads:
        values.append(n)
        n *= 2
    values.append(spec.total_hw_threads)
    return tuple(values)


def dvfs_frequency_values(
    spec: MachineSpec, n_states: int = 5
) -> tuple:
    """P-state ceilings for the future-work DVFS dimension: ``None``
    (hardware managed) plus ``n_states`` evenly spaced frequencies from
    ``f_min`` to ``f_base``."""
    if n_states < 2:
        raise ValueError(f"n_states must be >= 2, got {n_states}")
    lo, hi = spec.min_freq_ghz, spec.base_freq_ghz
    step = (hi - lo) / (n_states - 1)
    states = tuple(
        round(lo + i * step, 3) for i in range(n_states)
    )
    return (None, *states)


def search_space_for(
    spec: MachineSpec, include_dvfs: bool = False
) -> SearchSpace:
    """The ARCS search space for one machine (Table I).

    ``include_dvfs=True`` adds the paper's future-work fourth
    dimension: a per-region userspace frequency ceiling.
    """
    parameters = [
        Parameter(name="n_threads", values=arcs_thread_values(spec)),
        Parameter(name="schedule", values=ARCS_SCHEDULE_VALUES),
        Parameter(name="chunk", values=ARCS_CHUNK_VALUES),
    ]
    if include_dvfs:
        parameters.append(
            Parameter(name="freq_ghz", values=dvfs_frequency_values(spec))
        )
    return SearchSpace(parameters=tuple(parameters))


def config_from_point(point: dict[str, object]) -> OMPConfig:
    """Decode a search-space point into an :class:`OMPConfig`."""
    schedule = point["schedule"]
    if not isinstance(schedule, ScheduleKind):
        schedule = ScheduleKind(str(schedule))
    chunk = point["chunk"]
    return OMPConfig(
        n_threads=int(point["n_threads"]),  # type: ignore[arg-type]
        schedule=schedule,
        chunk=None if chunk is None else int(chunk),  # type: ignore[arg-type]
    )


def point_from_config(config: OMPConfig) -> dict[str, object]:
    """Inverse of :func:`config_from_point`."""
    point: dict[str, object] = config.to_json()
    point["schedule"] = config.schedule  # the space holds enum members
    return point


def default_start_point(
    spec: MachineSpec, space: SearchSpace
) -> tuple[int, ...]:
    """Index vector nearest the default configuration - simplex
    strategies start their search here."""
    threads = arcs_thread_values(spec)
    point: dict[str, object] = {
        "n_threads": threads[-1],
        "schedule": ScheduleKind.STATIC,
        "chunk": None,
    }
    if any(p.name == "freq_ghz" for p in space.parameters):
        point["freq_ghz"] = None       # hardware-managed frequency
    return space.encode(point)
