"""Batched configuration evaluation.

ARCS's cost is dominated by evaluating candidate (threads, schedule,
chunk) configurations one scalar ``ExecutionEngine._simulate`` call at
a time - the exhaustive offline search walks the full Table-I space
for every region at every power cap.  This module evaluates a *set* of
candidate configurations for one region in a single vectorized pass:

* team context (placement, cap-constrained frequencies, per-thread
  jitter, throughput) is computed once per distinct thread count, not
  once per configuration;
* the cache model is evaluated once per distinct scheduling quantum
  (many configs share an average chunk size);
* the DRAM-bandwidth contention fixed point runs *batched*: one
  ``(configs, threads)`` matrix per thread-count group instead of one
  vector per config, with reductions that are bit-identical to the
  scalar path (elementwise IEEE arithmetic; the per-config rate
  reduction runs as a 1-D ``np.sum`` over each contiguous row, because
  a 2-D ``np.sum(axis=1)`` blocks its pairwise summation differently
  and drifts by 1 ULP);
* chunk partitions come from :func:`repro.openmp.schedule.chunk_bounds`
  (index arrays) instead of per-chunk ``Chunk`` objects;
* chunk scheduling and energy integration reuse the engine's own
  ``_run_static`` / ``_run_dynamic`` / ``_energy`` / ``_complete``
  methods, so the batched records are byte-identical to scalar ones
  **by construction** (and the differential test wall proves it).

The module also keeps a process-wide, content-keyed evaluation memo on
``(machine spec, team costs, region profile, caps, frequency limit,
config)``.  Every key component is a frozen dataclass compared by
value, so repeated probes across Harmony restarts, cap-schedule
re-tunes, fresh runtimes, and sweep cells hit the memo regardless of
which engine instance computed the record first.

It also keeps the process-wide memo of measurement-noise factors (see
:func:`noise_factor`), drawn in blocks of :data:`NOISE_BLOCK` call
indices.  Unlike the evaluation memo it does not depend on batching
being enabled; :func:`clear_memo` empties both.

Batching is a pure pre-computation: it fills caches with records the
scalar path would have produced, and ``ExecutionEngine.execute`` stays
the only side-effecting sequencing point (clock advance, energy
deposits, OMPT event order, measurement noise).  :func:`set_batching`
selects the scalar reference path (the differential tests and the
search-space benchmark compare against it); results are identical
either way.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

import numpy as np

from repro.openmp.records import RegionExecutionRecord
from repro.openmp.region import RegionProfile
from repro.openmp.schedule import chunk_bounds
from repro.openmp.types import OMPConfig
from repro.util.rng import normal_block, rng_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.openmp.engine import ExecutionEngine

#: bound on the process-wide memo; far above one sweep's working set
#: (a full Table-I space x 13 regions x 5 caps is ~10k records).
MEMO_LIMIT = 65536

#: noise factors are drawn this many call indices at a time, in blocks
#: aligned on the index (block b holds indices b*NOISE_BLOCK onwards).
NOISE_BLOCK = 128

#: bound on the noise memo, in blocks (1 MiB of factors; one LULESH-45
#: run fills about 25).
NOISE_MEMO_BLOCKS = 1024

_enabled: bool = True
_memo: dict[tuple, RegionExecutionRecord] = {}
_memo_hits: int = 0
_memo_misses: int = 0
_noise: dict[tuple[int, float, int], array] = {}


def batching_enabled() -> bool:
    """Whether batched evaluation + the process-wide memo are active."""
    return _enabled


def set_batching(enabled: bool) -> None:
    """Process-wide switch; ``False`` selects the scalar reference
    path, which tests and benchmarks compare the batched path against."""
    global _enabled
    _enabled = bool(enabled)


def memo_key(
    engine: ExecutionEngine,
    region: RegionProfile,
    config: OMPConfig,
    caps: tuple[float | None, ...],
) -> tuple:
    """Content key for one evaluation: every input ``_simulate`` reads.

    Spec, costs, region and config are frozen dataclasses, so equal
    content from different instances (fresh runtimes, sweep repeats)
    maps to the same entry.
    """
    return (
        engine.node.spec,
        engine.costs,
        region,
        caps,
        engine.node.frequency_limit_ghz,
        config,
    )


def memo_get(key: tuple) -> RegionExecutionRecord | None:
    global _memo_hits, _memo_misses
    record = _memo.get(key)
    if record is None:
        _memo_misses += 1
    else:
        _memo_hits += 1
    return record


def memo_put(key: tuple, record: RegionExecutionRecord) -> None:
    if len(_memo) >= MEMO_LIMIT and key not in _memo:
        # FIFO eviction keeps the memo bounded and deterministic.
        _memo.pop(next(iter(_memo)))
    _memo[key] = record


def memo_stats() -> dict[str, int]:
    return {
        "entries": len(_memo),
        "hits": _memo_hits,
        "misses": _memo_misses,
    }


def clear_memo() -> None:
    """Empty the evaluation memo and the noise memo."""
    global _memo_hits, _memo_misses
    _memo.clear()
    _memo_hits = 0
    _memo_misses = 0
    _noise.clear()


def noise_factor(seed: int, sigma: float, call_index: int) -> float:
    """The multiplicative noise of a runtime's ``call_index``-th region
    call: ``max(1 + rng_for(seed, "noise", call_index).normal(0, sigma),
    1)``, a pure function of its three arguments.

    Factors are drawn a whole aligned block at a time and memoized, so
    the runs of a sweep, which share runtime seeds across cells,
    strategies and caps, draw each block once; a runtime restored at
    any index draws only the block holding it."""
    block, offset = divmod(call_index, NOISE_BLOCK)
    key = (seed, sigma, block)
    factors = _noise.get(key)
    if factors is None:
        first = block * NOISE_BLOCK
        factors = array("d", [
            max(1.0 + z, 1.0)
            for z in normal_block(
                seed, "noise",
                indices=range(first, first + NOISE_BLOCK),
                sigma=sigma,
            )
        ])
        if len(_noise) >= NOISE_MEMO_BLOCKS:
            _noise.pop(next(iter(_noise)))  # FIFO, like the record memo
        _noise[key] = factors
    return factors[offset]


class BatchEvaluator:
    """Vectorized evaluation of many configs for one region.

    Produces the exact records ``ExecutionEngine._simulate`` would, in
    input order, without touching the node clock or energy counters.
    """

    def __init__(self, engine: ExecutionEngine) -> None:
        self._engine = engine

    def evaluate(
        self, region: RegionProfile, configs: list[OMPConfig]
    ) -> list[RegionExecutionRecord]:
        engine = self._engine
        node = engine.node
        spec = node.spec
        entry = engine._weights(region)
        total_weight = float(entry.prefix[-1])
        records: list[RegionExecutionRecord | None] = [None] * len(configs)

        # group configs by thread count: the team context (placement,
        # frequencies, jitter, per-thread compute cost) is shared.
        groups: dict[int, list[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(config.n_threads, []).append(i)

        for n_threads, members in groups.items():
            placement = node.topology.place(n_threads)
            freqs = node.frequency_for_team(placement)
            throughput = placement.per_thread_throughput()
            threads_per_socket = placement.threads_per_socket
            uncore = [
                node.frequency.uncore_scale(freqs[s])
                for s in range(spec.sockets)
            ]
            active_cores = placement.active_cores_per_socket
            jitter_rng = rng_for(
                0x0E5, "thread-jitter", region.name, n_threads, spec.name
            )
            raw_jitter = np.abs(
                jitter_rng.normal(0.0, 1.0, size=n_threads)
            )
            socket_of = np.array(
                [slot.socket for slot in placement.slots]
            )

            # per-thread cost of a weight-1 iteration: the cpu half is
            # config-independent; the memory half factors into a
            # per-socket stall coefficient times the same jitter.
            jitter_arr = np.empty(n_threads)
            cpu_s = np.empty(n_threads)
            for slot, thr in zip(placement.slots, throughput):
                f = freqs[slot.socket]
                siblings = placement.siblings_active(slot)
                jitter = 1.0 + (
                    spec.thread_jitter_sigma
                    * (siblings ** 0.5)
                    * raw_jitter[slot.thread_id]
                )
                jitter_arr[slot.thread_id] = jitter
                cpu_s[slot.thread_id] = (
                    region.cpu_ns_per_iter
                    * 1e-9
                    * (spec.base_freq_ghz / f)
                    / thr
                    * jitter
                )

            # cache model once per distinct scheduling quantum
            traffic_cache: dict[float, list] = {}

            def traffic_for(avg_chunk: float) -> list:
                cached = traffic_cache.get(avg_chunk)
                if cached is None:
                    cached = [
                        node.cache.predict(
                            region.memory,
                            region.iterations,
                            max(1, threads_per_socket[s]),
                            n_threads,
                            avg_chunk,
                            uncore_scale=uncore[s],
                            smt_share=threads_per_socket[s]
                            / max(1, active_cores[s]),
                        )
                        if threads_per_socket[s] > 0
                        else None
                        for s in range(spec.sockets)
                    ]
                    traffic_cache[avg_chunk] = cached
                return cached

            k = len(members)
            n_sockets = spec.sockets
            bounds: list[tuple[np.ndarray, np.ndarray]] = []
            traffics: list[list] = []
            stall_coeff = np.zeros((k, n_sockets))
            dram_bytes = np.zeros((k, n_sockets))
            for row, i in enumerate(members):
                starts, stops = chunk_bounds(
                    configs[i], region.iterations
                )
                bounds.append((starts, stops))
                avg_chunk = region.iterations / max(1, len(starts))
                traffic = traffic_for(avg_chunk)
                traffics.append(traffic)
                for s in range(n_sockets):
                    t = traffic[s]
                    if t is None:
                        continue
                    stall_coeff[row, s] = (
                        t.accesses_per_iter * t.stall_ns_per_access * 1e-9
                    )
                    dram_bytes[row, s] = t.dram_bytes_per_iter

            mem_s = stall_coeff[:, socket_of] * jitter_arr[None, :]

            # -- batched DRAM bandwidth contention fixed point ----------
            # bit-identical to the scalar loop: every operation is
            # elementwise except the row sum, which matches the scalar
            # np.sum for C-contiguous rows.
            share = np.array(
                [
                    threads_per_socket[s] / n_threads
                    for s in range(n_sockets)
                ]
            )
            capacity = np.array(
                [
                    node.memory.effective_bandwidth(
                        threads_per_socket[s], freqs[s]
                    )
                    for s in range(n_sockets)
                ]
            )
            mem_mult = np.ones((k, n_sockets))
            for _ in range(engine.BW_FIXED_POINT_ITERS):
                per_iter = cpu_s[None, :] + mem_s * mem_mult[:, socket_of]
                # the row reduction must run per contiguous row: a 2-D
                # ``np.sum(..., axis=1)`` blocks its pairwise summation
                # differently and drifts from the scalar path by 1 ULP.
                inv = 1.0 / per_iter
                rate = np.array(
                    [np.sum(inv[row]) for row in range(k)]
                )
                t_est = np.maximum(total_weight / rate, 1e-12)
                new_mult = node.memory.contention_multiplier_batch(
                    dram_bytes
                    * region.iterations
                    * share[None, :]
                    / t_est[:, None],
                    capacity[None, :],
                )
                mem_mult = 0.5 * (mem_mult + new_mult)

            per_weight = cpu_s[None, :] + mem_s * mem_mult[:, socket_of]

            # -- schedule + energy per config (shared engine methods) ---
            for row, i in enumerate(members):
                starts, stops = bounds[row]
                chunk_weights = entry.prefix[stops] - entry.prefix[starts]
                records[i] = engine._complete(
                    region,
                    configs[i],
                    placement,
                    freqs,
                    threads_per_socket,
                    traffics[row],
                    len(starts),
                    chunk_weights,
                    per_weight[row],
                )

        return records  # type: ignore[return-value]
