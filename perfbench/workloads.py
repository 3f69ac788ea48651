"""The benchmark's three workloads, driven through the public API.

Each workload is one closed-loop operation: a single caller issues the
operation and waits for its result.  ``setup`` builds the inputs from
the seed (and, for the sweep, the temporary directories and the tuning
daemon); ``run`` performs the operation cold and then reruns it warm,
and returns the results with their host times; ``check`` compares the
reruns with the cold pass and, at seed 0, the cold pass with the
committed reference results.  ``setup``, ``run`` and ``close`` may be
repeated on one instance: each ``setup`` starts from fresh inputs.

Host times come in *segments*, the parts of a pass that repeat from one
pass to the next: the stretches between every ``SEGMENT``-th region
invocation, each timed together with a pace probe on either side (see
:class:`InvocationMarks`).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: the repository root (the benchmark reads its references from here).
ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


@dataclass
class Timing:
    """Host seconds of the segments of one call, and of the pace probes
    run before, between and after them (one more than segments)."""

    segments: list[float]
    probes: list[float]


@dataclass
class Outcome:
    """What one pass produced: JSON-ready results of the cold pass and
    of its distinct warm reruns, with the timing of the cold pass and
    of each rerun."""

    result: object
    reruns: list
    cold: Timing
    warm: list[Timing]


def cold_then_warm(once, passes: int) -> Outcome:
    """Run ``once()`` cold, then ``passes`` times warm; each call
    returns ``(result, Timing)``.  Identical reruns are kept once, so
    the benchmark's own copies do not add to peak memory."""
    cold, timing = once()
    reruns, warm, seen = [], [], set()
    for _ in range(passes):
        blob, rerun = once()
        warm.append(rerun)
        text = canonical(blob)
        if text not in seen:
            seen.add(text)
            reruns.append(blob)
    return Outcome(cold, reruns, timing, warm)


def forget_process_state() -> None:
    """Empty the process-wide memos that a fresh interpreter starts
    without: the region-evaluation memo and the tuned-config memo tier
    (``repro.service.source``, which has no public reset)."""
    from repro.openmp.batch import clear_memo
    from repro.service import source

    clear_memo()
    source._PROCESS_MEMO.clear()


def canonical(blob: object) -> str:
    """Byte-stable JSON text of a result (floats keep every digit)."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


class _Rec:
    __slots__ = ("key", "x", "root")

    def __init__(self, key: int, x: float, root: float) -> None:
        self.key = key
        self.x = x
        self.root = root


def probe_table() -> list[_Rec]:
    """The pace probe's table: larger than a core's L2 cache, as the
    simulator's working set is.  Building it takes about 50 ms of
    allocation-heavy work, like an import's, so its host time also
    serves as the pace of a set-up."""
    return [_Rec(i, float(i), math.sqrt(i)) for i in range(50000)]


_probe_table = functools.cache(probe_table)


def pace_probe() -> float:
    """About 1 ms of fixed work unrelated to ``repro``, in the same mix
    as the simulator's: small objects, dict traffic, float math, small
    numpy calls, and a walk over a table that does not fit in cache.
    Its host time tells how fast the host runs this interpreter at the
    moment.  (A loop without the walk slowed down more than the
    simulator when the host was busy; the walk alone, less.)"""
    table: dict[int, _Rec] = {}
    total = 0.0
    x = 0.5
    ramp = np.arange(16, dtype=float)
    for i in range(1500):
        x = (x * 3.7 + 0.1) % 1.0
        rec = _Rec(i & 31, x, math.sqrt(x))
        table[rec.key] = rec
        total += rec.root * len(table)
        if i % 50 == 0:
            total += float(np.dot(ramp, ramp * x))
    walked = _probe_table()
    for i in range(0, 50000, 37):
        rec = walked[i * 7 % 50000]
        total += rec.x * 1.0001 + rec.root
    return total


class InvocationMarks:
    """Host-time marks at every ``every``-th OpenMP region invocation
    (``OpenMPRuntime.parallel_for`` call).  The invocations of a pass
    come in the same order every time, so the marks cut each pass into
    the same segments of work.  :func:`pace_probe` runs at each mark
    and at both ends of the call, outside the segments, so every
    segment has a probe on either side of it."""

    def __init__(self) -> None:
        self.every = 1
        self.calls = 0
        #: (probe start, probe end) of each probe
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        before = time.perf_counter()
        pace_probe()
        self.probes.append((before, time.perf_counter()))

    def install(self) -> None:
        """Wrap ``parallel_for`` to feed this (once per process)."""
        from repro.openmp.runtime import OpenMPRuntime

        fn = OpenMPRuntime.parallel_for
        if getattr(fn, "perfbench_marks", None) is self:
            return
        pace_probe()  # builds the probe's table before any pass

        @functools.wraps(fn)
        def marked(runtime, region):
            self.calls += 1
            if self.calls % self.every == 0:
                self.probe()
            return fn(runtime, region)

        marked.perfbench_marks = self
        OpenMPRuntime.parallel_for = marked

    def segments(self, every: int, call) -> tuple[object, Timing]:
        """``call()`` and the host seconds of its segments of ``every``
        invocations (the last one runs to the end of the call) and of
        the probes around them."""
        self.every = every
        self.calls = 0
        self.probes.clear()
        self.probe()
        result = call()
        self.probe()
        return result, Timing(
            [begin - end for (_, end), (begin, _)
             in zip(self.probes, self.probes[1:])],
            [end - begin for begin, end in self.probes],
        )


#: the marks of this process; until :meth:`InvocationMarks.install`
#: a call is one segment between two probes.
MARKS = InvocationMarks()


class _LuleshRun:
    """``run_strategy`` on LULESH-45, Crill, 55 W, 3 repeats."""

    strategy: str

    #: warm reruns per pass: one, so a run fits more cold passes
    WARM_PASSES = 1
    #: invocations per timed segment, for segments of 50-150 ms
    SEGMENT: int

    def setup(self, seed: int, workdir: Path, task_fn=None) -> None:
        from repro.core.history import HistoryStore
        from repro.experiments.runner import ExperimentSetup
        from repro.machine.spec import crill
        from repro.workloads.lulesh import lulesh_application

        self.app = lulesh_application(45)
        self.setup_ = ExperimentSetup(
            spec=crill(), cap_w=55.0, repeats=3, seed=seed
        )
        # the rerun replays what the cold pass tuned (offline) or hits
        # the evaluation memo the cold pass filled (online)
        self.history = HistoryStore()

    def _once(self) -> tuple[dict, Timing]:
        from repro.experiments.cache import result_to_json
        from repro.experiments.runner import run_strategy

        result, timing = MARKS.segments(self.SEGMENT, lambda: run_strategy(
            self.strategy, self.app, self.setup_, history=self.history
        ))
        return result_to_json(result), timing

    def run(self) -> Outcome:
        return cold_then_warm(self._once, self.WARM_PASSES)

    def close(self) -> None:
        pass

    def check(self, seed: int, outcome: Outcome) -> list[str]:
        problems = []
        # only the tuning-run count may differ: the rerun replays the
        # history the cold pass saved instead of tuning again
        cold = dict(outcome.result, tuning_runs=None)
        for warm in outcome.reruns:
            if canonical(cold) != canonical(dict(warm, tuning_runs=None)):
                problems.append("warm rerun differs from the cold pass")
        if seed == 0:
            want = reference_record("55W", self.strategy)
            got = (outcome.result["time_s"], outcome.result["energy_j"])
            if got != (want["time_s"], want["energy_j"]):
                problems.append(
                    f"{self.strategy} at 55 W gave time/energy {got}, "
                    f"reference {want['time_s']}/{want['energy_j']}"
                )
        return problems


class Replay(_LuleshRun):
    """Exhaustive offline tuning, then replayed measured runs."""

    strategy = "arcs-offline"
    SEGMENT = 512


class Search(_LuleshRun):
    """Nelder-Mead searching inside the measured runs."""

    strategy = "arcs-online"
    SEGMENT = 256


class Sweep:
    """The Fig. 4 power sweep on SP-B with every harness layer on:
    a result cache, a journal, telemetry and an in-process tuning
    daemon; then the same sweep from the warm cache.  The cells run
    one after another in this process, as ``repro sweep`` runs them by
    default (``--workers 1``)."""

    TITLE = "Fig. 4: SP-B on Crill"

    #: warm reruns per pass; one takes ~15-30 ms (cache reads and
    #: digests), so rerun_s is the median of many
    WARM_PASSES = 30
    #: invocations per timed segment (46,800 per cold sweep)
    SEGMENT = 512
    #: cells run serially, in the sweep's own order
    WORKERS = 1

    def setup(self, seed: int, workdir: Path, task_fn=None) -> None:
        from repro.experiments.cache import ExperimentCache
        from repro.experiments.figures import SWEEP_STRATEGIES
        from repro.experiments.parallel import run_sweep_task
        from repro.experiments.runner import CRILL_POWER_LEVELS
        from repro.machine.spec import crill
        from repro.service.daemon import ThreadedDaemon
        from repro.workloads.sp import sp_application

        self.seed = seed
        self.workdir = workdir
        self.app = sp_application("B")
        self.spec = crill()
        self.task_fn = task_fn or run_sweep_task
        self.cache = ExperimentCache(workdir / "cache")
        self.telemetry_dir = workdir / "telemetry"
        self.cells = len(CRILL_POWER_LEVELS) * len(SWEEP_STRATEGIES)
        self.passes = 0
        self.daemon = ThreadedDaemon(workdir / "store").start()
        host, port = self.daemon.address
        self.service = f"{host}:{port}"

    def _once(self) -> tuple[dict, Timing]:
        session = "rerun" if self.passes else "sweep"
        self.passes += 1
        return MARKS.segments(self.SEGMENT, lambda: self._sweep(session))

    def _sweep(self, session: str) -> dict:
        from repro.experiments.figures import power_sweep
        from repro.experiments.journal import SweepJournal
        from repro.experiments.parallel import ParallelSweepExecutor
        from repro.experiments.reporting import render_sweep
        from repro.experiments.cache import result_to_json
        from repro.experiments.runner import CRILL_POWER_LEVELS
        from repro.obs.trace import root_context
        from repro.telemetry.bus import TelemetryBus, install
        from repro.telemetry.sinks import JsonlSink

        # what `repro sweep --telemetry DIR --journal FILE` sets up
        bus = TelemetryBus(enabled=True)
        bus.add_sink(JsonlSink(self.telemetry_dir / f"{session}.jsonl"))
        identity = {"command": "sweep", "app": self.app.label,
                    "seed": self.seed, "workers": self.WORKERS}
        bus.trace = root_context(**identity)
        bus.meta(**identity)
        previous = install(bus)
        try:
            executor = ParallelSweepExecutor(
                max_workers=self.WORKERS,
                cache=self.cache,
                journal=SweepJournal(self.workdir / "sweep.journal"),
                task_fn=self.task_fn,
            )
            sweep = power_sweep(
                self.app, self.spec, CRILL_POWER_LEVELS,
                repeats=3, seed=self.seed, workers=self.WORKERS,
                cache=self.cache, executor=executor,
                telemetry_dir=str(self.telemetry_dir),
                service=self.service,
            )
        finally:
            install(previous)
            bus.close()
        return {
            "table": render_sweep(sweep, self.TITLE),
            "cells": [
                [label, strategy, result_to_json(result)]
                for (label, strategy), result in sweep.results.items()
            ],
        }

    def run(self) -> Outcome:
        outcome = cold_then_warm(self._once, self.WARM_PASSES)
        # the cold pass misses on every cell; a rerun must miss none
        self.rerun_misses = self.cache.stats.misses - self.cells
        return outcome

    def close(self) -> None:
        self.daemon.stop()

    def check(self, seed: int, outcome: Outcome) -> list[str]:
        problems = []
        for warm in outcome.reruns:
            if canonical(outcome.result) != canonical(warm):
                problems.append("warm rerun differs from the cold pass")
        if self.rerun_misses:
            problems.append(
                f"warm rerun missed the cache {self.rerun_misses} time(s)"
            )
        if seed == 0:
            want = (RESULTS / "fig4_sp_power_sweep.txt").read_text()
            if outcome.result["table"].rstrip("\n") != want.rstrip("\n"):
                problems.append(
                    "sweep table differs from results/fig4_sp_power_sweep.txt"
                )
        return problems


WORKLOADS = {
    "replay-lulesh45": Replay,
    "search-lulesh45": Search,
    "sweep-spB": Sweep,
}


def reference_record(power: str, strategy: str) -> dict:
    """The committed Fig. 8 Crill record for one (power, strategy)."""
    bench = json.loads(
        (RESULTS / "BENCH_fig8_lulesh_crill.json").read_text()
    )
    for record in bench["records"]:
        if (record["power"], record["strategy"]) == (power, strategy):
            return record
    raise KeyError(f"no Fig. 8 reference record for {power}/{strategy}")
