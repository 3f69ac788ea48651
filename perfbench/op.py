"""Benchmark passes in a fresh interpreter.

    python perfbench/op.py --workload NAME --seed N --mode MODE \\
        --workdir DIR --out FILE [--seconds S]

Imports ``repro.cli`` and builds the workload (the set-up), then runs
passes of its operation: a cold pass and its warm reruns, from fresh
inputs and empty process-wide memos each time.  Every pass is checked.
It writes one JSON object to ``--out``.

``--mode setup`` stops after the set-up; ``plain`` runs passes with
nothing attached until the next one would end after ``--seconds`` (at
least one always runs); ``traced`` runs one pass with the per-layer
ledger attached (spans, counters and the sampling profiler).
``run.py`` launches this.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import shutil
import sys
import time
from pathlib import Path

MODES = ("setup", "plain", "traced")


class LoopErrors(logging.StreamHandler):
    """Counts the asyncio loop's exception-handler reports.  It still
    prints each one to stderr, as Python's last-resort handler does
    when the ``asyncio`` logger has no handler of its own."""

    def __init__(self) -> None:
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.errors = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno >= logging.ERROR:
            self.errors += 1
        super().emit(record)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _telemetry(directory: Path | None) -> tuple[int, int]:
    """(records, bytes) of every JSONL file under ``directory``."""
    records = size = 0
    if directory is not None and directory.is_dir():
        for path in sorted(directory.rglob("*.jsonl")):
            data = path.read_bytes()
            records += data.count(b"\n")
            size += len(data)
    return records, size


def layer_metrics(ledger, workload, facts) -> dict[str, float]:
    """Per-layer metrics of one traced op (self times excepted)."""
    c = ledger.counts
    durations = ledger.durations
    invocations = len(durations("openmp.parallel_for"))
    parallel_for = durations("openmp.parallel_for")
    cells = durations("experiments.cell")
    requests = durations("service.request")
    hits, misses = c["openmp.memo.hits"], c["openmp.memo.misses"]
    probes = c["harmony.probes"]
    records, size = _telemetry(getattr(workload, "telemetry_dir", None))
    cache = getattr(workload, "cache", None)
    cache_hits = cache.stats.hits if cache is not None else 0
    cache_misses = cache.stats.misses if cache is not None else 0
    # fan-out of the cold pass: its executor span against the cells
    # run inside it
    executors = [s for s in ledger.spans if s[0] == "experiments.executor"]
    fanout = worker_start = 0.0
    if executors and cells:
        _, begin, end, _ = executors[0]
        inside = [(start, stop) for name, start, stop, _ in ledger.spans
                  if name == "experiments.cell" and begin <= start <= end]
        fanout = sum(stop - start for start, stop in inside) / (
            workload.WORKERS * (end - begin)
        )
        worker_start = min(start for start, _ in inside) - begin
    return {
        "openmp.invocations": invocations,
        "openmp.parallel_for.p50_us": _pct(parallel_for, 0.5) * 1e6,
        "openmp.parallel_for.p99_us": _pct(parallel_for, 0.99) * 1e6,
        "openmp.ompt.dispatches": c["openmp.ompt.dispatches"],
        "openmp.schedule.chunks": c["openmp.schedule.chunks"],
        "openmp.batch.rows": c["openmp.batch.rows"],
        "openmp.memo.hits": hits,
        "openmp.memo.misses": misses,
        "openmp.memo.hit_ratio": _ratio(hits, hits + misses),
        "openmp.memo.entries": facts["memo_entries"],
        "machine.rapl.deposits": c["machine.rapl.deposits"],
        "machine.msr.reads": c["machine.msr.reads"],
        "machine.msr.bumps": c["machine.msr.bumps"],
        "machine.rapl.read_errors": c["machine.rapl.read_errors"],
        "apex.callbacks": c["apex.callbacks"],
        "core.config_changes": c["core.config_changes"],
        "harmony.probes": probes,
        "harmony.rejected": c["harmony.rejected"],
        "harmony.useful_ratio": _ratio(len(ledger.harmony_points), probes),
        "util.rng.generators": c["util.rng.generators"],
        "workloads.runs": len(durations("workloads.run")),
        "telemetry.records": records,
        "telemetry.bytes": size,
        "telemetry.bytes_per_invocation": _ratio(size, invocations),
        "experiments.cells": len(cells),
        "experiments.cell_p50_s": _pct(cells, 0.5),
        "experiments.cell_max_s": max(cells, default=0.0),
        "experiments.fanout_efficiency": fanout,
        "experiments.worker_start_s": worker_start,
        "experiments.cache.hits": cache_hits,
        "experiments.cache.misses": cache_misses,
        "experiments.cache.read_s": sum(durations("experiments.cache.read")),
        "experiments.cache.write_s": sum(
            durations("experiments.cache.write")
        ),
        "experiments.journal.appends": len(
            durations("experiments.journal.append")
        ),
        "experiments.journal.append_s": sum(
            durations("experiments.journal.append")
        ),
        "experiments.retries": c["experiments.attempts"] - cache_misses
        if cache is not None else 0,
        "service.requests": len(requests),
        "service.hit_ratio": _ratio(c["service.get_hits"], c["service.gets"]),
        "service.request_p50_ms": _pct(requests, 0.5) * 1e3,
        "service.request_max_ms": max(requests, default=0.0) * 1e3,
        "service.retries": c["service.attempts"] - len(requests),
        "service.loop_errors": facts["loop_errors"],
        "service.stop_s": sum(durations("service.stop")),
        "cli.import_s": facts["import_s"],
        "cli.import_modules": facts["import_modules"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    modules = len(sys.modules)
    import repro.cli  # noqa: F401  (what every CLI call pays)

    import_s = time.perf_counter() - start
    import_modules = len(sys.modules) - modules

    from workloads import (
        MARKS, WORKLOADS, canonical, forget_process_state, probe_table,
    )

    workload = WORKLOADS[args.workload]()
    ledger = None
    task_fn = None
    if args.mode == "traced":
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger()
        ledger_mod.install(ledger)
        task_fn = ledger_mod.traced_task
    loop_errors = LoopErrors()
    logging.getLogger("asyncio").addHandler(loop_errors)

    from repro.openmp.batch import memo_stats

    workload.setup(args.seed, args.workdir / "pass-0", task_fn=task_fn)
    ready = time.monotonic()
    if args.mode == "setup":
        workload.close()
        before = time.perf_counter()
        probe_table()
        build_s = time.perf_counter() - before
        args.out.write_text(json.dumps({"ready": ready, "build_s": build_s}))
        return 0

    if ledger is None:
        # segments for the timed passes; traced passes stay whole, so the
        # probes add nothing to the self time of a layer
        MARKS.install()
    deadline = ready + args.seconds
    passes = []
    longest = 0.0
    while True:
        began = time.monotonic()
        if passes:
            forget_process_state()
            workload.setup(args.seed, args.workdir / f"pass-{len(passes)}",
                           task_fn=task_fn)
        memo = memo_stats()
        outcome = ledger.sampled(workload.run) if ledger else workload.run()
        after = memo_stats()
        workload.close()
        passes.append({
            "cold": vars(outcome.cold),
            "warm": [vars(timing) for timing in outcome.warm],
            "digest": hashlib.sha256(
                canonical([outcome.result, outcome.reruns]).encode()
            ).hexdigest(),
            "problems": workload.check(args.seed, outcome),
        })
        if len(passes) == 1:
            # peak memory of one pass, as a single CLI call would hold
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if ledger is not None:
            break
        shutil.rmtree(args.workdir / f"pass-{len(passes) - 1}",
                      ignore_errors=True)
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > deadline:
            break
    report = {
        "ready": ready,
        "peak_rss_mb": peak_kb / 1024.0,
        "passes": passes,
    }
    if ledger is not None:
        ledger.counts["openmp.memo.hits"] += after["hits"] - memo["hits"]
        ledger.counts["openmp.memo.misses"] += (
            after["misses"] - memo["misses"]
        )
        facts = {
            "memo_entries": after["entries"],
            "loop_errors": loop_errors.errors,
            "import_s": import_s,
            "import_modules": import_modules,
        }
        report["layers"] = layer_metrics(ledger, workload, facts)
        report["self_s"] = dict(ledger.self_s)
        with open(args.workdir / "spans.json", "w") as fh:
            json.dump(ledger.spans, fh)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
