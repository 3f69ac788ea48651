"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The traced counts are what later "count" claims rest on, so two traced
ops of one seed must agree on every one of them exactly.  The result
checks must reject a result that is off by one float step.  A run times
many passes in one interpreter, so a later pass must be as cold as the
first and cut into the same segments.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REFERENCE_PACE_S, paced  # noqa: E402
from workloads import (  # noqa: E402
    MARKS,
    RESULTS,
    Outcome,
    Replay,
    Search,
    Sweep,
    Timing,
    canonical,
    forget_process_state,
    reference_record,
)

#: the timing of a result that was never timed.
UNTIMED = Timing([1.0], [1.0, 1.0])

#: counts that depend only on the workload and its seed.
DETERMINISTIC = (
    "openmp.invocations",
    "util.rng.generators",
    "machine.rapl.deposits",
    "machine.msr.reads",
    "machine.msr.bumps",
    "openmp.ompt.dispatches",
    "openmp.memo.hits",
    "openmp.memo.misses",
    "harmony.probes",
    "telemetry.records",
    "telemetry.bytes",
    "service.requests",
)


def traced_op(workload: str, seed: int, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp / "op.json"
    subprocess.run(
        [sys.executable, str(HERE / "op.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "traced",
         "--workdir", str(tmp / "work"), "--out", str(out)],
        check=True, env=env, cwd=ROOT, timeout=300,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "workload", ["replay-lulesh45", "search-lulesh45", "sweep-spB"]
)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_op(workload, 3, tmp_path / "a")
    second = traced_op(workload, 3, tmp_path / "b")
    passes = [r["passes"][0] for r in (first, second)]
    assert passes[0]["problems"] == [] and passes[1]["problems"] == []
    assert passes[0]["digest"] == passes[1]["digest"]
    counts = [{n: r["layers"][n] for n in DETERMINISTIC}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["openmp.invocations"] > 0


def _lulesh_outcome(strategy: str) -> Outcome:
    record = reference_record("55W", strategy)
    cold = {"time_s": record["time_s"], "energy_j": record["energy_j"],
            "tuning_runs": 5}
    return Outcome(cold, [dict(cold, tuning_runs=0)], UNTIMED, [UNTIMED])


@pytest.mark.parametrize("kind", [Replay, Search])
def test_lulesh_check_rejects_perturbed_result(kind):
    workload = kind()
    assert workload.check(0, _lulesh_outcome(kind.strategy)) == []
    outcome = _lulesh_outcome(kind.strategy)
    outcome.result["energy_j"] = math.nextafter(
        outcome.result["energy_j"], math.inf
    )
    problems = workload.check(0, outcome)
    assert any("reference" in p for p in problems)
    assert any("warm rerun" in p for p in problems)


def test_sweep_check_rejects_perturbed_result():
    table = (RESULTS / "fig4_sp_power_sweep.txt").read_text()
    workload = Sweep()
    workload.rerun_misses = 0
    good = {"table": table, "cells": []}
    assert workload.check(0, Outcome(good, [good], UNTIMED, [UNTIMED])) == []
    bad = {"table": table.replace("0.806", "0.807", 1), "cells": []}
    problems = workload.check(0, Outcome(bad, [good], UNTIMED, [UNTIMED]))
    assert any("fig4_sp_power_sweep" in p for p in problems)
    assert any("warm rerun" in p for p in problems)
    workload.rerun_misses = 1
    assert workload.check(1, Outcome(good, [good], UNTIMED, [UNTIMED]))


def test_a_later_pass_is_as_cold_as_the_first():
    from repro.openmp.batch import memo_stats

    MARKS.install()
    workload = Replay()
    seen = []
    for _ in range(2):
        forget_process_state()
        workload.setup(0, None)
        outcome = workload.run()
        assert workload.check(0, outcome) == []
        seen.append((canonical([outcome.result, outcome.reruns]),
                     memo_stats()["misses"], len(outcome.cold.segments),
                     [len(t.segments) for t in outcome.warm]))
    assert seen[0] == seen[1]
    # 25,280 invocations in segments of SEGMENT, the last one partial
    assert seen[0][2] == 25280 // Replay.SEGMENT + 1


def test_paced_scales_each_segment_by_the_probes_around_it():
    timings = [
        # the second segment ran while the host ran at half speed
        {"segments": [2.0, 6.0], "probes": [1.0, 1.0, 3.0]},
        {"segments": [2.0, 3.0], "probes": [1.0, 1.0, 1.0]},
        {"segments": [4.0, 3.0], "probes": [2.0, 2.0, 1.0]},
        # cut into other segments: left out
        {"segments": [1.0], "probes": [1.0, 1.0]},
    ]
    assert paced(timings) == REFERENCE_PACE_S * (2.0 + 3.0)
