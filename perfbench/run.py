"""Host-time benchmark of the ARCS reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Runs one workload (see ``workloads.py``) as a closed loop of passes:
each pass is the workload's operation, cold from fresh inputs and then
warm.  Every pass's result is checked; passes that raise, fail a check
or disagree with the run's first pass are counted in ``failed``.

``--trace 0`` first starts ``SETUP_PROBES`` fresh interpreters that only
set the workload up (``setup_s`` is their median), then one interpreter
(``op.py``) that runs passes until the next would overrun ``--seconds``.
All three times are host seconds at a reference pace: the host this
runs on slows the interpreter by up to 2x, in spells of a few
milliseconds to minutes, so each segment of a pass is timed together
with a fixed probe on either side and scaled by their host time (see
:func:`paced`), and each set-up by the time a fixed build takes right
after it.

``--trace 1`` alternates untraced and traced single-pass interpreters
and prints the per-layer metrics of the traced ones, with the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for op directories, inside the checkout.
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("replay-lulesh45", "search-lulesh45", "sweep-spB")
#: an op that runs this much longer than its budget is killed and
#: counted as failed.
OP_TIMEOUT_S = 60.0
#: fresh interpreters that only set up, for ``setup_s``.
SETUP_PROBES = 7
#: host times are scaled to a host on which one pace probe inside a pass
#: takes the first, and building the probe's table the second (about
#: what they take on an idle 2-vCPU Sapphire Rapids VM).
REFERENCE_PACE_S = 1.25e-3
REFERENCE_BUILD_S = 0.05

#: self-time layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "openmp.runtime", "openmp.schedule", "openmp.engine", "openmp.batch",
    "machine", "apex", "core", "harmony", "util.rng", "workloads",
    "telemetry",
)


def run_op(index: int, workload: str, seed: int, mode: str,
           scratch: Path, seconds: float = 0.0) -> dict | None:
    """Launch one op; its report (with ``setup_s`` added), or None
    when it crashed or timed out."""
    workdir = scratch / f"op-{index}"
    out = scratch / f"op-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--workdir", str(workdir),
         "--out", str(out), "--seconds", f"{seconds:.3f}"],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        proc.wait(timeout=seconds + OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"op {index} timed out after {seconds + OP_TIMEOUT_S:g}s",
              file=sys.stderr)
    finally:
        # the op's session holds anything it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    report = None
    if proc.returncode == 0 and out.is_file():
        report = json.loads(out.read_text())
        report["setup_s"] = report["ready"] - spawned
        kept = workdir / "spans.json"
        if kept.is_file():
            kept.replace(scratch.parent / f"spans-{workload}.json")
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def run_loop(args, scratch: Path) -> list[tuple[str, dict | None]]:
    deadline = time.monotonic() + args.seconds
    ops: list[tuple[str, dict | None]] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            ops.append(("setup", run_op(len(ops), args.workload, args.seed,
                                        "setup", scratch)))
        report = run_op(len(ops), args.workload, args.seed, "plain",
                        scratch, max(0.0, deadline - time.monotonic()))
        ops.append(("plain", report))
        return ops
    longest = 0.0
    while True:
        started = time.monotonic()
        for mode in ("plain", "traced"):
            ops.append((mode, run_op(len(ops), args.workload, args.seed,
                                     mode, scratch)))
        longest = max(longest, time.monotonic() - started)
        if time.monotonic() + longest > deadline:
            return ops


def judge(ops: list[tuple[str, dict | None]]) -> tuple[int, int, list]:
    """(attempted, failed, passing ops): an op attempts one set-up or
    its passes; prints why the failures failed and drops their
    passes from the ops returned."""
    attempted = failed = 0
    good = []
    digest = None
    for index, (mode, report) in enumerate(ops):
        if report is None:
            print(f"op {index}: crashed or timed out", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        passes = []
        for number, one in enumerate(report.get("passes", ())):
            attempted += 1
            where = f"op {index} pass {number}"
            cold = one["cold"]
            print(f"# {where} {mode}: host_s {sum(cold['segments']):.4f} "
                  f"segments {len(cold['segments'])} probe_ms "
                  f"{statistics.median(cold['probes']) * 1e3:.4f}",
                  flush=True)
            for problem in one["problems"]:
                print(f"{where}: {problem}", file=sys.stderr)
            digest = digest or one["digest"]
            if one["digest"] != digest:
                print(f"{where}: result differs from the first pass's",
                      file=sys.stderr)
            elif not one["problems"]:
                passes.append(one)
                continue
            failed += 1
        if mode == "setup":
            attempted += 1
        good.append((mode, dict(report, passes=passes)))
    return attempted, failed, good


def median_of(reports: list[dict], key) -> float:
    return statistics.median(key(r) for r in reports)


def paced(timings: list[dict]) -> float:
    """Seconds at the reference pace of ``timings`` of one call cut into
    the same segments: each segment's host time over the mean host time
    of the probes on either side of it, the median of that over the
    timings, summed over the segments, times ``REFERENCE_PACE_S``.
    Timings cut into another number of segments than the first are
    left out."""
    count = len(timings[0]["segments"])
    rows = [
        [seconds / ((before + after) / 2) for seconds, before, after
         in zip(t["segments"], t["probes"], t["probes"][1:])]
        for t in timings if len(t["segments"]) == count
    ]
    return REFERENCE_PACE_S * sum(
        statistics.median(column) for column in zip(*rows)
    )


def end_to_end(setups: list[dict], plain: dict) -> dict[str, float]:
    passes = plain["passes"]
    host = {
        "wall_s": statistics.median(sum(p["cold"]["segments"]) for p in passes),
        "setup_s": median_of(setups, lambda r: r["setup_s"]),
        "rerun_s": statistics.median(
            sum(w["segments"]) for p in passes for w in p["warm"]
        ),
    }
    print("# host seconds, unscaled medians: " + " ".join(
        f"{name} {value:.6f}" for name, value in host.items()
    ))
    return {
        "wall_s": paced([p["cold"] for p in passes]),
        "setup_s": median_of(
            setups, lambda r: r["setup_s"] * REFERENCE_BUILD_S / r["build_s"]
        ),
        "peak_rss_mb": plain["peak_rss_mb"],
        "rerun_s": paced([w for p in passes for w in p["warm"]]),
    }


def _pass_s(report: dict) -> float:
    one = report["passes"][0]
    return sum(one["cold"]["segments"]) + statistics.median(
        sum(warm["segments"]) for warm in one["warm"]
    )


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        name: median_of(traced, lambda r, n=name: r["layers"][n])
        for name in traced[0]["layers"]
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = median_of(
            traced, lambda r, n=layer: r["self_s"].get(n, 0.0)
        )
    plain_s = median_of(plain, _pass_s)
    traced_s = median_of(traced, _pass_s)
    invocations = metrics["openmp.invocations"]
    metrics["openmp.host_us_per_invocation"] = (
        plain_s * 1e6 / invocations if invocations else 0.0
    )
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    # byte-compile once, so no op pays for it in its set-up time
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    # a terminated run still stops its op (see run_op) and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        ops = run_loop(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, good = judge(ops)
    setups = [r for mode, r in good if mode == "setup"]
    plain = [r for mode, r in good if mode == "plain" and r["passes"]]
    traced = [r for mode, r in good if mode == "traced" and r["passes"]]
    metrics: dict[str, float] = {}
    if args.trace and plain and traced:
        metrics = per_layer(plain, traced)
    elif not args.trace and setups and plain:
        metrics = end_to_end(setups, plain[0])
    # names and units as BENCHMARK.json declares them
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if metrics:
        if set(metrics) != set(units):
            raise SystemExit(
                "error: metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
        metrics = {name: metrics[name] for name in units}
    print(f"# {args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
