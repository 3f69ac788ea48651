"""JSON codecs for the leaf measurement records.

These round-trip :class:`~repro.openmp.records.RegionTotals`,
:class:`~repro.workloads.base.AppRunResult` and
:class:`~repro.core.overhead.OverheadReport` through plain JSON with
full float fidelity (Python serializes floats via ``repr``, so values
survive a dump/load cycle bit-for-bit - the property every
byte-identical-resume guarantee in this repo leans on).

They used to live inside :mod:`repro.experiments.cache`; they are a
leaf module now so that the run-checkpoint layer (which the runner
imports) can share them without creating an import cycle through the
cache (which imports the runner).
"""

from __future__ import annotations

import hashlib

from repro.core.overhead import OverheadReport
from repro.openmp.records import RegionTotals
from repro.workloads.base import Application, AppRunResult


def app_fingerprint(app: Application) -> str:
    """A deterministic content fingerprint of an application.

    ``repr`` of the frozen dataclass tree covers every region profile
    field, so two apps sharing a (name, workload) label but differing
    in timesteps or region characterization never collide.
    """
    return hashlib.sha256(repr(app).encode()).hexdigest()[:16]


def totals_to_json(totals: RegionTotals) -> dict:
    return {
        "region_name": totals.region_name,
        "calls": totals.calls,
        "implicit_task_s": totals.implicit_task_s,
        "loop_s": totals.loop_s,
        "barrier_s": totals.barrier_s,
        "energy_j": totals.energy_j,
    }


def totals_from_json(blob: dict) -> RegionTotals:
    return RegionTotals(
        region_name=blob["region_name"],
        calls=int(blob["calls"]),
        implicit_task_s=blob["implicit_task_s"],
        loop_s=blob["loop_s"],
        barrier_s=blob["barrier_s"],
        energy_j=blob["energy_j"],
    )


def run_to_json(run: AppRunResult) -> dict:
    return {
        "app_label": run.app_label,
        "time_s": run.time_s,
        "energy_j": run.energy_j,
        "region_totals": {
            name: totals_to_json(t)
            for name, t in run.region_totals.items()
        },
        "region_miss_rates": {
            name: list(rates)
            for name, rates in run.region_miss_rates.items()
        },
        "total_region_calls": run.total_region_calls,
        "degraded": list(run.degraded),
    }


def run_from_json(blob: dict) -> AppRunResult:
    return AppRunResult(
        app_label=blob["app_label"],
        time_s=blob["time_s"],
        energy_j=blob["energy_j"],
        region_totals={
            name: totals_from_json(t)
            for name, t in blob["region_totals"].items()
        },
        region_miss_rates={
            name: (rates[0], rates[1], rates[2])
            for name, rates in blob["region_miss_rates"].items()
        },
        total_region_calls=int(blob["total_region_calls"]),
        degraded=tuple(blob.get("degraded", ())),
    )


def overhead_to_json(overhead: OverheadReport | None) -> dict | None:
    if overhead is None:
        return None
    return {
        "config_change_s": overhead.config_change_s,
        "config_change_calls": overhead.config_change_calls,
        "instrumentation_s": overhead.instrumentation_s,
        "search_s": overhead.search_s,
    }


def overhead_from_json(blob: dict | None) -> OverheadReport | None:
    if blob is None:
        return None
    return OverheadReport(
        config_change_s=blob["config_change_s"],
        config_change_calls=int(blob["config_change_calls"]),
        instrumentation_s=blob["instrumentation_s"],
        search_s=blob["search_s"],
    )
