"""``repro monitor``: terminal dashboard over a telemetry directory.

One-shot mode folds the directory's JSONL through a
:class:`~repro.obs.aggregate.StreamAggregator`, optionally evaluates
an SLO rule file, and renders:

* a per-layer health table (events, spans, total and p95 span time);
* the SLO scoreboard (every rule with ok / ALERT / n/a status);
* active alerts (typed, with observed value vs threshold);
* the top-k slowest spans.

The exit code is the CI contract: 0 when no rule fired, 1 otherwise.
:func:`render_metrics` is ``repro report``: the same fold's counters,
gauges and series as one table.

``--follow`` mode re-renders on a cadence from a
:class:`~repro.obs.aggregate.TailReader`, folding only records
appended since the last poll - reading never blocks or perturbs the
writers, so a live sweep/fleet/daemon can be watched mid-run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.obs.aggregate import (
    DEFAULT_TOP_K,
    DEFAULT_WINDOW_S,
    StreamAggregator,
    TailReader,
)
from repro.obs.slo import RuleOutcome, alerts, evaluate_rules, load_rules
from repro.telemetry.sinks import load_telemetry_dir
from repro.util.tables import format_table


def render_report(
    agg: StreamAggregator,
    outcomes: list[RuleOutcome] | None = None,
    *,
    title: str = "telemetry monitor",
) -> str:
    """The full dashboard as plain text."""
    lines: list[str] = [f"=== {title} ==="]
    lines.append(f"records: {agg.records_seen}")
    if agg.meta:
        keys = ", ".join(
            f"{k}={agg.meta[k]}" for k in sorted(agg.meta)[:6]
        )
        lines.append(f"meta: {keys}")
    lines.append("")
    lines.append(_layer_table(agg))
    if outcomes is not None:
        lines.append("")
        lines.append(_slo_table(outcomes))
        fired = alerts(outcomes)
        lines.append("")
        if fired:
            lines.append(f"ACTIVE ALERTS ({len(fired)}):")
            for alert in fired:
                lines.append(
                    f"  [{alert.severity}] {alert.rule} "
                    f"({alert.kind}): {alert.detail}"
                )
        else:
            lines.append("no active alerts")
    slow = agg.slowest_spans()
    if slow:
        lines.append("")
        lines.append(_slow_table(slow))
    return "\n".join(lines) + "\n"


def render_metrics(agg: StreamAggregator) -> str:
    """The aggregator's counters, gauges and sample series as one
    table (``repro report``): flushed metrics plus the derived
    ``events.<name>`` counts and ``span.*``/value series that the
    monitor and the SLO rules read."""
    rows: list[list[object]] = []
    for name in sorted(agg.counters):
        rows.append(["counter", name, f"{agg.counters[name]:g}", "", ""])
    for name in sorted(agg.gauges):
        rows.append(["gauge", name, f"{agg.gauges[name]:g}", "", ""])
    for name in sorted(agg.samples):
        hist = agg.samples[name]
        rows.append(
            [
                "histogram",
                name,
                f"n={hist.count} mean={hist.mean:.6g}",
                "-" if hist.min is None else f"{hist.min:.6g}",
                "-" if hist.max is None else f"{hist.max:.6g}",
            ]
        )
    if not rows:
        return "(no metrics recorded)"
    return format_table(
        ["kind", "name", "value", "min", "max"],
        rows,
        title="telemetry metrics",
    )


def _layer_table(agg: StreamAggregator) -> str:
    rows = []
    for row in agg.layer_summary():
        rows.append(
            [
                row["layer"],
                row["events"],
                row["spans"],
                row["dur_sum"],
                "-" if row["p95_dur"] is None else row["p95_dur"],
            ]
        )
    if not rows:
        return "(no event or span records)"
    return format_table(
        ["layer", "events", "spans", "dur_sum_s", "p95_span_s"],
        rows,
        title="layer health",
    )


def _slo_table(outcomes: list[RuleOutcome]) -> str:
    rows = []
    for outcome in outcomes:
        status = (
            "ALERT" if outcome.status == "alert" else outcome.status
        )
        rows.append(
            [outcome.rule, outcome.kind, status, outcome.detail]
        )
    return format_table(
        ["rule", "kind", "status", "detail"], rows, title="SLOs"
    )


def _slow_table(slow: list[dict]) -> str:
    rows = []
    for span in slow:
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(span["attrs"].items())
        )
        rows.append(
            [span["name"], span["stem"], span["dur"], attrs]
        )
    return format_table(
        ["span", "file", "dur_s", "attrs"],
        rows,
        title="slowest spans",
    )


def monitor_once(
    directory: str | Path,
    slo_path: str | Path | None = None,
    *,
    window_s: float = DEFAULT_WINDOW_S,
    top_k: int = DEFAULT_TOP_K,
) -> tuple[str, int]:
    """One dashboard render over a finished (or paused) directory.

    Returns ``(text, exit_code)`` - exit 1 iff any SLO rule fired.
    """
    agg = StreamAggregator(window_s=window_s, top_k=top_k)
    agg.consume_loaded(load_telemetry_dir(directory))
    outcomes = None
    if slo_path is not None:
        outcomes = evaluate_rules(agg, load_rules(slo_path))
    text = render_report(
        agg, outcomes, title=f"telemetry monitor: {Path(directory)}"
    )
    fired = alerts(outcomes) if outcomes is not None else []
    return text, 1 if fired else 0


def monitor_follow(
    directory: str | Path,
    slo_path: str | Path | None = None,
    *,
    window_s: float = DEFAULT_WINDOW_S,
    top_k: int = DEFAULT_TOP_K,
    interval_s: float = 1.0,
    max_polls: int | None = None,
    emit=print,
    sleep=time.sleep,
) -> int:
    """Live-follow a telemetry directory, re-rendering each poll.

    Wall-clock pacing is fine here: follow mode is an interactive
    viewer and writes nothing, so it sits outside the determinism
    contract.  ``max_polls``/``emit``/``sleep`` exist for tests (and
    CI) to drive the loop without a terminal; interactive use stops
    with Ctrl-C.  Returns the exit code of the *last* render.
    """
    rules = load_rules(slo_path) if slo_path is not None else None
    reader = TailReader(directory)
    agg = StreamAggregator(window_s=window_s, top_k=top_k)
    polls = 0
    code = 0
    try:
        while True:
            for stem, record in reader.poll():
                agg.consume(stem, record)
            outcomes = (
                evaluate_rules(agg, rules) if rules is not None else None
            )
            emit(
                render_report(
                    agg,
                    outcomes,
                    title=(
                        f"telemetry monitor (live, poll {polls + 1}):"
                        f" {Path(directory)}"
                    ),
                )
            )
            code = (
                1
                if outcomes is not None and alerts(outcomes)
                else 0
            )
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return code
            sleep(interval_s)
    except KeyboardInterrupt:
        return code
