"""Text rendering of a telemetry log: the decision timeline.

``render_decision_timeline`` answers the post-mortem question the
paper's Section V-C analysis needed: *what did the controller see,
decide and do, in order, and what did it cost?*  It walks the merged
event stream and prints, per region invocation, the config the policy
applied (and why), the objective the measurement produced, whether the
search accepted it, and the power cap in force at the time.
"""

from __future__ import annotations

#: Event names consumed by the timeline renderer.  Instrumentation and
#: rendering share this module-level contract.
POLICY_APPLY = "policy.apply"
POLICY_REPORT = "policy.report"

#: Non-policy events worth interleaving into the timeline because they
#: change what the controller sees (cap moves, faults, supervision).
TIMELINE_EVENTS = (
    "cap.change",
    "cap.change_rejected",
    "fault.fired",
    "supervise.retry",
    "supervise.pin",
    "supervise.abort",
    "harmony.restart",
    "harmony.reject",
    "harmony.failed",
    "run.aborted",
)


def merged_records(
    loaded: list[tuple[str, list[dict]]],
) -> list[tuple[str, dict]]:
    """Merge per-file record lists into one (ts, file, seq)-ordered
    stream of ``(stem, record)`` pairs.

    Records from different files (sweep cells) interleave by virtual
    time; the per-file seq breaks ties within a file.  The one merge
    order shared by the timeline renderer and the :mod:`repro.obs`
    aggregator.
    """
    tagged = [
        (
            float(record.get("ts", 0.0)),
            file_index,
            int(record.get("seq", 0)),
            stem,
            record,
        )
        for file_index, (stem, records) in enumerate(loaded)
        for record in records
    ]
    tagged.sort(key=lambda item: item[:3])
    return [(stem, record) for _, _, _, stem, record in tagged]


def render_decision_timeline(
    loaded: list[tuple[str, list[dict]]], region: str | None = None
) -> str:
    """The per-region decision timeline as aligned text lines.

    ``loaded`` is the output of
    :func:`repro.telemetry.sinks.load_telemetry_dir`.  ``region``
    restricts the view to one parallel region.
    """
    lines: list[str] = []
    for meta in _meta_records(loaded):
        attrs = meta.get("attrs") or {}
        parts = [f"{k}={attrs[k]}" for k in sorted(attrs)]
        lines.append("# " + " ".join(parts))
    pending: dict[str, dict] = {}
    n_decisions = 0
    for _, record in merged_records(loaded):
        if record.get("type") != "event":
            continue
        name = record.get("name")
        attrs = record.get("attrs") or {}
        rgn = attrs.get("region")
        if region is not None and rgn is not None and rgn != region:
            continue
        ts = float(record.get("ts", 0.0))
        if name == POLICY_APPLY:
            if rgn is not None:
                pending[rgn] = record
            continue
        if name == POLICY_REPORT:
            apply_attrs = (pending.pop(rgn, None) or {}).get("attrs") or {}
            config = apply_attrs.get("config", attrs.get("config", "?"))
            source = apply_attrs.get("source", "?")
            objective = attrs.get("objective")
            obj_text = (
                f"{objective:.6g}"
                if isinstance(objective, (int, float))
                else "-"
            )
            verdict = _verdict(attrs)
            cap = attrs.get("cap_w", apply_attrs.get("cap_w"))
            cap_text = f"cap={cap:g}W" if isinstance(cap, (int, float)) else "uncapped"
            lines.append(
                f"[{ts:10.6f}] {rgn}: {config} ({source}) "
                f"-> objective={obj_text} -> {verdict} [{cap_text}]"
            )
            n_decisions += 1
            continue
        if name in TIMELINE_EVENTS:
            detail = " ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs) if k != "region"
            )
            prefix = f"{rgn}: " if rgn else ""
            lines.append(f"[{ts:10.6f}] ** {name} ** {prefix}{detail}")
    if not n_decisions:
        lines.append("(no policy decisions recorded)")
    return "\n".join(lines)


def _verdict(attrs: dict) -> str:
    accepted = attrs.get("accepted")
    if accepted is True:
        return "accept"
    if accepted is False:
        return "reject"
    return "recorded"


def _meta_records(loaded: list[tuple[str, list[dict]]]) -> list[dict]:
    metas = []
    for _, records in loaded:
        metas.extend(r for r in records if r.get("type") == "meta")
    return metas
