"""Declarative SLO rules over aggregated telemetry.

A rule file (``examples/slo.json``) is ``{"schema": 1, "rules": [...]}``
where each rule is one of:

``counter_ceiling`` / ``counter_floor``
    ``{"counter": "<glob>", "max"|"min": N}`` - the summed total of
    every matching counter must stay under/over the threshold.
``ratio_ceiling`` / ``ratio_floor``
    ``{"numerator": [globs], "denominator": [globs], "max"|"min": X}``
    - numerator total over denominator total.  A zero denominator
    skips the rule ("n/a": no traffic is not a violation).
``sample_ceiling`` / ``sample_floor``
    ``{"sample": "<series>", "stat": "max|min|mean|last|p50|p95|p99",
    "max"|"min": X}`` over a sample series (value-events or
    ``span.<name>`` durations).  An absent series skips the rule.
``event_gap_ceiling``
    ``{"event": "<name>", "group_by": "node", "over": "step"|"ts",
    "max_gap": N}`` - the largest gap between consecutive occurrences
    per group must stay under the ceiling (heartbeat staleness).

Thresholds may be literals or ``{"max_from_meta": "<key>"}`` /
``{"min_from_meta": "<key>"}``, resolved from the run's meta record -
one rule file serves runs at different global caps.  A rule whose
meta key is absent is skipped, so the same file gates both sweep and
fleet telemetry.

Every violated rule becomes a typed :class:`Alert`; when the ambient
bus is enabled each alert is also emitted as an ``obs.alert``
telemetry event, and the CLI maps any alert to a nonzero exit code.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

from repro.obs.aggregate import StreamAggregator
from repro.telemetry.bus import bus
from repro.util.atomicio import read_json

SLO_SCHEMA_VERSION = 1

_RULE_KINDS = (
    "counter_ceiling",
    "counter_floor",
    "ratio_ceiling",
    "ratio_floor",
    "sample_ceiling",
    "sample_floor",
    "event_gap_ceiling",
)


class SloConfigError(ValueError):
    """The rule file is malformed."""


@dataclass(frozen=True)
class Alert:
    """One violated SLO rule."""

    rule: str        #: rule name (unique within the file)
    kind: str        #: rule kind (typed: what class of SLO burned)
    severity: str    #: "warning" | "critical"
    value: float     #: observed value
    threshold: float #: the bound it violated
    detail: str      #: human-readable one-liner

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RuleOutcome:
    """Evaluation result for one rule (alerts + skipped reporting)."""

    rule: str
    kind: str
    status: str  #: "ok" | "alert" | "n/a"
    detail: str
    alert: Alert | None = None


def load_rules(path: str | Path) -> list[dict]:
    """Parse and validate a rule file."""
    return read_json(
        path,
        "SLO rules",
        SloConfigError,
        schema=SLO_SCHEMA_VERSION,
        parse=_parse_rules,
    )


def _parse_rules(blob: dict) -> list[dict]:
    rules = blob.get("rules")
    if not isinstance(rules, list) or not rules:
        raise SloConfigError("lists no rules")
    seen: set[str] = set()
    for rule in rules:
        if not isinstance(rule, dict):
            raise SloConfigError("every rule must be an object")
        name = rule.get("name")
        kind = rule.get("kind")
        if not isinstance(name, str) or not name:
            raise SloConfigError("every rule needs a string 'name'")
        if name in seen:
            raise SloConfigError(f"duplicate rule name {name!r}")
        seen.add(name)
        if kind not in _RULE_KINDS:
            raise SloConfigError(
                f"rule {name!r}: unknown kind {kind!r}; "
                f"known: {_RULE_KINDS}"
            )
    return rules


def _resolve_threshold(
    rule: dict, bound: str, meta: dict
) -> float | None:
    """Literal threshold, or ``<bound>_from_meta`` lookup; ``None``
    when the meta key is absent (rule skipped)."""
    value = rule.get(bound)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    meta_key = rule.get(f"{bound}_from_meta")
    if isinstance(meta_key, str):
        got = meta.get(meta_key)
        if isinstance(got, (int, float)) and not isinstance(got, bool):
            return float(got)
        return None
    raise SloConfigError(
        f"rule {rule.get('name')!r} needs '{bound}' or "
        f"'{bound}_from_meta'"
    )


def _glob_total(agg: StreamAggregator, patterns) -> float:
    if isinstance(patterns, str):
        patterns = [patterns]
    total = 0.0
    for name, value in agg.counters.items():
        if any(fnmatch.fnmatchcase(name, p) for p in patterns):
            total += value
    return total


def _sample_stat(
    agg: StreamAggregator, series: str, stat: str
) -> float | None:
    hist = agg.samples.get(series)
    if hist is None or hist.count == 0:
        return None
    if stat == "max":
        return hist.max
    if stat == "min":
        return hist.min
    if stat == "mean":
        return hist.mean
    if stat == "last":
        return hist.samples[-1] if hist.samples else None
    if stat in ("p50", "p95", "p99"):
        return hist.percentile(float(stat[1:]))
    raise SloConfigError(f"unknown sample stat {stat!r}")


def evaluate_rules(
    agg: StreamAggregator, rules: list[dict]
) -> list[RuleOutcome]:
    """Evaluate every rule against the aggregated state, in file
    order.  Violations are additionally emitted as typed ``obs.alert``
    events when the ambient bus is enabled."""
    outcomes: list[RuleOutcome] = []
    for rule in rules:
        outcomes.append(_evaluate_one(agg, rule))
    tb = bus()
    if tb.enabled:
        for outcome in outcomes:
            if outcome.alert is not None:
                tb.count("obs.alerts")
                tb.emit("obs.alert", **outcome.alert.to_json())
    return outcomes


def alerts(outcomes: list[RuleOutcome]) -> list[Alert]:
    return [o.alert for o in outcomes if o.alert is not None]


def _outcome(
    rule: dict,
    value: float,
    threshold: float,
    violated: bool,
    what: str,
) -> RuleOutcome:
    name = str(rule["name"])
    kind = str(rule["kind"])
    relation = "<=" if kind.endswith("ceiling") else ">="
    detail = f"{what} = {value:g} (required {relation} {threshold:g})"
    if not violated:
        return RuleOutcome(name, kind, "ok", detail)
    severity = str(rule.get("severity", "critical"))
    return RuleOutcome(
        name,
        kind,
        "alert",
        detail,
        Alert(name, kind, severity, value, threshold, detail),
    )


def _na(rule: dict, why: str) -> RuleOutcome:
    return RuleOutcome(
        str(rule["name"]), str(rule["kind"]), "n/a", why
    )


def _evaluate_one(agg: StreamAggregator, rule: dict) -> RuleOutcome:
    kind = rule["kind"]
    if kind in ("counter_ceiling", "counter_floor"):
        bound = "max" if kind == "counter_ceiling" else "min"
        threshold = _resolve_threshold(rule, bound, agg.meta)
        if threshold is None:
            return _na(rule, f"meta key for '{bound}' absent")
        value = _glob_total(agg, rule.get("counter", ""))
        violated = (
            value > threshold
            if kind == "counter_ceiling"
            else value < threshold
        )
        return _outcome(
            rule, value, threshold, violated,
            f"counter {rule.get('counter')}",
        )
    if kind in ("ratio_ceiling", "ratio_floor"):
        bound = "max" if kind == "ratio_ceiling" else "min"
        threshold = _resolve_threshold(rule, bound, agg.meta)
        if threshold is None:
            return _na(rule, f"meta key for '{bound}' absent")
        num = _glob_total(agg, rule.get("numerator", []))
        den = _glob_total(agg, rule.get("denominator", []))
        if den == 0.0:
            return _na(rule, "denominator is zero (no traffic)")
        value = num / den
        violated = (
            value > threshold
            if kind == "ratio_ceiling"
            else value < threshold
        )
        return _outcome(rule, value, threshold, violated, "ratio")
    if kind in ("sample_ceiling", "sample_floor"):
        bound = "max" if kind == "sample_ceiling" else "min"
        threshold = _resolve_threshold(rule, bound, agg.meta)
        if threshold is None:
            return _na(rule, f"meta key for '{bound}' absent")
        series = str(rule.get("sample", ""))
        stat = str(rule.get("stat", "max"))
        value = _sample_stat(agg, series, stat)
        if value is None:
            return _na(rule, f"no samples for series {series!r}")
        violated = (
            value > threshold
            if kind == "sample_ceiling"
            else value < threshold
        )
        return _outcome(
            rule, value, threshold, violated, f"{stat}({series})"
        )
    # event_gap_ceiling
    threshold = _resolve_threshold(rule, "max_gap", agg.meta)
    if threshold is None:
        return _na(rule, "meta key for 'max_gap' absent")
    event = str(rule.get("event", ""))
    over = str(rule.get("over", "step"))
    groups = agg.groups(event)
    if not groups:
        return _na(rule, f"no occurrences of event {event!r}")
    worst_group: str | None = None
    worst = 0.0
    for group in groups:
        gap = agg.max_gap(event, group, over)
        if gap is not None and gap[1] > worst:
            worst_group, worst = gap
    return _outcome(
        rule,
        worst,
        threshold,
        worst > threshold,
        f"max {over}-gap of {event} "
        f"({worst_group if worst_group else 'all groups'})",
    )
