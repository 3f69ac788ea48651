"""The shared durable log and content digest (``repro.util.jsonlog``).

Two contracts are pinned here:

* every content fingerprint that reaches disk - cache digests, plan
  and schedule fingerprints, service keys, store-line checksums - is
  the same hex string it has always been, so cached results, journal
  headers and store shards written earlier stay readable;
* :class:`JsonLog` repairs a torn tail only on the owner's resume,
  reads without touching the file, and applies one identity rule:
  missing/empty starts fresh, an equal header resumes, anything else
  raises :class:`JournalMismatchError` naming what differs.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.capschedule import load_cap_schedule
from repro.experiments.cache import experiment_digest, tuning_digest
from repro.experiments.runner import ExperimentSetup
from repro.faults.plan import load_fault_plan, plan_fingerprint
from repro.fleet.plan import fleet_plan_fingerprint, synthesize_fleet
from repro.machine.spec import crill
from repro.service.source import config_key
from repro.service.store import _line_checksum
from repro.util.jsonlog import (
    JournalMismatchError,
    JsonLog,
    digest,
    read_jsonl,
)
from repro.workloads.sp import sp_application

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _sp_b_85w(faulted: bool = False) -> ExperimentSetup:
    setup = ExperimentSetup(spec=crill(), cap_w=85.0)
    if faulted:
        setup = replace(
            setup,
            fault_plan=load_fault_plan(EXAMPLES / "faultplan.json"),
            cap_schedule=load_cap_schedule(EXAMPLES / "capschedule.json"),
        )
    return setup


#: (site, fixed input -> digest, hex string the site has always produced)
DIGEST_PINS = [
    (
        "faults.plan_fingerprint",
        lambda: plan_fingerprint(
            load_fault_plan(EXAMPLES / "faultplan.json")
        ),
        "d0db12d1d82d0d7a",
    ),
    (
        "CapSchedule.fingerprint",
        lambda: load_cap_schedule(
            EXAMPLES / "capschedule.json"
        ).fingerprint(),
        "a7e4b76c88f55c26",
    ),
    (
        "fleet_plan_fingerprint",
        lambda: fleet_plan_fingerprint(synthesize_fleet(4, seed=0)),
        "8ab606d1846dd9a6",
    ),
    (
        "store._line_checksum",
        lambda: _line_checksum(
            "sp.B|crill|85.0|B",
            {"config": [16, "guided", 8], "time_s": 1.25},
        ),
        "4f69aeaddbe4",
    ),
    (
        "experiment_digest",
        lambda: experiment_digest(
            sp_application("B"), _sp_b_85w(), "arcs-offline"
        ),
        "5a0a889adb43020618c224b8a9a81f321f710bc82c012ffa785bd464dde8d332",
    ),
    (
        "experiment_digest[faults+capsched]",
        lambda: experiment_digest(
            sp_application("B"), _sp_b_85w(faulted=True), "arcs-online"
        ),
        "86a56660609c4446beb0c3db2c8913c6dcb795b06ff543fa652e5b146fb9d7d6",
    ),
    (
        "tuning_digest",
        lambda: tuning_digest(sp_application("B"), _sp_b_85w()),
        "6881e0971e808a6ad17f52a8a3df11a773890740f3a13a53ac864d1bd8cbb9bc",
    ),
    (
        "tuning_digest[faults]",
        lambda: tuning_digest(
            sp_application("B"), _sp_b_85w(faulted=True)
        ),
        "a26d182cd36001cf4ad72ead922164c4f8fc0714513f778e6c94c40391908ba5",
    ),
    (
        "service.config_key",
        lambda: config_key(sp_application("B"), _sp_b_85w()).digest,
        "6881e0971e808a6ad17f52a8a3df11a773890740f3a13a53ac864d1bd8cbb9bc",
    ),
    (
        "service.config_key[faults]",
        lambda: config_key(
            sp_application("B"), _sp_b_85w(faulted=True)
        ).digest,
        "a26d182cd36001cf4ad72ead922164c4f8fc0714513f778e6c94c40391908ba5",
    ),
]


@pytest.mark.parametrize(
    "compute, expected",
    [pytest.param(c, e, id=site) for site, c, e in DIGEST_PINS],
)
def test_digest_sites_are_pinned(compute, expected):
    assert compute() == expected


class TestDigest:
    def test_is_canonical_over_key_order(self):
        assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})

    def test_truncation(self):
        full = digest({"x": 1.5})
        assert len(full) == 64
        assert digest({"x": 1.5}, 12) == full[:12]


# ---------------------------------------------------------------------------
# the log
# ---------------------------------------------------------------------------
def _log(tmp_path, name: str = "log.jsonl") -> JsonLog:
    return JsonLog(tmp_path / name, schema=1, name="test")


class TestIdentityRule:
    def test_missing_file_starts_fresh(self, tmp_path):
        log = _log(tmp_path)
        log.resume({"run": "a"})
        assert log.header() == {"run": "a"}
        assert log.records() == []

    def test_empty_file_starts_fresh(self, tmp_path):
        log = _log(tmp_path)
        log.path.write_text("\n")
        log.resume({"run": "a"})
        assert log.header() == {"run": "a"}

    def test_equal_header_resumes(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a", "seeds": [0, 1]})
        log.append({"n": 1})
        log.resume({"run": "a", "seeds": [0, 1]})
        assert log.records() == [{"schema": 1, "n": 1}]

    def test_other_header_is_refused_naming_keys(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a", "seed": 0, "gone": 1})
        with pytest.raises(JournalMismatchError) as info:
            log.resume({"run": "a", "seed": 1, "new": 2})
        assert "mismatched: gone, new, seed" in str(info.value)

    def test_headerless_file_is_refused(self, tmp_path):
        log = _log(tmp_path)
        log.append({"n": 1})
        with pytest.raises(JournalMismatchError, match="no test header"):
            log.resume({"run": "a"})

    def test_other_schema_is_refused(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a"})
        newer = JsonLog(log.path, schema=2, name="test")
        with pytest.raises(JournalMismatchError, match="schema"):
            newer.resume({"run": "a"})


class TestTornTail:
    def test_resume_truncates_the_torn_tail(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a"})
        log.append({"n": 1})
        intact = log.path.read_bytes()
        with open(log.path, "ab") as handle:
            handle.write(b'{"schema":1,"n"')
        log.resume({"run": "a"})
        assert log.path.read_bytes() == intact
        log.append({"n": 2})
        assert [r["n"] for r in log.records()] == [1, 2]

    def test_reading_leaves_the_file_untouched(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a"})
        log.append({"n": 1})
        with open(log.path, "ab") as handle:
            handle.write(b'not json\n{"schema":1,"n":3}\n{"tor')
        before = log.path.read_bytes()
        assert [r["n"] for r in log.records()] == [1, 3]
        assert log.header() == {"run": "a"}
        assert log.path.read_bytes() == before

    def test_records_skip_header_and_other_schemas(self, tmp_path):
        log = _log(tmp_path)
        log.start({"run": "a"})
        log.append({"n": 1})
        with open(log.path, "a") as handle:
            handle.write('{"schema":9,"n":2}\n')
        assert log.records() == [{"schema": 1, "n": 1}]


class TestReadJsonl:
    def test_skips_and_counts_undecodable_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"a":1}\n\n[1,2]\n{"b":\xff2}\n{"c":3}\n{"to')
        records, damaged = read_jsonl(path)
        assert records == [{"a": 1}, {"c": 3}]
        assert damaged == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl(tmp_path / "nope.jsonl")
