"""Tests for the MSR register file and the RAPL interface."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    MsrFile,
)
from repro.machine.rapl import Rapl, RaplDomain
from repro.machine.spec import crill, minotaur


@pytest.fixture
def msr():
    return MsrFile(sockets=2)


@pytest.fixture
def rapl(msr):
    return Rapl(crill(), msr)


class TestMsrFile:
    def test_power_unit_register_initialized(self, msr):
        raw = msr.read(0, MSR_RAPL_POWER_UNIT)
        assert (raw >> 8) & 0x1F == 0x10   # 2^-16 J energy units

    def test_unknown_msr_faults(self, msr):
        with pytest.raises(KeyError, match="rdmsr fault"):
            msr.read(0, 0x123)
        with pytest.raises(KeyError, match="wrmsr fault"):
            msr.write(0, 0x123, 1)

    def test_energy_counter_read_only(self, msr):
        with pytest.raises(PermissionError):
            msr.write(0, MSR_PKG_ENERGY_STATUS, 5)

    def test_energy_counter_wraps_at_32_bits(self, msr):
        msr.bump_energy_counter(0, (1 << 32) - 1)
        msr.bump_energy_counter(0, 2)
        assert msr.read_energy_counter(0) == 1

    def test_sockets_isolated(self, msr):
        msr.bump_energy_counter(0, 100)
        assert msr.read_energy_counter(1) == 0

    def test_invalid_socket_rejected(self, msr):
        with pytest.raises(ValueError):
            msr.read(5, MSR_RAPL_POWER_UNIT)

    def test_energy_units(self, msr):
        assert msr.energy_units_per_joule(0) == pytest.approx(65536.0)


class TestRaplCapping:
    def test_cap_written_to_limit_register(self, rapl, msr):
        rapl.set_package_cap(85.0, now_s=0.0)
        raw = msr.read(0, MSR_PKG_POWER_LIMIT)
        assert raw & (1 << 15)             # enable bit
        assert (raw & 0x7FFF) == 85 * 8    # 1/8 W units

    def test_cap_settles_after_warmup(self, rapl):
        """Section IV-D's 'warm up period after enforcing a power cap'."""
        rapl.set_package_cap(55.0, now_s=1.0)
        assert rapl.effective_cap_w(0, 1.0) is None      # not yet
        assert rapl.effective_cap_w(0, 1.0 + rapl.cap_settle_s) == 55.0

    def test_clearing_cap(self, rapl):
        rapl.set_package_cap(55.0, now_s=0.0)
        rapl.set_package_cap(None, now_s=1.0)
        assert rapl.effective_cap_w(0, 2.0) is None

    def test_both_sockets_capped(self, rapl):
        rapl.set_package_cap(70.0, now_s=0.0)
        assert rapl.effective_cap_w(0, 1.0) == 70.0
        assert rapl.effective_cap_w(1, 1.0) == 70.0

    def test_minotaur_has_no_capping_privilege(self):
        msr = MsrFile(sockets=2)
        rapl = Rapl(minotaur(), msr)
        with pytest.raises(PermissionError):
            rapl.set_package_cap(100.0, now_s=0.0)

    def test_invalid_cap_rejected(self, rapl):
        with pytest.raises(ValueError):
            rapl.set_package_cap(-5.0, now_s=0.0)


class TestRaplEnergyCounters:
    def test_energy_visible_after_update_interval(self, rapl):
        rapl.deposit_energy(0, 10.0, now_s=0.0005)
        # pending: the counter refreshes only at interval boundaries
        assert rapl.read_package_energy_j(0) == 0.0
        rapl.deposit_energy(0, 10.0, now_s=0.0021)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            20.0, abs=0.001
        )

    def test_force_update_flushes(self, rapl):
        rapl.deposit_energy(0, 5.0, now_s=0.0001)
        rapl.force_update(0.0001)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            5.0, abs=0.001
        )

    def test_quantized_to_energy_units(self, rapl):
        rapl.deposit_energy(0, 1.0 / 65536 / 2, now_s=0.0)  # half a unit
        rapl.force_update(1.0)
        assert rapl.read_package_energy_j(0) == 0.0

    def test_unwrap_across_counter_overflow(self, rapl):
        # 2^32 units = 65536 J per wrap; deposit enough to wrap once
        big = (2**32 + 5) / 65536.0
        rapl.deposit_energy(0, big, now_s=0.0)
        rapl.force_update(1.0)
        assert rapl.read_package_energy_j(0) == pytest.approx(
            big, rel=1e-6
        )

    def test_minotaur_counters_unreadable(self):
        rapl = Rapl(minotaur(), MsrFile(sockets=2))
        with pytest.raises(PermissionError):
            rapl.read_package_energy_j(0)

    def test_negative_deposit_rejected(self, rapl):
        with pytest.raises(ValueError):
            rapl.deposit_energy(0, -1.0, now_s=0.0)


_UNIT_J = 1.0 / 65536
_ENERGY_STATUS = {
    RaplDomain.PACKAGE: MSR_PKG_ENERGY_STATUS,
    RaplDomain.DRAM: MSR_DRAM_ENERGY_STATUS,
}

# one deposit: (socket draw, domain, joules, time step).  Joules range
# past a whole counter span (65536 J) so sequences wrap the counters.
_deposits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.sampled_from(list(RaplDomain)),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=70000.0),
        ),
        st.floats(min_value=0.0, max_value=0.004),
    ),
    max_size=40,
)


def _fresh_rapl(sockets: int) -> Rapl:
    spec = dataclasses.replace(crill(), sockets=sockets)
    return Rapl(spec, MsrFile(sockets=sockets))


def _replay(rapl: Rapl, deposits, now_s: float) -> float:
    sockets = rapl.spec.sockets
    for socket, domain, joules, step in deposits:
        now_s += step
        rapl.deposit_energy(socket % sockets, joules, now_s, domain)
    return now_s


def _readings(rapl: Rapl) -> list[float]:
    return [
        read(socket)
        for read in (rapl.read_package_energy_j, rapl.read_dram_energy_j)
        for socket in range(rapl.spec.sockets)
    ]


class TestRaplEnergyConservation:
    """Every deposited joule reaches the counters: after a final flush
    each (domain, socket) counter reads the sum of its deposits to
    within one energy unit, however the deposits fall across update
    intervals and 32-bit wraps."""

    @settings(max_examples=150, deadline=None)
    @given(
        sockets=st.integers(min_value=1, max_value=2),
        offsets=st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=4, max_size=4,
        ),
        deposits=_deposits,
    )
    def test_counters_read_the_summed_deposits(
        self, sockets, offsets, deposits
    ):
        rapl = _fresh_rapl(sockets)
        # start each counter at a random raw value (often just below
        # the top) so the deposits force 32-bit wraps
        expected: dict[tuple[RaplDomain, int], list[float]] = {}
        for d, domain in enumerate(RaplDomain):
            for socket in range(sockets):
                offset = offsets[2 * d + socket]
                rapl.msr.bump_counter(
                    socket, _ENERGY_STATUS[domain], offset
                )
                expected[(domain, socket)] = [offset * _UNIT_J]
        for socket, domain, joules, _ in deposits:
            expected[(domain, socket % sockets)].append(joules)
        now_s = _replay(rapl, deposits, 0.0)
        rapl.force_update(now_s)
        for (domain, socket), parts in expected.items():
            read = (
                rapl.read_package_energy_j
                if domain is RaplDomain.PACKAGE
                else rapl.read_dram_energy_j
            )
            total = math.fsum(parts)
            assert read(socket) == pytest.approx(
                total, abs=_UNIT_J * (1 + 1e-6)
            )

    @settings(max_examples=100, deadline=None)
    @given(
        sockets=st.integers(min_value=1, max_value=2),
        head=_deposits,
        tail=_deposits,
    )
    def test_snapshot_restore_mid_sequence(self, sockets, head, tail):
        original = _fresh_rapl(sockets)
        now_s = _replay(original, head, 0.0)
        blob = json.loads(json.dumps({
            "msr": original.msr.snapshot(),
            "rapl": original.snapshot(),
        }))
        restored = _fresh_rapl(sockets)
        restored.msr.restore(blob["msr"])
        restored.restore(blob["rapl"])
        end_s = _replay(original, tail, now_s)
        assert _replay(restored, tail, now_s) == end_s
        original.force_update(end_s)
        restored.force_update(end_s)
        assert _readings(restored) == _readings(original)
