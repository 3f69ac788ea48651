"""A libmsr-like model-specific-register file.

The paper accesses RAPL through libmsr [13].  We model the MSR surface
that libmsr's RAPL wrappers touch: the power-unit register, the package
power-limit register and the 32-bit wrapping package energy-status
counter.  :mod:`repro.machine.rapl` layers the libmsr-style API on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.bus import bus

# Architectural MSR addresses (Intel SDM vol. 4).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_POWER_LIMIT = 0x610
MSR_PKG_ENERGY_STATUS = 0x611
MSR_DRAM_ENERGY_STATUS = 0x619

#: Default RAPL units (Sandy Bridge): power unit 1/8 W, energy unit
#: 2^-16 J (~15.3 uJ), time unit 976 us.  Encoded as the SDM does:
#: bits 3:0 power, 12:8 energy, 19:16 time (each value is 1/2^bits).
DEFAULT_POWER_UNIT_RAW = (0xA << 16) | (0x10 << 8) | 0x3

_COUNTER_BITS = 32
_COUNTER_MASK = (1 << _COUNTER_BITS) - 1


@dataclass
class MsrFile:
    """Per-socket register storage with the semantics MSRs actually have
    (fixed width, wrapping counters)."""

    sockets: int
    _regs: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for socket in range(self.sockets):
            self._regs[(socket, MSR_RAPL_POWER_UNIT)] = (
                DEFAULT_POWER_UNIT_RAW
            )
            self._regs[(socket, MSR_PKG_POWER_LIMIT)] = 0
            self._regs[(socket, MSR_PKG_ENERGY_STATUS)] = 0
            self._regs[(socket, MSR_DRAM_ENERGY_STATUS)] = 0

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.sockets:
            raise ValueError(
                f"socket must be in [0, {self.sockets}), got {socket}"
            )

    def read(self, socket: int, address: int) -> int:
        """Read a 64-bit MSR; unknown addresses fault like rdmsr would."""
        self._check_socket(socket)
        bus().count("msr.reads")
        try:
            return self._regs[(socket, address)]
        except KeyError:
            raise KeyError(
                f"rdmsr fault: MSR {address:#x} not implemented"
            ) from None

    def write(self, socket: int, address: int, value: int) -> None:
        """Write a 64-bit MSR. Energy-status counters are read-only."""
        self._check_socket(socket)
        bus().count("msr.writes")
        if address in (MSR_PKG_ENERGY_STATUS, MSR_DRAM_ENERGY_STATUS):
            raise PermissionError("energy-status MSRs are read-only")
        if (socket, address) not in self._regs:
            raise KeyError(f"wrmsr fault: MSR {address:#x} not implemented")
        self._regs[(socket, address)] = value & ((1 << 64) - 1)

    # -- energy counter helpers (used by the RAPL layer) ----------------
    def energy_units_per_joule(self, socket: int) -> float:
        # internal unit lookup, not a counted rdmsr: RAPL converts on
        # every counter update
        self._check_socket(socket)
        raw = self._regs[(socket, MSR_RAPL_POWER_UNIT)]
        esu_bits = (raw >> 8) & 0x1F
        return float(1 << esu_bits)

    def snapshot(self) -> dict:
        """JSON-ready register contents (tuple keys flattened to
        ``[socket, address, value]`` triples)."""
        return {
            "regs": [
                [socket, address, value]
                for (socket, address), value in sorted(self._regs.items())
            ]
        }

    def restore(self, blob: dict) -> None:
        self._regs = {
            (int(socket), int(address)): int(value)
            for socket, address, value in blob["regs"]
        }

    def bump_counter(self, socket: int, address: int, units: int) -> int:
        """Advance a wrapping 32-bit counter MSR by ``units`` and return
        its carry: how many times it wrapped."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        self._check_socket(socket)
        key = (socket, address)
        if key not in self._regs:
            raise KeyError(f"MSR {address:#x} not implemented")
        total = self._regs[key] + units
        self._regs[key] = total & _COUNTER_MASK
        return total >> _COUNTER_BITS

    def bump_energy_counter(self, socket: int, units: int) -> None:
        """Advance the wrapping package energy counter by ``units``."""
        self.bump_counter(socket, MSR_PKG_ENERGY_STATUS, units)

    def read_energy_counter(self, socket: int) -> int:
        return self.read(socket, MSR_PKG_ENERGY_STATUS)
