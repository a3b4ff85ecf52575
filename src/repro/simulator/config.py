"""Machine configuration: a Core 2 Duo-class default.

Cache geometry follows the paper's test machine (32 KB split L1 caches,
4 MB shared unified L2) and the Intel optimization manual it cites; the
DTLB is sized so it maps roughly a quarter of the L2 — the capacity
relationship the paper uses to explain why DTLB-miss splits appear on the
no-L2-miss side of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

KIB = 1024
MIB = 1024 * KIB


def _power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if not _power_of_two(self.line_bytes):
            raise ConfigError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.associativity <= 0:
            raise ConfigError("associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigError(
                "size_bytes must be a multiple of line_bytes * associativity"
            )
        if not _power_of_two(self.n_sets):
            raise ConfigError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of one translation buffer level."""

    entries: int
    associativity: int = 0  # 0 means fully associative
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError("entries must be positive")
        if not _power_of_two(self.page_bytes):
            raise ConfigError("page_bytes must be a power of two")
        if self.associativity < 0:
            raise ConfigError("associativity must be non-negative")
        if self.associativity:
            if self.entries % self.associativity != 0:
                raise ConfigError("entries must be a multiple of associativity")
            if not _power_of_two(self.entries // self.associativity):
                raise ConfigError("number of TLB sets must be a power of two")


@dataclass(frozen=True)
class LatencyConfig:
    """Cycle costs of micro-architectural events (Core 2-class values).

    These are *architectural* penalties before any overlap; the pipeline
    model decides how much of each is actually exposed.
    """

    l1_hit: int = 3
    l2_hit: int = 14
    memory: int = 165
    l1i_refill: int = 8
    ifetch_memory: int = 120
    itlb_walk: int = 30
    dtlb0_miss: int = 2
    dtlb_walk: int = 26
    branch_mispredict: int = 15
    load_block_sta: int = 5
    load_block_std: int = 6
    load_block_overlap: int = 6
    misaligned: int = 2
    split_access: int = 9
    lcp_stall: int = 6

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ConfigError(f"latency {name} must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description for :class:`repro.simulator.SimulatedCore`."""

    frequency_ghz: float = 2.4
    issue_width: int = 4
    rob_size: int = 96
    mshr_count: int = 8
    store_buffer_window: int = 32
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KIB, 8))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KIB, 8))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(4 * MIB, 16))
    dtlb0: TLBConfig = field(default_factory=lambda: TLBConfig(16, 0))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(256, 4))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(128, 4))
    branch_history_bits: int = 12
    prefetch_next_line: bool = True
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    measurement_noise_sd: float = 0.005

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")
        if self.rob_size <= 0:
            raise ConfigError("rob_size must be positive")
        if self.mshr_count <= 0:
            raise ConfigError("mshr_count must be positive")
        if self.store_buffer_window <= 0:
            raise ConfigError("store_buffer_window must be positive")
        if not 1 <= self.branch_history_bits <= 24:
            raise ConfigError("branch_history_bits must lie in [1, 24]")
        if self.measurement_noise_sd < 0:
            raise ConfigError("measurement_noise_sd must be non-negative")
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1D and L2 must share a line size")

    @classmethod
    def tiny(cls) -> "MachineConfig":
        """A deliberately small machine for fast unit tests.

        Caches and TLBs are shrunk so miss behaviour appears within a few
        hundred instructions instead of millions.
        """
        return cls(
            l1i=CacheConfig(2 * KIB, 2),
            l1d=CacheConfig(2 * KIB, 2),
            l2=CacheConfig(16 * KIB, 4),
            dtlb0=TLBConfig(4, 0),
            dtlb=TLBConfig(16, 2),
            itlb=TLBConfig(8, 2),
            rob_size=32,
            mshr_count=4,
            store_buffer_window=16,
            branch_history_bits=8,
        )
