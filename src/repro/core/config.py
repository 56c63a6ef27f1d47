"""Machine configurations (Table I plus SAVE feature knobs)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.memory.hierarchy import HierarchyConfig


class CoalescingScheme(Enum):
    """How SAVE packs effectual lanes into VPU operations (Sec. III/IV)."""

    #: Vertical coalescing: lanes stay in their positions.
    VERTICAL = "vc"
    #: Rotate-vertical coalescing: ±1-lane rotation by accumulator R-state.
    ROTATE_VERTICAL = "rvc"
    #: Horizontal compression over all 16 lanes (the rejected design,
    #: modeled with extra latency for bubble collapse/expand).
    HORIZONTAL = "hc"
    #: The paper's introduction strawman: check lanes for zeros but never
    #: combine across instructions — a VFMA still occupies a whole VPU
    #: slot unless *all* of its lanes are ineffectual.  "This approach
    #: can seldom improve performance."
    NAIVE = "naive"


@dataclass(frozen=True)
class CoreConfig:
    """Core back-end resources (Table I, Skylake-like with 5-wide alloc)."""

    issue_width: int = 5
    rs_entries: int = 97
    rob_entries: int = 224
    num_vpus: int = 2
    freq_ghz: float = 1.7
    fp32_fma_latency: int = 4
    mixed_fma_latency: int = 6
    scalar_ports: int = 3
    store_ports: int = 1
    vector_lanes: int = 16

    def __post_init__(self) -> None:
        if self.num_vpus <= 0 or self.issue_width <= 0:
            raise ValueError("num_vpus and issue_width must be positive")
        if self.freq_ghz <= 0:
            raise ValueError("frequency must be positive")


@dataclass(frozen=True)
class SaveConfig:
    """SAVE feature selection.

    ``enabled=False`` is the paper's baseline: whole VFMAs issue to
    VPUs, no sparsity exploitation, no B$.
    """

    enabled: bool = False
    coalescing: CoalescingScheme = CoalescingScheme.ROTATE_VERTICAL
    lane_wise_dependence: bool = True
    rotation_states: int = 3
    mixed_precision_technique: bool = True
    broadcast_cache: BroadcastCacheKind = BroadcastCacheKind.DATA
    broadcast_cache_entries: int = 32
    broadcast_cache_ports: int = 4
    mgu_count: int = 5
    hc_extra_latency: int = 6

    def __post_init__(self) -> None:
        if self.rotation_states not in (1, 3):
            raise ValueError("rotation_states must be 1 (off) or 3 (paper)")
        if self.mgu_count <= 0:
            raise ValueError("mgu_count must be positive")


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: core + SAVE + memory hierarchy."""

    core: CoreConfig = field(default_factory=CoreConfig)
    save: SaveConfig = field(default_factory=SaveConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    #: Cores sharing L3/DRAM (scales the L3 capacity share).
    sharing_cores: int = 1

    def fma_latency(self, mixed: bool) -> int:
        """VFMA latency, plus HC's crossbar penalty when selected."""
        base = self.core.mixed_fma_latency if mixed else self.core.fp32_fma_latency
        if (
            self.save.enabled
            and self.save.coalescing == CoalescingScheme.HORIZONTAL
        ):
            return base + self.save.hc_extra_latency
        return base

    def with_save(self, **kwargs) -> MachineConfig:
        """A copy with SAVE fields overridden."""
        return replace(self, save=replace(self.save, **kwargs))

    def with_core(self, **kwargs) -> MachineConfig:
        """A copy with core fields overridden."""
        return replace(self, core=replace(self.core, **kwargs))


def machine_label(machine: MachineConfig) -> str:
    """Short display name of a machine, for reports and query columns.

    It names the SAVE features and VPU count only, so two machines can
    share a label; result keys use the full canonical form instead.
    """
    core = machine.core
    save = machine.save
    if not save.enabled:
        return f"baseline-{core.num_vpus}vpu@{core.freq_ghz}"
    return (
        f"save-{save.coalescing.value}"
        f"{'+lwd' if save.lane_wise_dependence else ''}"
        f"{'+mp' if save.mixed_precision_technique else ''}"
        f"-b${save.broadcast_cache.name.lower()}"
        f"-{core.num_vpus}vpu@{core.freq_ghz}"
    )


#: The paper's baseline: two 512-bit VPUs at 1.7 GHz, no SAVE.
BASELINE_2VPU = MachineConfig(
    core=CoreConfig(num_vpus=2, freq_ghz=1.7),
    save=SaveConfig(enabled=False),
)

#: SAVE with both VPUs at 1.7 GHz.
SAVE_2VPU = MachineConfig(
    core=CoreConfig(num_vpus=2, freq_ghz=1.7),
    save=SaveConfig(enabled=True),
)

#: SAVE with one VPU disabled and the core boosted to 2.1 GHz
#: (Sec. IV-D power saving / frequency boosting).
SAVE_1VPU = MachineConfig(
    core=CoreConfig(num_vpus=1, freq_ghz=2.1),
    save=SaveConfig(enabled=True),
)
