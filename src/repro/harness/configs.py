"""The paper's platform configurations.

Section 5/7 evaluate seven configurations; Figure 2's legend names them:

=====================  ======================================================
name                   meaning
=====================  ======================================================
``arm-vm``             ARM, run in a VM (no nesting) — "ARMv8.3 VM"
``arm-nested``         nested VM, ARMv8.3 trap-and-emulate, non-VHE guest
``arm-nested-vhe``     nested VM, ARMv8.3, VHE guest hypervisor
``neve-nested``        nested VM, NEVE, non-VHE guest hypervisor
``neve-nested-vhe``    nested VM, NEVE, VHE guest hypervisor
``x86-vm``             x86, run in a VM
``x86-nested``         x86 nested VM (Turtles KVM + VMCS shadowing)
=====================  ======================================================
"""

from dataclasses import dataclass

from repro.arch.features import ArchConfig, ArchVersion, GicVersion
from repro.hypervisor.kvm import Machine
from repro.metrics.instrument import MachineMetrics
from repro.workloads.microbench import ArmMicrobench, X86Microbench
from repro.x86.kvm_x86 import X86Machine


@dataclass(frozen=True)
class PlatformConfig:
    name: str
    platform: str  # "arm" | "x86"
    nested: str  # "none" | "nv" | "neve" (ARM) / "none" | "nested" (x86)
    guest_vhe: bool = False
    shadowing: bool = True  # x86 only
    label: str = ""

    @property
    def is_nested(self):
        return self.nested != "none"


ALL_CONFIGS = {
    "arm-vm": PlatformConfig("arm-vm", "arm", "none",
                             label="ARMv8.3 VM"),
    "arm-nested": PlatformConfig("arm-nested", "arm", "nv",
                                 label="ARMv8.3 Nested"),
    "arm-nested-vhe": PlatformConfig("arm-nested-vhe", "arm", "nv",
                                     guest_vhe=True,
                                     label="ARMv8.3 Nested VHE"),
    "neve-nested": PlatformConfig("neve-nested", "arm", "neve",
                                  label="NEVE Nested"),
    "neve-nested-vhe": PlatformConfig("neve-nested-vhe", "arm", "neve",
                                      guest_vhe=True,
                                      label="NEVE Nested VHE"),
    "x86-vm": PlatformConfig("x86-vm", "x86", "none", label="x86 VM"),
    "x86-nested": PlatformConfig("x86-nested", "x86", "nested",
                                 label="x86 Nested"),
}

#: Figure 2 series order, matching the paper's legend.
FIGURE2_CONFIGS = (
    "arm-vm", "arm-nested", "arm-nested-vhe",
    "neve-nested", "neve-nested-vhe",
    "x86-vm", "x86-nested",
)

#: Table 1 columns (ARMv8.3 and x86 only — pre-NEVE).
TABLE1_CONFIGS = ("arm-vm", "arm-nested", "arm-nested-vhe",
                  "x86-vm", "x86-nested")

#: Table 6/7 columns.
TABLE6_CONFIGS = ("arm-nested", "arm-nested-vhe",
                  "neve-nested", "neve-nested-vhe", "x86-nested")


def arm_arch_for(config):
    """The architecture model a configuration needs."""
    if config.nested == "neve":
        return ArchConfig(version=ArchVersion.V8_4, gic=GicVersion.V3)
    return ArchConfig(version=ArchVersion.V8_3, gic=GicVersion.V3)


def make_microbench(name, costs=None, registry=None):
    """Build a ready-to-run microbenchmark suite for a configuration.

    ``costs`` overrides the platform's calibrated :class:`CostModel`
    (the bench pipeline's regression tests perturb it).  ``registry``,
    when given, attaches a :class:`MachineMetrics` facade (config label =
    *name*) to the machine *before* it boots, so the registry mirrors
    reconcile exactly with the legacy counters.
    """
    config = ALL_CONFIGS[name]
    if config.platform == "arm":
        machine = (Machine(arch=arm_arch_for(config))
                   if costs is None
                   else Machine(arch=arm_arch_for(config), costs=costs))
        if registry is not None:
            MachineMetrics(registry, config=name).attach_machine(machine)
        return ArmMicrobench(machine=machine,
                             nested=config.nested,
                             guest_vhe=config.guest_vhe)
    machine = X86Machine(costs=costs)
    if registry is not None:
        MachineMetrics(registry, config=name).attach_machine(machine)
    return X86Microbench(machine=machine,
                         nested=config.is_nested,
                         shadowing=config.shadowing)
