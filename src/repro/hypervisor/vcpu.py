"""Virtual CPU state.

A :class:`VcpuState` is what a hypervisor keeps per virtual CPU: the saved
EL1/EL0 context, and — for virtual CPUs that expose virtualization
extensions (Section 4's "virtual EL2 mode") — the emulated EL2 state plus
the bookkeeping NEVE needs (the deferred access page runner).
"""

import enum

from repro.arch.gic import LR_NAMES, ListRegister, LrState, lr_in_use
from repro.arch.registers import RegisterFile


class VcpuMode(enum.Enum):
    """Which virtual exception level the vcpu currently executes in."""

    VEL0 = "vEL0"
    VEL1 = "vEL1"
    VEL2 = "vEL2"  # only for vcpus with the virtual EL2 feature
    NESTED = "nested"  # the guest hypervisor's own VM (L2) is running


class VcpuStruct:
    """Memory-backed register storage inside a hypervisor data structure.

    Reads and writes charge memory-access cycles on the owning CPU,
    because on real hardware the hypervisor's save/restore loops move
    state between system registers and the kernel's vcpu struct.
    """

    def __init__(self, cpu, category="world_switch"):
        self._cpu = cpu
        self.category = category  # what its loads and stores charge
        self.regs = RegisterFile()

    def save(self, name, value):
        self._cpu.ledger.charge(self._cpu.costs.mem_store, self.category)
        self.regs.write(name, value)

    def load(self, name):
        self._cpu.ledger.charge(self._cpu.costs.mem_load, self.category)
        return self.regs.read(name)

    def fold_lrs(self, num_lrs):
        """KVM's vgic_fold_lr_state on the saved list registers:
        completed interrupts leave INVALID slots behind, which become
        reusable; live entries are compacted downwards.  Returns the
        live count.  Charges nothing."""
        names = LR_NAMES[:num_lrs]
        live = [value for value in self.regs.read_many(names)
                if lr_in_use(value)]
        self.regs.put_many(names, live + [0] * (num_lrs - len(live)))
        return len(live)

    def peek(self, name):
        """Read without charging (for assertions/tests only)."""
        return self.regs.read(name)

    def poke(self, name, value):
        """Write without charging (test setup only)."""
        self.regs.write(name, value)


class VcpuState:
    """One virtual CPU as seen by the hypervisor that runs it.

    ``el1_ctx`` holds the vcpu's EL0/EL1 register context while it is not
    loaded in hardware.  ``vel2_ctx`` (present when ``has_virtual_el2``)
    holds the emulated EL2 state of a guest hypervisor.  ``pending_virqs``
    are virtual interrupt numbers queued for injection.
    """

    def __init__(self, cpu, vcpu_id=0, has_virtual_el2=False,
                 virtual_e2h=False):
        self.cpu = cpu
        self.vcpu_id = vcpu_id
        self.has_virtual_el2 = has_virtual_el2
        self.virtual_e2h = virtual_e2h
        self.mode = VcpuMode.VEL2 if has_virtual_el2 else VcpuMode.VEL1

        self.el1_ctx = VcpuStruct(cpu)
        self.vel2_ctx = VcpuStruct(cpu) if has_virtual_el2 else None

        # Shadow copies of the GIC hypervisor interface the vcpu programs
        # for *its* guest (only meaningful for virtual-EL2 vcpus).
        self.shadow_ich = VcpuStruct(cpu) if has_virtual_el2 else None

        # Virtual EL1 context: what the guest hypervisor believes the
        # hardware EL1 registers hold (the nested VM's state, or its own
        # kernel's).  The host emulates trapped EL1 accesses against this.
        self.vel1_shadow = VcpuStruct(cpu) if has_virtual_el2 else None

        # List-register images per nesting role: ``l1_vgic`` is the vcpu's
        # own virtual interface (L1-level interrupts), ``shadow_ich`` above
        # is what the guest hypervisor programmed for its nested VM.
        self.l1_vgic = VcpuStruct(cpu) if has_virtual_el2 else None
        self.used_lrs = 0  # live LRs for whatever context is loaded
        self.l1_used_lrs = 0  # LRs the guest hypervisor uses for its VM

        self.vm = None  # back-reference set by the owning Vm
        self.online = True  # PSCI power state
        self.pending_virqs = []
        self.neve = None  # NeveRunner attached by the host when enabled
        self.loaded = False  # context currently in hardware registers

    def queue_virq(self, intid):
        if intid not in self.pending_virqs:
            self.pending_virqs.append(intid)

    def take_virq(self):
        if self.pending_virqs:
            return self.pending_virqs.pop(0)
        return None

    def pending_lrs(self, limit):
        """Take up to *limit* queued virtual interrupts, oldest first, as
        the pending list-register values the host flushes into this
        vcpu's LR image.  None while the nested VM's context is loaded:
        interrupts for the guest hypervisor are delivered by forwarding
        an IRQ exit instead."""
        if self.mode is VcpuMode.NESTED or limit <= 0:
            return []
        taken = self.pending_virqs[:limit]
        del self.pending_virqs[:len(taken)]
        return [ListRegister(vintid=intid, state=LrState.PENDING,
                             priority=0x80).encode() for intid in taken]

    @property
    def in_virtual_el2(self):
        return self.mode is VcpuMode.VEL2

    @property
    def neve_armed(self):
        """Whether the vcpu currently runs with a deferred access page.

        Flips to False on fault-recovery degradation and back to True
        when the recovery layer re-promotes the vcpu after its
        cooling-off window (see repro.faults.recovery)."""
        return self.neve is not None

    def __repr__(self):
        return ("VcpuState(id=%d, mode=%s, vel2=%r)"
                % (self.vcpu_id, self.mode.value, self.has_virtual_el2))
