"""The Generic Interrupt Controller (GIC) model.

Implements the two halves the paper's evaluation exercises:

* the **virtual CPU interface** (``ICC_*``/``ICV_*`` registers) that a VM
  uses to acknowledge and complete interrupts *without trapping* — this is
  what makes the Virtual EOI microbenchmark cost ~71 cycles at every
  nesting level (Tables 1 and 6);
* the **hypervisor control interface** (``ICH_*_EL2``, Table 5) — list
  registers and status registers that a hypervisor programs to inject
  virtual interrupts, and that NEVE turns into cached copies.

List-register values are stored in the owning CPU's EL2 register bank as
64-bit encoded words, so hypervisor flows access them through the ordinary
system-register path (and therefore trap, defer, or go direct exactly per
the architecture rules).
"""

import enum
from dataclasses import dataclass

SPURIOUS_INTID = 1023

#: Software Generated Interrupts (IPIs) occupy INTIDs 0-15.
SGI_RANGE = range(0, 16)
#: Private Peripheral Interrupts (timers) occupy 16-31.
PPI_RANGE = range(16, 32)


class LrState(enum.IntEnum):
    INVALID = 0
    PENDING = 1
    ACTIVE = 2
    PENDING_ACTIVE = 3


@dataclass(frozen=True)
class ListRegister:
    """Decoded ICH_LR<n>_EL2 contents."""

    vintid: int = 0
    state: LrState = LrState.INVALID
    priority: int = 0
    group: int = 1
    hw: bool = False
    pintid: int = 0

    def encode(self):
        if self.state is LrState.INVALID and not self.vintid:
            return 0  # an empty slot encodes as all-zero
        return (
            (int(self.state) << 62)
            | (int(self.hw) << 61)
            | ((self.group & 1) << 60)
            | ((self.priority & 0xFF) << 48)
            | ((self.pintid & 0x3FF) << 32)
            | (self.vintid & 0xFFFFFFFF)
        )

    @classmethod
    def decode(cls, value):
        return cls(
            vintid=value & 0xFFFFFFFF,
            state=LrState((value >> 62) & 3),
            priority=(value >> 48) & 0xFF,
            group=(value >> 60) & 1,
            hw=bool((value >> 61) & 1),
            pintid=(value >> 32) & 0x3FF,
        )


def lr_name(index):
    return "ICH_LR%d_EL2" % index


#: ``ICH_LR<n>_EL2`` names for every list register an implementation
#: may have (1..16).
LR_NAMES = tuple(lr_name(index) for index in range(16))

#: The status registers :meth:`Gic.sync_status` computes.
_STATUS_REGS = ("ICH_ELRSR_EL2", "ICH_EISR_EL2", "ICH_MISR_EL2")

_LR_STATE_SHIFT = 62
_LR_HW_BIT = 1 << 61
_LR_VINTID_MASK = 0xFFFFFFFF


def lr_in_use(value):
    """Whether an encoded list register holds an interrupt (its state
    is not INVALID); the bit test :meth:`ListRegister.decode` implies."""
    return (value >> _LR_STATE_SHIFT) & 3 != 0  # 0 is LrState.INVALID


# ---------------------------------------------------------------------------
# GICv2 memory-mapped hypervisor control interface (GICH)
#
# "The hypervisor control interface is memory mapped with GICv2 and
# therefore trivially traps to EL2 when not mapped in the Stage-2 page
# tables, but GICv3 uses system registers and must use paravirtualization"
# (Section 4).  Offsets follow the GICv2 architecture specification; each
# maps onto the equivalent ICH_* register of the GICv3 model, because
# "the programming interfaces for both GIC versions are almost identical"
# (Section 7).
# ---------------------------------------------------------------------------

GICH_FRAME_SIZE = 0x200

_GICH_FIXED_OFFSETS = {
    0x000: "ICH_HCR_EL2",  # GICH_HCR
    0x004: "ICH_VTR_EL2",  # GICH_VTR
    0x008: "ICH_VMCR_EL2",  # GICH_VMCR
    0x010: "ICH_MISR_EL2",  # GICH_MISR
    0x020: "ICH_EISR_EL2",  # GICH_EISR0
    0x030: "ICH_ELRSR_EL2",  # GICH_ELRSR0
    0x0F0: "ICH_AP0R0_EL2",  # GICH_APR
}


def gich_offset_to_reg(offset):
    """Map a GICH frame offset to the equivalent ICH_* register name."""
    if offset in _GICH_FIXED_OFFSETS:
        return _GICH_FIXED_OFFSETS[offset]
    if 0x100 <= offset < 0x100 + 16 * 4 and offset % 4 == 0:
        return lr_name((offset - 0x100) // 4)
    raise KeyError("no GICH register at offset %#x" % offset)


def gich_reg_to_offset(name):
    for offset, reg in _GICH_FIXED_OFFSETS.items():
        if reg == name:
            return offset
    if name.startswith("ICH_LR"):
        index = int(name[len("ICH_LR"):-len("_EL2")])
        return 0x100 + 4 * index
    raise KeyError("%s has no GICH frame offset" % name)


class Gic:
    """One GIC instance shared by all CPUs of a machine."""

    def __init__(self, version=3, num_lrs=4):
        if num_lrs < 1 or num_lrs > 16:
            raise ValueError("GIC implementations have 1..16 list registers")
        self.version = version
        self.num_lrs = num_lrs
        self._cpus = {}
        self._icc_state = {}  # cpu_id -> {reg: value}
        self.pending_physical = {}  # cpu_id -> [intid, ...]
        self.maintenance_requests = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_cpu(self, cpu):
        self._cpus[cpu.cpu_id] = cpu
        cpu.gic = self
        self._icc_state[cpu.cpu_id] = {}
        self.pending_physical.setdefault(cpu.cpu_id, [])
        # Advertise the implementation: ICH_VTR_EL2.ListRegs = num_lrs - 1.
        cpu.el2_regs.write("ICH_VTR_EL2", self.num_lrs - 1)  # lint: allow(sim-sysreg-bypass)
        self.sync_status(cpu)

    def cpu(self, cpu_id):
        return self._cpus[cpu_id]

    # ------------------------------------------------------------------
    # List registers (hypervisor side)
    # ------------------------------------------------------------------

    def read_lr(self, cpu, index):
        return ListRegister.decode(cpu.el2_regs.read(lr_name(index)))

    def write_lr(self, cpu, index, lr):
        cpu.el2_regs.write(lr_name(index), lr.encode())  # lint: allow(sim-sysreg-bypass)
        self.sync_status(cpu)

    def find_free_lr(self, cpu):
        for index in range(self.num_lrs):
            if self.read_lr(cpu, index).state is LrState.INVALID:
                return index
        return None

    def inject_virtual_interrupt(self, cpu, vintid, priority=0xA0):
        """Place a pending virtual interrupt in a free list register.

        Returns the LR index used, or None if all LRs are in use (a real
        hypervisor then uses the maintenance interrupt; callers model
        that).
        """
        index = self.find_free_lr(cpu)
        if index is None:
            return None
        self.write_lr(cpu, index, ListRegister(
            vintid=vintid, state=LrState.PENDING, priority=priority))
        return index

    def used_lr_count(self, cpu):
        read = cpu.el2_regs.read
        return sum(1 for name in LR_NAMES[:self.num_lrs]
                   if lr_in_use(read(name)))

    # ------------------------------------------------------------------
    # Status registers (computed by hardware)
    # ------------------------------------------------------------------

    def sync_status(self, cpu):
        """Recompute ICH_ELRSR/ICH_EISR/ICH_MISR from the list registers
        (bit tests on the raw values; no decode)."""
        elrsr = 0
        eisr = 0
        used = 0
        *lrs, hcr = cpu.el2_regs.read_many(LR_NAMES[:self.num_lrs]
                                           + ("ICH_HCR_EL2",))
        for index, value in enumerate(lrs):
            if lr_in_use(value):
                used += 1
            else:
                elrsr |= 1 << index
                if value & _LR_VINTID_MASK and not value & _LR_HW_BIT:
                    # EOI'd software interrupt with EOI maintenance set;
                    # simplified: flag only when requested via ICH_HCR.
                    eisr |= 1 << index
        underflow = int(used == 0)
        misr = underflow if (hcr & 0x2) else 0  # UIE -> MISR.U
        # The GIC computes these itself (a device model's own state);
        # they are bit masks well inside 64 bits.
        cpu.el2_regs.put_many(_STATUS_REGS, (elrsr, eisr, misr))  # lint: allow(sim-sysreg-bypass)

    # ------------------------------------------------------------------
    # Virtual CPU interface (VM side; never traps)
    # ------------------------------------------------------------------

    def cpu_interface_access(self, cpu, name, is_write, value):
        """Handle an ICC_* access from a running guest.

        Called from the CPU's system-register path; charges the extra
        interface work on top of the base MSR/MRS cost already charged.
        """
        cpu.ledger.charge(cpu.costs.gic_icc_virt, "gic")
        if name == "ICC_IAR1_EL1":
            return self._acknowledge(cpu)
        if name == "ICC_EOIR1_EL1":
            self._end_of_interrupt(cpu, value)
            return None
        if name == "ICC_DIR_EL1":
            self._deactivate(cpu, value)
            return None
        state = self._icc_state[cpu.cpu_id]
        if is_write:
            state[name] = value
            return None
        return state.get(name, 0)

    def _best_pending_lr(self, cpu):
        """Highest priority wins; ties break to the lowest INTID (the
        GICv3 prioritization rule)."""
        best_index = None
        best_key = (0x100, 1 << 32)
        for index in range(self.num_lrs):
            lr = self.read_lr(cpu, index)
            if lr.state is LrState.PENDING:
                key = (lr.priority, lr.vintid)
                if key < best_key:
                    best_key = key
                    best_index = index
        return best_index

    def _acknowledge(self, cpu):
        index = self._best_pending_lr(cpu)
        if index is None:
            return SPURIOUS_INTID
        lr = self.read_lr(cpu, index)
        self.write_lr(cpu, index, ListRegister(
            vintid=lr.vintid, state=LrState.ACTIVE, priority=lr.priority,
            group=lr.group, hw=lr.hw, pintid=lr.pintid))
        return lr.vintid

    def _end_of_interrupt(self, cpu, vintid):
        """Priority drop + deactivate (EOImode == 0): completes the
        interrupt entirely in hardware — the Virtual EOI path."""
        for index in range(self.num_lrs):
            lr = self.read_lr(cpu, index)
            if lr.vintid == vintid and lr.state in (LrState.ACTIVE,
                                                    LrState.PENDING_ACTIVE):
                next_state = (LrState.PENDING
                              if lr.state is LrState.PENDING_ACTIVE
                              else LrState.INVALID)
                self.write_lr(cpu, index, ListRegister(
                    vintid=lr.vintid if next_state else 0,
                    state=next_state, priority=lr.priority, group=lr.group,
                    hw=lr.hw, pintid=lr.pintid))
                return
        # EOI with no matching active interrupt is architecturally ignored.

    def _deactivate(self, cpu, vintid):
        self._end_of_interrupt(cpu, vintid)

    # ------------------------------------------------------------------
    # Physical interrupt plumbing (distributor)
    # ------------------------------------------------------------------

    def raise_physical(self, cpu_id, intid):
        """Mark a physical interrupt pending for *cpu_id*.

        The machine/hypervisor layer decides when to deliver it (guests
        exit with an IRQ; the host handles it directly).
        """
        self.pending_physical.setdefault(cpu_id, []).append(intid)

    def take_physical(self, cpu_id):
        pending = self.pending_physical.get(cpu_id, [])
        if pending:
            return pending.pop(0)
        return None

    def send_sgi(self, target_cpu_id, intid):
        """Generate a physical SGI (IPI) to another CPU."""
        if intid not in SGI_RANGE:
            raise ValueError("SGIs use INTIDs 0-15, got %d" % intid)
        self.raise_physical(target_cpu_id, intid)
