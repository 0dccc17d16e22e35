"""Cycle cost model and cycle accounting.

The paper evaluates everything in cycles (Tables 1 and 6) because cycle
counts are comparable across the 2.4 GHz ARM and x86 test machines.  We do
the same: every simulated operation charges a cost drawn from a
:class:`CostModel`.

Calibration policy (see DESIGN.md section 5): the per-operation constants
are chosen so that the *single-level VM* microbenchmark results land near
the paper's measured anchors (ARM hypercall 2,729 cycles, x86 hypercall
1,188 cycles, ARM virtual EOI 71 cycles, x86 virtual EOI 316 cycles).  All
nested-virtualization numbers are then emergent: they follow from how many
operations and traps the modelled hypervisor code paths actually execute.

The trap entry/return costs come straight from the paper's own hardware
measurement in Section 5: "trapping from EL1 to EL2 was between 68 to 76
cycles, and returning from a trap to EL2 back to EL1 was 65 cycles", with
less than 10 cycles of variation across instruction classes.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Named per-operation cycle costs for one platform.

    Instances are frozen so a configuration cannot drift mid-experiment;
    derive variants with :func:`dataclasses.replace`.
    """

    # --- Instruction-level costs (ARM & x86 share the generic ones) ---
    instr: int = 1  # one ordinary ALU instruction
    branch: int = 2
    mem_load: int = 4  # L1-hit load (cache-hot vcpu struct)
    mem_store: int = 4
    cache_miss: int = 90  # charged explicitly where the model needs one

    # --- ARM specific ---
    sysreg_read: int = 9  # mrs that does not trap
    sysreg_write: int = 10  # msr that does not trap
    trap_entry: int = 72  # EL1 -> EL2 exception, paper S5: 68..76
    trap_return: int = 65  # eret EL2 -> EL1, paper S5: 65
    exception_entry_el1: int = 40  # exception taken to EL1 (SVC, IRQ in guest)
    gpr_save_restore: int = 1  # per general-purpose register moved to stack
    vgic_mmio_access: int = 95  # GICv2 MMIO access (device memory, uncached)
    gic_icc_virt: int = 57  # extra work in the virtual CPU interface (LR scan)
    dsb_isb: int = 14  # barrier cost around context switches

    # --- x86 / VT-x specific ---
    vmexit_hw: int = 470  # hardware state save into VMCS on VM exit
    vmentry_hw: int = 380  # hardware state load from VMCS on VM entry
    vmread: int = 28  # non-trapping VMREAD (root mode or shadowed)
    vmwrite: int = 30
    vmptrld: int = 160  # switch current VMCS pointer
    msr_access: int = 60
    apic_reg_virt: int = 300  # APICv virtualized APIC register access

    # --- software path constants ---
    userspace_roundtrip: int = 550  # kernel->QEMU->kernel device emulation
    irq_delivery_wire: int = 150  # physical interrupt signalling latency
    tlb_maintenance: int = 2600  # TLBI VMALLS12E1 + DSB on nested transitions


#: Calibrated ARM model (HP Moonshot m400, 2.4 GHz X-Gene, per the paper).
ARM_COSTS = CostModel()

#: Calibrated x86 model (Cisco UCS, 2.4 GHz Xeon E5-2630 v3, per the paper).
#: x86 serializing instructions and APIC accesses are costlier; trap-style
#: exceptions (into the kernel) are cheaper than full VM exits.
X86_COSTS = CostModel(
    sysreg_read=40,  # rdmsr-style
    sysreg_write=45,
    trap_entry=120,  # not used for VM exits (vmexit_hw covers those)
    trap_return=80,
    vgic_mmio_access=200,
)


class CycleLedger:
    """Accumulates cycles, broken down by named category.

    Categories are free-form strings such as ``"trap"``, ``"world_switch"``,
    ``"emulation"``, ``"guest"``; the totals drive Tables 1 and 6 while the
    breakdown feeds the analysis sections of EXPERIMENTS.md.

    Telemetry reads the ledger instead of being called by it: the
    tracer (:mod:`repro.trace`) attributes a span's cycles from
    ``total`` at its boundaries, and the metrics registry
    (:mod:`repro.metrics.instrument`) pulls ``by_category`` into
    ``repro_cycles_total`` whenever the registry is read.  ``charge``
    therefore only adds.
    """

    __slots__ = ("total", "by_category")

    def __init__(self, total=0, by_category=None):
        self.total = total
        self.by_category = {} if by_category is None else by_category

    def charge(self, cycles, category="other"):
        """Add *cycles* to the ledger under *category*."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles: %r" % cycles)
        self.total += cycles
        self.by_category[category] = self.by_category.get(category, 0) + cycles

    # -- value semantics (the old dataclass's eq/repr) --------------------

    def __eq__(self, other):
        if not isinstance(other, CycleLedger):
            return NotImplemented
        return (self.total == other.total
                and self.by_category == other.by_category)

    __hash__ = None

    def __repr__(self):
        return ("CycleLedger(total=%r, by_category=%r)"
                % (self.total, self.by_category))

    def snapshot(self):
        """Return ``(total, dict-copy)`` for later differencing."""
        return self.total, dict(self.by_category)

    def since(self, snapshot):
        """Cycles accumulated since *snapshot* (as returned by snapshot())."""
        total_then, _ = snapshot
        return self.total - total_then

    def reset(self):
        self.total = 0
        self.by_category.clear()


class ScopedMeter:
    """Context manager measuring cycles and traps across a region.

    Example::

        with ScopedMeter(ledger, traps) as m:
            vcpu.hypercall()
        print(m.cycles, m.traps)
    """

    def __init__(self, ledger, trap_counter=None):
        self._ledger = ledger
        self._traps = trap_counter
        self.cycles = 0
        self.traps = 0

    def __enter__(self):
        self._cycle_mark = self._ledger.total
        self._trap_mark = self._traps.total if self._traps is not None else 0
        return self

    def __exit__(self, exc_type, exc, tb):
        self.cycles = self._ledger.total - self._cycle_mark
        if self._traps is not None:
            self.traps = self._traps.total - self._trap_mark
        return False
