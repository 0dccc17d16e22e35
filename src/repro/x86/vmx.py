"""The VT-x CPU model: root/non-root modes and exit plumbing.

Unlike ARM's extra exception level, "Intel VT provides root vs. non-root
mode, completely orthogonal to the CPU privilege levels" (Section 2).
VM exits save/restore state through the VMCS in one hardware operation,
charged as ``vmexit_hw``/``vmentry_hw`` — the coalescing that NEVE brings
to ARM in software-visible form.
"""

import enum

from repro.metrics.counters import ExitReason, TrapCounter
from repro.metrics.cycles import X86_COSTS, CycleLedger


class X86ExitReason(enum.Enum):
    VMCALL = "vmcall"
    EPT_VIOLATION = "ept"
    IO_INSTRUCTION = "io"
    MSR_WRITE = "msr_write"
    MSR_READ = "msr_read"
    EXTERNAL_INTERRUPT = "extint"
    VMREAD = "vmread"
    VMWRITE = "vmwrite"
    VMRESUME = "vmresume"
    VMPTRLD = "vmptrld"
    APIC_WRITE = "apic"
    HLT = "hlt"


_EXIT_TO_TRAP = {
    X86ExitReason.VMCALL: ExitReason.VMCALL,
    X86ExitReason.EPT_VIOLATION: ExitReason.EPT_VIOLATION,
    X86ExitReason.IO_INSTRUCTION: ExitReason.EPT_VIOLATION,
    X86ExitReason.MSR_WRITE: ExitReason.MSR_ACCESS,
    X86ExitReason.MSR_READ: ExitReason.MSR_ACCESS,
    X86ExitReason.EXTERNAL_INTERRUPT: ExitReason.EXTERNAL_INTERRUPT,
    X86ExitReason.VMREAD: ExitReason.VMREAD,
    X86ExitReason.VMWRITE: ExitReason.VMWRITE,
    X86ExitReason.VMRESUME: ExitReason.VMRESUME,
    X86ExitReason.VMPTRLD: ExitReason.VMRESUME,
    X86ExitReason.APIC_WRITE: ExitReason.APIC_ACCESS,
    X86ExitReason.HLT: ExitReason.WFI,
}


class X86Cpu:
    """One x86 core.  ``in_root`` tracks VMX mode; the exit handler is the
    L0 hypervisor (KVM x86)."""

    def __init__(self, costs=None, ledger=None, traps=None, cpu_id=0):
        self.costs = costs if costs is not None else X86_COSTS
        self.ledger = ledger if ledger is not None else CycleLedger()
        self.traps = traps if traps is not None else TrapCounter()
        self.cpu_id = cpu_id
        self.in_root = True
        self.exit_handler = None
        self._handling_exit = False

    # -- cost helpers ------------------------------------------------------

    def work(self, instructions, category="guest"):
        self.ledger.charge(instructions * self.costs.instr, category)

    def charge(self, cycles, category):
        self.ledger.charge(cycles, category)

    # -- VMCS access (cost side; data goes through Vmcs objects) -----------

    def vmread(self, count=1, category="vmcs"):
        """Non-trapping VMREADs (root mode, or shadowed in non-root)."""
        self.ledger.charge(count * self.costs.vmread, category)

    def vmwrite(self, count=1, category="vmcs"):
        self.ledger.charge(count * self.costs.vmwrite, category)

    def vmptrld(self, category="vmcs"):
        self.ledger.charge(self.costs.vmptrld, category)

    def memcpy_fields(self, count, category="vmcs"):
        """Move *count* VMCS fields to/from ordinary memory."""
        self.ledger.charge(count * (self.costs.mem_load
                                    + self.costs.mem_store), category)

    # -- exits --------------------------------------------------------------

    def vm_exit(self, reason, payload=None):
        """A VM exit from non-root to root mode.

        Charges the hardware state swap and dispatches to the installed
        handler (L0).  Returns whatever the handler produces for the
        exiting instruction (e.g. an MMIO value).
        """
        if self.in_root:
            raise RuntimeError("vm_exit while already in root mode")
        if self._handling_exit:
            raise RuntimeError("recursive VM exit in root mode")
        self.traps.record(_EXIT_TO_TRAP[reason])
        self.ledger.charge(self.costs.vmexit_hw, "vmexit_hw")
        self.in_root = True
        self._handling_exit = True
        try:
            result = self.exit_handler.handle_exit(self, reason,
                                                   payload or {})
        finally:
            self._handling_exit = False
        return result

    def vm_entry(self):
        """Root -> non-root (the handler calls this before returning)."""
        self.ledger.charge(self.costs.vmentry_hw, "vmentry_hw")
        self.in_root = False

    # -- guest-visible operations -------------------------------------------

    def vmcall(self, nr=0):
        return self.vm_exit(X86ExitReason.VMCALL, {"nr": nr})

    def mmio_read(self, addr):
        return self.vm_exit(X86ExitReason.EPT_VIOLATION,
                            {"addr": addr, "is_write": False})

    def mmio_write(self, addr, value):
        return self.vm_exit(X86ExitReason.EPT_VIOLATION,
                            {"addr": addr, "is_write": True,
                             "value": value})

    def wrmsr(self, msr, value):
        return self.vm_exit(X86ExitReason.MSR_WRITE,
                            {"msr": msr, "value": value})

    def apic_virtual_eoi(self):
        """APICv: complete an interrupt without exiting (Section 5's
        Virtual EOI row — 316 cycles on the paper's hardware)."""
        self.ledger.charge(self.costs.apic_reg_virt, "apicv")
        self.work(12, category="guest")
