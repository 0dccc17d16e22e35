"""Host-hypervisor-side NEVE mechanism (Section 6.1 workflow).

"In a typical workflow, the host hypervisor populates the deferred access
page with initial values of the registers and enables NEVE before running
the guest hypervisor.  During guest hypervisor execution, all accesses to
VM system registers are redirected to the deferred access page.  When the
host hypervisor needs to use the VM register values, it simply accesses
the deferred access page."

A detail that matters for performance (and that the shipped ARMv8.4/NV2
KVM support also relies on): the page is the *permanent* backing store of
the guest hypervisor's deferred state.  The host populates it once when
the virtual-EL2 context is created and afterwards only touches individual
entries — on trapped writes to cached-copy registers, and when it needs VM
register values to enter the nested VM.  Re-writing the whole page on
every entry would reintroduce the very cost NEVE removes.
"""

from repro.core.vncr import DeferredAccessPage, VncrEl2, deferred_registers


class NeveRunner:
    """Manages NEVE for one guest-hypervisor virtual CPU.

    All memory traffic is charged to the CPU's ledger because the host
    hypervisor performs it at EL2; the guest hypervisor's own deferred
    accesses are charged by the CPU layer when it rewrites them.
    """

    def __init__(self, cpu, memory, baddr):
        self.cpu = cpu
        self.memory = memory
        self.page = DeferredAccessPage(memory, baddr)
        self.vncr = VncrEl2.make(baddr, enable=False)
        # Optional fault injector: may swallow cached-copy refreshes to
        # model a stale deferred page (repro.faults).
        self.fault_hook = None

    # -- enable / disable --------------------------------------------------

    def enable(self):
        """Program VNCR_EL2 with Enable set (host runs at EL2)."""
        self.vncr = self.vncr.with_enable(True)
        self.cpu.msr("VNCR_EL2", self.vncr.value)

    def disable(self):
        """Clear Enable "while running the nested VM so the VM can access
        its EL1 registers" (Section 6.1)."""
        self.vncr = self.vncr.with_enable(False)
        self.cpu.msr("VNCR_EL2", self.vncr.value)

    @property
    def enabled(self):
        return self.vncr.enabled

    # -- page traffic -------------------------------------------------------

    def init_page(self, vel2_regs):
        """One-time population at virtual-EL2 context creation."""
        for reg in deferred_registers():
            self.cpu.store(self.page.baddr + reg.vncr_offset,
                           vel2_regs.read(reg.name), category="neve_host")

    def write_cached_copy(self, reg_name, value):
        """Refresh one cached-copy entry after emulating a trapped write,
        so subsequent guest reads are served from memory."""
        hook = self.fault_hook
        if hook is not None and hook.drop_cached_copy(self, reg_name,
                                                      value):
            return  # injected fault: the refresh never reaches the page
        self.cpu.store(self.page.baddr
                       + _offset(reg_name), value, category="neve_host")

    def read_deferred(self, reg_name):
        """Host reads one deferred value (e.g. VM state on an eret trap)."""
        return self.cpu.load(self.page.baddr + _offset(reg_name),
                             category="neve_host")

    def read_many(self, reg_names):
        return {name: self.read_deferred(name) for name in reg_names}

    def write_deferred(self, reg_name, value):
        """Host updates one deferred value (e.g. saving nested VM state
        into the page before re-entering the guest hypervisor)."""
        self.cpu.store(self.page.baddr + _offset(reg_name), value,
                       category="neve_host")

    # -- migration ----------------------------------------------------------

    def relocate(self, new_baddr):
        """Move the deferred access page to *new_baddr* (VM migration:
        the destination host allocated a fresh page).

        The host copies every slot, then reprograms the hardware
        ``VNCR_EL2`` BADDR — preserving the current Enable bit — so the
        guest hypervisor's next deferred access lands on the new page.
        Must run at EL2.
        """
        old_baddr = self.page.baddr
        for reg in deferred_registers():
            value = self.cpu.load(old_baddr + reg.vncr_offset,
                                  category="neve_host")
            self.cpu.store(new_baddr + reg.vncr_offset, value,
                           category="neve_host")
        self.page = DeferredAccessPage(self.memory, new_baddr)
        self.vncr = VncrEl2.make(new_baddr, enable=self.vncr.enabled)
        self.cpu.msr("VNCR_EL2", self.vncr.value)
        return old_baddr


def _offset(reg_name):
    from repro.core.vncr import deferred_offset
    return deferred_offset(reg_name)
