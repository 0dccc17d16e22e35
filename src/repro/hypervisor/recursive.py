"""Recursive virtualization (Section 6.2).

"NEVE supports multiple levels of nesting... The L0 host hypervisor can
create a VM with support for NEVE, which the guest hypervisor will use
when running the L2 guest hypervisor.  ...  On entry to the L2 VM's
virtual EL2, the L0 host hypervisor can emulate the behavior of NEVE by
using the hardware features directly.  This works by translating the VM
physical address written by the L1 guest hypervisor into a machine
physical address and using this address in the hardware VNCR_EL2."

This module demonstrates exactly that, three levels deep:

* Under **ARMv8.3**, every hypervisor instruction the L2 hypervisor
  executes traps to L0, which forwards it to the L1 guest hypervisor for
  emulation — and the L1 emulation path itself runs at virtual EL2, so
  *its* accesses trap to L0 in turn: exit multiplication squared.
* Under **NEVE at both levels**, L0 translates the L1-written BADDR
  through the L1 VM's stage-2 table, programs the *hardware* VNCR_EL2
  with the machine address, and the L2 hypervisor's VM-register traffic
  turns into plain memory accesses — landing in pages the L1 guest
  hypervisor can read directly, with no trap at either boundary.
"""

from dataclasses import dataclass, field

from repro.arch.cpu import Cpu
from repro.arch.exceptions import ExceptionClass, ExceptionLevel
from repro.arch.features import ARMV8_3, ARMV8_4
from repro.core.neve import NeveRunner
from repro.core.vncr import DeferredAccessPage, VncrEl2
from repro.hypervisor import world_switch as ws
from repro.hypervisor.vcpu import VcpuStruct
from repro.memory.pagetable import PageTable
from repro.memory.phys import PhysicalMemory
from repro.trace.spans import cpu_span

#: Where the L1 guest hypervisor believes it placed the L2 hypervisor's
#: deferred access page (an L1 intermediate physical address).
L2_PAGE_IPA = 0x4000_0000
#: Where that page really lives in machine memory.
L2_PAGE_PA = 0x9000_0000


@dataclass
class BoundaryStats:
    """Traps per virtualization boundary for one L2-hypervisor run."""

    l2hyp_traps: int = 0  # instructions of the L2 hypervisor that trapped
    l1_emulation_traps: int = 0  # traps the L1 emulation path took
    values_seen_by_l1: dict = field(default_factory=dict)

    @property
    def total(self):
        return self.l2hyp_traps + self.l1_emulation_traps


class L1EmulationPath:
    """The L1 guest hypervisor's handler for a forwarded L2-hyp trap.

    Runs at virtual EL2, so its own register accesses obey the nested
    rules: on ARMv8.3 its exception-context reads and virtual-state
    bookkeeping trap back to L0; with NEVE they are deferred.
    """

    def __init__(self, vhe=False):
        self.vhe = vhe
        self.l3_vel2_state = None  # VcpuStruct allocated lazily per CPU
        self.handled = 0

    def emulate(self, cpu, syndrome):
        """Emulate one trapped L2-hypervisor instruction."""
        if self.l3_vel2_state is None:
            self.l3_vel2_state = VcpuStruct(cpu)
        self.handled += 1
        with cpu_span(cpu, "l1.emulate", kind="l1",
                      register=syndrome.register,
                      is_write=bool(syndrome.is_write)):
            ops = ws.make_ops(cpu, self.vhe)
            ws.hyp_entry(cpu)
            # Read the (virtual) exception context — traps on v8.3, free
            # under NEVE thanks to redirection/deferral.
            ws.read_exit_context(ops)
            cpu.work(180, category="l1_nested")  # decode and dispatch
            result = None
            if syndrome.ec is ExceptionClass.SYSREG:
                if syndrome.is_write:
                    self.l3_vel2_state.save(syndrome.register,
                                            syndrome.value or 0)
                else:
                    result = self.l3_vel2_state.load(syndrome.register)
            ws.hyp_exit(cpu)
            return result


class RecursiveHost:
    """An L0 host hypervisor specialized for the three-level experiment.

    The L2 hypervisor "runs" directly against the CPU at EL1 with NV
    semantics (exactly like an L1 hypervisor would — recursion works
    because each level only provides the architecture to the next).  Its
    traps arrive here; L0 charges its world-switch cost and forwards the
    instruction to the L1 emulation path, run as guest code whose own
    accesses may trap right back into L0.
    """

    def __init__(self, neve=False, l1_vhe=False):
        self.arch = ARMV8_4 if neve else ARMV8_3
        self.neve = neve
        self.memory = PhysicalMemory()
        self.cpu = Cpu(arch=self.arch, memory=self.memory)
        self.cpu.trap_handler = self
        self.l1 = L1EmulationPath(vhe=l1_vhe)
        self.stats = BoundaryStats()
        self._forwarding = False
        self._fault_hook = None  # propagated to lazily-created runners

        # The L1 VM's stage-2 table, used to translate the BADDR the L1
        # wrote for the L2 hypervisor's page (Section 6.2's key step).
        self.l1_stage2 = PageTable(stage=2, name="l1-s2")
        self.l1_stage2.map_page(L2_PAGE_IPA, L2_PAGE_PA)

        # One NeveRunner per nesting level: ``l1_runner`` manages the
        # page L0 gave the L1 guest hypervisor; ``l2_runner`` manages
        # the translated page L0 programs on behalf of L1 for the L2
        # hypervisor (created once the L1 BADDR is known).
        self.l1_runner = None
        self.l2_runner = None
        self.l1_page = None  # L1's own deferred page (for its vEL2 state)
        if neve:
            # L0 gives the *L1* guest hypervisor NEVE as usual.
            self.l1_runner = NeveRunner(self.cpu, self.memory, 0x7000_0000)
            self.l1_page = self.l1_runner.page

    @property
    def runners(self):
        """Live runners, for sanitizer attachment."""
        return [r for r in (self.l1_runner, self.l2_runner)
                if r is not None]

    def arm_fault_hook(self, hook):
        """Thread a fault injector through the whole recursive stack:
        the CPU (so L1-level deferred traffic — the L1 runner's page —
        is reachable) and every per-level runner, including the
        lazily-created L2 runner.  This is how SMP campaigns inject
        into the L1 ``NeveRunner`` rather than only doing post-hoc L2
        page repair."""
        self._fault_hook = hook
        self.cpu.fault_hook = hook
        for runner in self.runners:
            runner.fault_hook = hook

    def disarm_fault_hook(self):
        self._fault_hook = None
        self.cpu.fault_hook = None
        for runner in self.runners:
            runner.fault_hook = None

    # ------------------------------------------------------------------
    # Setup: the Section 6.2 workflow
    # ------------------------------------------------------------------

    def l1_configures_l2_neve(self):
        """The L1 guest hypervisor programs (its virtual) VNCR_EL2 for
        the L2 hypervisor.  With NEVE enabled for L1, this write is
        itself deferred — VNCR_EL2 is a Table 3 VM register."""
        self._enter_l1()
        vncr = VncrEl2.make(L2_PAGE_IPA)
        before = self.cpu.traps.total
        self.cpu.msr("VNCR_EL2", vncr.value)
        took_trap = self.cpu.traps.total - before
        self.cpu.enter_host_context()
        return took_trap

    def l0_enters_l2_hypervisor(self):
        """On entry to the L2 VM's virtual EL2, L0 emulates NEVE "by
        using the hardware features directly": read what L1 wrote,
        translate the IPA, program the hardware VNCR_EL2."""
        if self.neve:
            l1_vncr = VncrEl2(self.l1_page.read_reg("VNCR_EL2"))
            machine_baddr = self.l1_stage2.translate(l1_vncr.baddr)
            if self.l2_runner is None \
                    or self.l2_runner.page.baddr != machine_baddr:
                self.l2_runner = NeveRunner(self.cpu, self.memory,
                                            machine_baddr)
                self.l2_runner.fault_hook = self._fault_hook
            self.l2_runner.enable()
        self.cpu.enter_guest_context(ExceptionLevel.EL1, nv=True,
                                     virtual_e2h=False)

    def _enter_l1(self):
        if self.neve:
            # L1 runs with its own NEVE page active.
            self.l1_runner.enable()
        self.cpu.enter_guest_context(ExceptionLevel.EL1, nv=True,
                                     virtual_e2h=False)

    # ------------------------------------------------------------------
    # Trap handling
    # ------------------------------------------------------------------

    def handle_trap(self, cpu, syndrome):
        for observer in cpu.observers:
            observer.boundary_trap(
                cpu, "l1_emulation" if self._forwarding else "l2hyp")
        if self._forwarding:
            # A trap taken by the L1 emulation path itself: L0 emulates
            # it against L1's virtual EL2 state (cheaply modelled).
            self.stats.l1_emulation_traps += 1
            with cpu_span(cpu, "l0.emulate_l1_trap", kind="l0",
                          register=syndrome.register):
                ws.hyp_entry(cpu)
                cpu.work(160, category="l0_nested")
                ws.hyp_exit(cpu)
                if (syndrome.ec is ExceptionClass.SYSREG
                        and not syndrome.is_write):
                    return 0
                return None
        # A trap from the L2 hypervisor: forward to L1 (Section 6.2:
        # "trap on hypervisor instructions to the L0 host hypervisor,
        # which can then forward it to the L1 guest hypervisor").
        self.stats.l2hyp_traps += 1
        with cpu_span(cpu, "l0.forward_to_l1", kind="l0",
                      register=syndrome.register):
            ws.hyp_entry(cpu)
            cpu.work(430, category="l0_nested")
            self._forwarding = True
            # While forwarding, L1 runs with ITS page, not L2's: L0 swaps
            # the hardware VNCR_EL2 between the per-level runners.  The
            # swaps happen here at EL2, before and after the guest call —
            # VNCR_EL2 is host-hypervisor state.
            swap = self.neve and self.l2_runner is not None
            try:
                if swap:
                    self.l2_runner.disable()
                    self.l1_runner.enable()
                with cpu.guest_call(nv=True, virtual_e2h=self.l1.vhe):
                    result = self.l1.emulate(cpu, syndrome)
            finally:
                if swap:
                    self.l1_runner.disable()
                    self.l2_runner.enable()
                self._forwarding = False
            ws.hyp_exit(cpu)
            return result

    # ------------------------------------------------------------------
    # The experiment
    # ------------------------------------------------------------------

    def run_l2_hypervisor_fragment(self):
        """Execute a representative L2-hypervisor world-switch fragment
        and report the traps at each boundary."""
        if self.neve:
            self.l1_configures_l2_neve()
            self.cpu.enter_host_context()
        self.l0_enters_l2_hypervisor()
        cpu = self.cpu
        before = self.stats.total
        # VM-register traffic of the L2 hypervisor (Table 3 accesses).
        for name, value in (("HCR_EL2", 0x80000001),
                            ("VTTBR_EL2", 0x3000),
                            ("VTCR_EL2", 0x1),
                            ("SCTLR_EL1", 0x30D0198),
                            ("TTBR0_EL1", 0x5000),
                            ("ELR_EL1", 0x8000),
                            ("SPSR_EL1", 0x5)):
            cpu.msr(name, value)
        for name in ("HCR_EL2", "SCTLR_EL1", "TTBR0_EL1"):
            cpu.mrs(name)
        # One trap-on-write control register: still traps under NEVE and
        # is forwarded to L1 — but L1's own handling is now trap-free.
        cpu.msr("CNTHCTL_EL2", 3)
        cpu.enter_host_context()
        self.stats.values_seen_by_l1 = self._l1_view()
        return self.stats

    def _l1_view(self):
        """What the L1 guest hypervisor observes of the L2 hypervisor's
        deferred state.  With NEVE it simply reads the page it handed
        out — "the L1 guest hypervisor ... can therefore directly access
        the content of the deferred access page" (Section 6.2)."""
        if not self.neve:
            state = self.l1.l3_vel2_state
            if state is None:
                return {}
            return {name: state.peek(name)
                    for name in ("HCR_EL2", "VTTBR_EL2", "SCTLR_EL1")}
        page = DeferredAccessPage(self.memory, L2_PAGE_PA)
        return {name: page.read_reg(name)
                for name in ("HCR_EL2", "VTTBR_EL2", "SCTLR_EL1")}


def compare_recursion(l1_vhe=False):
    """Run the three-level fragment under ARMv8.3 and NEVE; returns
    ``(v83_stats, neve_stats)``."""
    v83 = RecursiveHost(neve=False, l1_vhe=l1_vhe)
    neve = RecursiveHost(neve=True, l1_vhe=l1_vhe)
    return (v83.run_l2_hypervisor_fragment(),
            neve.run_l2_hypervisor_fragment())
