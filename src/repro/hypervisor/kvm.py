"""The L0 host hypervisor (KVM/ARM) and the machine model.

L0 is modelled after the paper's host: split-mode (non-VHE) KVM/ARM on the
ARMv8.0-class GICv2 testbed, extended with the ARMv8.3 nested support of
Section 4 and the NEVE support of Section 6.4.  Every trap from a guest
costs L0 a full world switch to its host kernel and back — this is what
makes each of the guest hypervisor's multiplied exits expensive, and it is
calibrated (via the cost model) against the paper's single-level VM
numbers.

Control flow: guests "run" as Python code issued against a
:class:`repro.arch.cpu.Cpu`; anything that traps lands in
:meth:`KvmHypervisor.handle_trap`, which performs the switch, emulates or
forwards, and finally records which world the CPU resumes into
(:meth:`KvmHypervisor.resume_context`).
"""

from repro.arch.cpu import Cpu
from repro.arch.dispatch import DispatchTable
from repro.arch.exceptions import ExceptionClass, ExceptionLevel
from repro.arch.features import ArchConfig, ArchVersion, GicVersion
from repro.arch.gic import Gic, lr_name
from repro.arch.idregs import discover_from_arch
from repro.arch.registers import NeveBehavior, RegClass, lookup_register
from repro.arch.timer import EL1_TIMER_SAVE_LIST
from repro.core.neve import NeveRunner
from repro.core.redirection import redirect_target
from repro.hypervisor import world_switch as ws
from repro.hypervisor.nested import GuestHypervisor
from repro.hypervisor.psci import PsciEmulator
from repro.hypervisor.vcpu import VcpuMode, VcpuState, VcpuStruct
from repro.memory.pagetable import PageTable, Permission
from repro.memory.phys import PAGE_SIZE, MemoryRegion, PhysicalMemory
from repro.memory.shadow import ShadowStage2
from repro.metrics.counters import ExitReason, RecoveryCounter, TrapCounter
from repro.metrics.cycles import ARM_COSTS, CycleLedger
from repro.trace.spans import cpu_span

# Physical memory map of the simulated machine.
RAM_BASE = 0x8000_0000
RAM_SIZE = 0x4_0000_0000  # 16 GB
L0_VIRTIO_BASE = 0x0900_0000  # devices emulated by L0's userspace
L1_VIRTIO_BASE = 0x0A00_0000  # devices emulated by the guest hypervisor
VIRTIO_SIZE = 0x1_0000
GICV2_CPU_BASE = 0x0801_0000
VNCR_POOL_BASE = 0x7000_0000  # deferred access pages, one per vcpu

#: SGI interrupt id L0 uses to kick vcpus between physical CPUs.
HOST_KICK_SGI = 0

#: Hardware EL1 registers that carry virtual-EL2 execution state while a
#: guest hypervisor runs (redirect targets plus translation state).
VEL2_EXEC_PAIRS = (
    ("SCTLR_EL2", "SCTLR_EL1"),
    ("TTBR0_EL2", "TTBR0_EL1"),
    ("TCR_EL2", "TCR_EL1"),
    ("MAIR_EL2", "MAIR_EL1"),
    ("AMAIR_EL2", "AMAIR_EL1"),
    ("AFSR0_EL2", "AFSR0_EL1"),
    ("AFSR1_EL2", "AFSR1_EL1"),
    ("VBAR_EL2", "VBAR_EL1"),
    ("CONTEXTIDR_EL2", "CONTEXTIDR_EL1"),
    ("TTBR1_EL2", "TTBR1_EL1"),
    ("ESR_EL2", "ESR_EL1"),
    ("FAR_EL2", "FAR_EL1"),
    ("ELR_EL2", "ELR_EL1"),
    ("SPSR_EL2", "SPSR_EL1"),
)


class Vm:
    """One virtual machine at the host-hypervisor level."""

    def __init__(self, machine, vcpus, nested="none", guest_vhe=False):
        self.machine = machine
        self.vcpus = vcpus
        self.nested = nested  # "none" | "nv" | "neve"
        self.guest_vhe = guest_vhe
        self.vmid = machine.alloc_vmid()
        self.stage2 = PageTable(stage=2, fmt="el2", name="vm%d-s2" % self.vmid)
        self.stage2.map_range(0, RAM_BASE, 0x40_0000)  # boot mapping (4 MB)
        self.guest_hyp = None
        self.shadow_s2 = None
        for vcpu in vcpus:
            vcpu.vm = self

    @property
    def is_nested(self):
        return self.nested != "none"


class Machine:
    """CPUs + memory + GIC + the L0 hypervisor, with shared accounting."""

    def __init__(self, arch=None, num_cpus=2, costs=ARM_COSTS,
                 l0_gic_mmio=True, fastpath=True):
        self.arch = arch if arch is not None else ArchConfig(
            version=ArchVersion.V8_3, gic=GicVersion.V3)
        self.costs = costs
        # Trap-dispatch fast path: on by default; fastpath=False runs
        # the classification ladder (the parity tests' reference).
        self.dispatch = DispatchTable(self.arch) if fastpath else None
        self.ledger = CycleLedger()
        self.traps = TrapCounter()
        self.recoveries = RecoveryCounter()
        # The machine's observers (repro.trace.spans.Observer), one list
        # shared by every cpu below and by the fault injectors armed on
        # them; attach with the observer's attach_machine.
        self.observers = []

        self.memory = PhysicalMemory()
        self.memory.add_region(MemoryRegion("ram", RAM_BASE, RAM_SIZE))
        self.memory.add_region(MemoryRegion(
            "l0-virtio", L0_VIRTIO_BASE, VIRTIO_SIZE, is_mmio=True))
        self.memory.add_region(MemoryRegion(
            "l1-virtio", L1_VIRTIO_BASE, VIRTIO_SIZE, is_mmio=True))
        self.memory.add_region(MemoryRegion(
            "vncr-pool", VNCR_POOL_BASE, 0x10_0000))
        self.memory.add_region(MemoryRegion(
            "gich", GICV2_CPU_BASE, 0x2000, is_mmio=True))

        self.gic = Gic(version=int(self.arch.gic), num_lrs=4)
        self.cpus = []
        for cpu_id in range(num_cpus):
            cpu = Cpu(arch=self.arch, costs=costs, ledger=self.ledger,
                      traps=self.traps, memory=self.memory, cpu_id=cpu_id,
                      dispatch=self.dispatch)
            cpu.observers = self.observers
            self.gic.attach_cpu(cpu)
            self.cpus.append(cpu)

        self.kvm = KvmHypervisor(self, gic_mmio=l0_gic_mmio)
        self.device_values = {}
        self.last_kick_mark = 0
        self._next_vmid = 1

    def cpu(self, index=0):
        return self.cpus[index]

    def alloc_vmid(self):
        """The next VM id on this machine.  VM ids (and the VTTBR_EL2
        values L0 programs from them) are per machine, so a machine's
        run does not depend on how many VMs other machines created."""
        vmid = self._next_vmid
        self._next_vmid += 1
        return vmid

    def device_read(self, addr):
        """Backing device model for MMIO reads (both emulation levels)."""
        return self.device_values.get(addr, 0x5AFE_D00D)


class KvmHypervisor:
    """The L0 host hypervisor."""

    def __init__(self, machine, vhe=False, gic_mmio=True):
        self.machine = machine
        self.vhe = vhe
        self.gic_mmio = gic_mmio
        self.running = {}  # cpu_id -> vcpu
        self.host_ctx = {}  # cpu_id -> VcpuStruct (host kernel EL1 state)
        self._vncr_next = [VNCR_POOL_BASE]
        self.stats = {"forwards": 0, "vel2_sysreg": 0, "vel2_eret": 0,
                      "shadow_s2_faults": 0, "fp_switches": 0}
        # Optional callback for SError exits: the fault-recovery layer
        # (repro.faults.recovery) installs one to resync NEVE state.
        self.serror_policy = None
        self.psci = PsciEmulator(self)
        # L0's switch programs (world_switch.host_switch_program and
        # guest_switch_program), built on first use per direction and
        # stage-2 base from the register lists as they stand then.
        self._programs = {}
        for cpu in machine.cpus:
            cpu.trap_handler = self
            self.host_ctx[cpu.cpu_id] = VcpuStruct(cpu)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def create_vm(self, num_vcpus=1, nested="none", guest_vhe=False,
                  guest_gic=3):
        if nested not in ("none", "nv", "neve"):
            raise ValueError("nested must be 'none', 'nv' or 'neve'")
        # Discover hardware capabilities the way real software does: by
        # reading the ID registers, not an out-of-band config object.
        features = discover_from_arch(self.machine.arch)
        if nested == "neve" and not features.has_neve:
            raise ValueError("NEVE requested but ID_AA64MMFR2_EL1.NV "
                             "reports no FEAT_NV2 (%s)"
                             % self.machine.arch.version.name)
        if nested != "none" and not features.has_nv:
            raise ValueError("nested virtualization needs FEAT_NV "
                             "(ARMv8.3+)")
        if num_vcpus > len(self.machine.cpus):
            raise ValueError("more vcpus than physical CPUs (pinned model)")
        vcpus = []
        for index in range(num_vcpus):
            cpu = self.machine.cpus[index]
            vcpu = VcpuState(cpu, vcpu_id=index,
                             has_virtual_el2=(nested != "none"),
                             virtual_e2h=guest_vhe)
            vcpus.append(vcpu)
        vm = Vm(self.machine, vcpus, nested=nested, guest_vhe=guest_vhe)
        if vm.is_nested:
            vm.guest_hyp = GuestHypervisor(self.machine, vhe=guest_vhe,
                                           gic_version=guest_gic)
            guest_s2 = PageTable(stage=2, fmt="el2", name="l1-s2")
            guest_s2.map_range(0, 0, 0x40_0000)
            vm.shadow_s2 = ShadowStage2(guest_s2, vm.stage2)
            if nested == "neve":
                for vcpu in vcpus:
                    vcpu.neve = NeveRunner(vcpu.cpu, self.machine.memory,
                                           self.alloc_vncr_page())
                    vcpu.neve.init_page(vcpu.vel2_ctx.regs)
        return vm

    def alloc_vncr_page(self):
        """Allocate one deferred-access page from the VNCR pool (also
        used to give a migrated vcpu a fresh page on the destination)."""
        baddr = self._vncr_next[0]
        self._vncr_next[0] += PAGE_SIZE
        return baddr

    def rearm_neve(self, vcpu):
        """Re-promotion (the host half): hand a degraded vcpu a fresh
        deferred-access page and a new runner.  The recovery layer owns
        repopulating the slots from the banked contexts; the runner is
        enabled on the next virtual-EL2 entry like any other."""
        if vcpu.neve is not None:
            raise RuntimeError("vcpu %d already has a NEVE runner"
                               % vcpu.vcpu_id)
        vcpu.neve = NeveRunner(vcpu.cpu, self.machine.memory,
                               self.alloc_vncr_page())
        return vcpu.neve

    def run_vcpu(self, vcpu):
        """Initial entry into a vcpu from the host."""
        cpu = vcpu.cpu
        self.running[cpu.cpu_id] = vcpu
        if vcpu.has_virtual_el2 and vcpu.mode is VcpuMode.VEL2:
            self._load_vel2_exec_image(cpu, vcpu)
            if vcpu.neve is not None:
                vcpu.neve.enable()
        self._switch_to_guest(cpu, vcpu)
        self._apply_resume(cpu)
        self._note_depth(cpu, vcpu)

    def _note_depth(self, cpu, vcpu):
        """Telemetry: the nesting depth this cpu is now executing at
        (1 = a VM or its guest hypervisor, 2 = the nested VM)."""
        for observer in cpu.observers:
            observer.nesting(cpu, 2 if vcpu.mode is VcpuMode.NESTED else 1)

    def boot_nested(self, vcpu):
        """Boot the nested VM: the guest hypervisor launches its guest
        through the real activate/restore/eret path."""
        vm = vcpu.vm
        if not vm.is_nested:
            raise ValueError("vcpu's VM has no virtual EL2")
        self.run_vcpu(vcpu)
        vm.guest_hyp.launch_vm(vcpu.cpu, vcpu)
        if vcpu.mode is not VcpuMode.NESTED:
            raise RuntimeError("nested VM failed to launch")

    def _apply_resume(self, cpu):
        ctx = self.resume_context(cpu)
        if ctx is None:
            cpu.enter_host_context()
        else:
            cpu.enter_guest_context(ctx["el"], nv=ctx["nv"],
                                    virtual_e2h=ctx["virtual_e2h"])

    def resume_context(self, cpu):
        """The guest context the CPU resumes into after a trap."""
        vcpu = self.running.get(cpu.cpu_id)
        if vcpu is None:
            return None
        if vcpu.mode is VcpuMode.VEL2:
            return {"el": ExceptionLevel.EL1, "nv": True,
                    "virtual_e2h": vcpu.virtual_e2h}
        return {"el": ExceptionLevel.EL1, "nv": False, "virtual_e2h": False}

    # ------------------------------------------------------------------
    # Trap entry point
    # ------------------------------------------------------------------

    def handle_trap(self, cpu, syndrome):
        vcpu = self.running.get(cpu.cpu_id)
        if vcpu is None:
            raise RuntimeError("trap %s with no vcpu running on cpu%d"
                               % (syndrome.describe(), cpu.cpu_id))
        ws.hyp_entry(cpu)
        ops = ws.make_ops(cpu, self.vhe)
        ws.read_exit_context(
            ops, is_abort=(syndrome.ec is ExceptionClass.DABT_LOWER))
        try:
            if syndrome.ec is ExceptionClass.SERROR:
                return self._handle_serror(cpu, vcpu)
            if syndrome.ec is ExceptionClass.IRQ:
                return self._handle_irq(cpu, vcpu)
            if syndrome.ec is ExceptionClass.FP_ACCESS:
                return self._handle_fp_trap(cpu, vcpu)
            if syndrome.ec is ExceptionClass.SMC:
                return self._handle_smc(cpu, vcpu, syndrome)
            if vcpu.mode is VcpuMode.NESTED:
                return self._handle_nested_exit(cpu, vcpu, syndrome)
            if vcpu.mode is VcpuMode.VEL2:
                return self._handle_vel2_trap(cpu, vcpu, syndrome)
            return self._handle_vm_trap(cpu, vcpu, syndrome)
        finally:
            ws.hyp_exit(cpu)

    # ------------------------------------------------------------------
    # World switches (L0's own, always native at EL2)
    # ------------------------------------------------------------------

    def _switch_to_host(self, cpu, vcpu):
        self._switch(cpu, vcpu, "l0.switch_to_host",
                     self._program(ws.host_switch_program))

    def _switch_to_guest(self, cpu, vcpu):
        self._switch(cpu, vcpu, "l0.switch_to_guest",
                     self._program(ws.guest_switch_program,
                                   self._vttbr_for(vcpu)))
        cpu.fp_trap = True  # CPTR_EL2 re-armed: next FP use traps

    def _program(self, build, *args):
        key = (build,) + args
        try:
            return self._programs[key]
        except KeyError:
            program = self._programs[key] = build(self.vhe, self.gic_mmio,
                                                  *args)
            return program

    def _switch(self, cpu, vcpu, span, program):
        """Run one direction of the world switch between *vcpu* and the
        host kernel: compiled when the program compiles and no planned
        fault can fire inside it (``Cpu.switch_eligible``, checked
        once), each observer then taking the run's regions in one
        switch summary under the outer region *span*; else phase by
        phase inside the *span*."""
        structs = (vcpu.el1_ctx, self.host_ctx[cpu.cpu_id])
        switch = cpu.compiled_switch(program, self.vhe, structs)
        if switch is not None and cpu.switch_eligible(switch, vcpu):
            observers = cpu.observers
            if not observers:
                cpu.run_switch(switch, structs, vcpu)
                return
            start = cpu.ledger.total
            live = []
            cpu.run_switch(switch, structs, vcpu, live)
            regions = switch.summary(start, live)
            for observer in observers:
                observer.switch_summary(cpu, span, start, regions)
            return
        with cpu_span(cpu, span):
            ws.run_switch(ws.make_ops(cpu, self.vhe), program, structs, vcpu)

    def _vttbr_for(self, vcpu):
        vm = vcpu.vm
        if vcpu.mode is VcpuMode.NESTED:
            return (vm.vmid << 48) | 0x2  # shadow stage-2 base
        return (vm.vmid << 48) | 0x1

    # ------------------------------------------------------------------
    # Plain VM exits (also the guest hypervisor's vEL1 kernel part)
    # ------------------------------------------------------------------

    def _handle_vm_trap(self, cpu, vcpu, syndrome):
        self._switch_to_host(cpu, vcpu)
        ec = syndrome.ec
        if ec is ExceptionClass.SYSREG and \
                syndrome.register == "ICC_SGI1R_EL1":
            self._route_sgi(cpu, vcpu, syndrome.value or 0)
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.HVC:
            if vcpu.has_virtual_el2:
                # hvc from vEL1 is an exception *to virtual EL2* — the
                # kernel part calling into the hyp part (Figure 1a).
                self._transition_vel1_to_vel2(cpu, vcpu, syndrome)
                self._switch_to_guest(cpu, vcpu)
                return None
            cpu.work(150, category="l0_kernel")  # handle_hvc: no-op call
            self._switch_to_guest(cpu, vcpu)
            return 0
        if ec is ExceptionClass.DABT_LOWER:
            value = self._emulate_mmio_l0(cpu, syndrome)
            self._switch_to_guest(cpu, vcpu)
            return value
        if ec is ExceptionClass.WFI:
            return self._handle_wfi(cpu, vcpu)
        raise RuntimeError("unhandled VM trap: %s" % syndrome.describe())

    def _handle_wfi(self, cpu, vcpu):
        """The guest idles: block the vcpu until its virtual timer (or a
        pending virtual interrupt) would wake it, deliver the wakeup and
        resume.

        Virtual time is the cycle ledger, so "sleeping" means advancing
        the ledger to the timer deadline under the ``idle`` category: the
        guest consumed wall time but no instructions — which is what a
        WFI does.
        """
        cpu.work(420, category="l0_kernel")  # kvm_vcpu_block bookkeeping
        if not vcpu.pending_virqs:
            deadline = vcpu.el1_ctx.peek("CNTV_CVAL_EL0")
            ctl = vcpu.el1_ctx.peek("CNTV_CTL_EL0")
            now = self.machine.ledger.total
            if (ctl & 1) and deadline > now:
                # Program the host hrtimer and sleep until it fires.
                cpu.work(300, category="l0_timer")
                self.machine.ledger.charge(deadline - now, "idle")
            if ctl & 1:
                # The virtual timer has now expired: inject its PPI.
                from repro.arch.timer import VTIMER_PPI
                vcpu.queue_virq(VTIMER_PPI)
                cpu.work(240, category="l0_timer")
        self._switch_to_guest(cpu, vcpu)
        return None

    def _emulate_mmio_l0(self, cpu, syndrome):
        """A stage-2 abort on a device emulated by L0's userspace."""
        cpu.work(140, category="l0_kernel")  # io abort decode, kvm_run fill
        cpu.ledger.charge(cpu.costs.userspace_roundtrip, "l0_userspace")
        cpu.work(160, category="l0_userspace")  # QEMU device model
        if syndrome.is_write:
            self.machine.device_values[syndrome.fault_ipa] = syndrome.value
            return None
        return self.machine.device_read(syndrome.fault_ipa)

    def _route_sgi(self, cpu, vcpu, value):
        """Emulate an ICC_SGI1R write: mark the interrupt pending on the
        target vcpu and kick the physical CPU it runs on."""
        cpu.work(380, category="l0_vgic")
        # Timestamp of the physical kick, for IPI latency measurements:
        # the receiver starts from here while the sender's return path
        # continues in parallel on its own core.
        self.machine.last_kick_mark = self.machine.ledger.total
        target_id = value & 0xFFFF
        intid = (value >> 24) & 0xF
        vm = vcpu.vm
        if target_id >= len(vm.vcpus):
            return
        target = vm.vcpus[target_id]
        target.queue_virq(intid)
        self.machine.gic.send_sgi(target.cpu.cpu_id, HOST_KICK_SGI)

    # ------------------------------------------------------------------
    # Exits from the nested VM (L2)
    # ------------------------------------------------------------------

    def _handle_nested_exit(self, cpu, vcpu, syndrome):
        self._switch_to_host(cpu, vcpu)
        ec = syndrome.ec
        if ec is ExceptionClass.DABT_LOWER:
            region = self.machine.memory.region_at(syndrome.fault_ipa or 0)
            if region is None or not region.is_mmio:
                # A genuine shadow stage-2 miss: L0 fixes it and resumes
                # the nested VM without involving the guest hypervisor.
                self._fix_shadow_fault(cpu, vcpu, syndrome)
                self._switch_to_guest(cpu, vcpu)
                return None
            payload = {"addr": syndrome.fault_ipa,
                       "is_write": syndrome.is_write,
                       "value": syndrome.value}
            return self._forward_to_vel2(cpu, vcpu, ExitReason.MEM_ABORT,
                                         payload)
        if ec is ExceptionClass.HVC:
            return self._forward_to_vel2(cpu, vcpu, ExitReason.HVC,
                                         {"imm": syndrome.imm})
        if ec is ExceptionClass.SYSREG and \
                syndrome.register == "ICC_SGI1R_EL1":
            value = syndrome.value or 0
            payload = {"target": value & 0xFFFF,
                       "intid": (value >> 24) & 0xF}
            return self._forward_to_vel2(cpu, vcpu, ExitReason.GIC_TRAP,
                                         payload)
        if ec is ExceptionClass.WFI:
            return self._forward_to_vel2(cpu, vcpu, ExitReason.WFI, None)
        raise RuntimeError("unhandled nested exit: %s" % syndrome.describe())

    def _fix_shadow_fault(self, cpu, vcpu, syndrome):
        self.stats["shadow_s2_faults"] += 1
        cpu.work(900, category="l0_mmu")  # walk both tables, install entry
        vm = vcpu.vm
        if vm.shadow_s2 is not None and syndrome.fault_ipa is not None:
            vm.shadow_s2.guest_stage2.map_page(syndrome.fault_ipa,
                                               syndrome.fault_ipa,
                                               Permission.RWX)
            vm.stage2.map_page(syndrome.fault_ipa,
                               RAM_BASE + syndrome.fault_ipa,
                               Permission.RWX)
            vm.shadow_s2.handle_fault(syndrome.fault_ipa)

    def _forward_to_vel2(self, cpu, vcpu, reason, payload):
        """Emulate an exception from the nested VM to virtual EL2 and run
        the guest hypervisor (Sections 4 and 6.1)."""
        with cpu_span(cpu, "l0.forward_to_vel2", reason=reason):
            self.stats["forwards"] += 1
            cpu.work(7000, category="l0_nested")  # nested exit routing, vcpu bookkeeping
            cpu.ledger.charge(cpu.costs.tlb_maintenance, "l0_tlbi")  # re-tag stage-2
            # 1. The L2 EL1 context just saved from hardware becomes the
            #    virtual EL1 state the guest hypervisor will read — with NEVE
            #    it is copied into the deferred access page.
            self._save_loaded_el1_to_virtual(cpu, vcpu)
            # 2. GIC: hardware list registers held L2's interface; hand them
            #    to the guest hypervisor's view and load L1's own interface.
            self._sync_l2_vgic_to_shadow(cpu, vcpu)
            self._load_l1_vgic_image(cpu, vcpu)
            # 3. Load virtual-EL2 execution state and the exception context.
            self._load_vel2_exec_image(cpu, vcpu)
            self._set_vel2_exception_context(cpu, vcpu, reason, payload)
            if vcpu.neve is not None:
                self._sync_neve_status_regs(cpu, vcpu)
                vcpu.neve.enable()
            vcpu.mode = VcpuMode.VEL2
            self._note_depth(cpu, vcpu)
            self._switch_to_guest(cpu, vcpu)
            with cpu.guest_call(nv=True, virtual_e2h=vcpu.virtual_e2h):
                result = vcpu.vm.guest_hyp.handle_vm_exit(cpu, vcpu, reason,
                                                          payload)
            return result

    # ------------------------------------------------------------------
    # Traps from the guest hypervisor at virtual EL2
    # ------------------------------------------------------------------

    def _handle_vel2_trap(self, cpu, vcpu, syndrome):
        self._switch_to_host(cpu, vcpu)
        ec = syndrome.ec
        if ec is ExceptionClass.SYSREG and \
                syndrome.register == "ICC_SGI1R_EL1":
            self._route_sgi(cpu, vcpu, syndrome.value or 0)
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.SYSREG:
            result = self._emulate_vel2_sysreg(cpu, vcpu, syndrome)
            self._switch_to_guest(cpu, vcpu)
            return result
        if ec is ExceptionClass.ERET:
            self._emulate_vel2_eret(cpu, vcpu)
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.TLBI:
            self._emulate_vel2_tlbi(cpu, vcpu, syndrome)
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.AT:
            cpu.work(450, category="l0_nested")  # walk virtual tables
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.HVC:
            cpu.work(230, category="l0_kernel")
            self._switch_to_guest(cpu, vcpu)
            return 0
        if ec is ExceptionClass.WFI:
            cpu.work(420, category="l0_kernel")
            self._switch_to_guest(cpu, vcpu)
            return None
        if ec is ExceptionClass.DABT_LOWER:
            region = self.machine.memory.region_at(syndrome.fault_ipa or 0)
            if region is not None and region.name == "gich":
                value = self._emulate_vel2_gich(cpu, vcpu, syndrome)
            else:
                value = self._emulate_mmio_l0(cpu, syndrome)
            self._switch_to_guest(cpu, vcpu)
            return value
        raise RuntimeError("unhandled vEL2 trap: %s" % syndrome.describe())

    def _emulate_vel2_sysreg(self, cpu, vcpu, syndrome):
        with cpu_span(cpu, "l0.emulate_vel2_sysreg", register=syndrome.register, is_write=bool(syndrome.is_write)):
            self.stats["vel2_sysreg"] += 1
            cpu.work(160, category="l0_nested")  # decode, dispatch to handler
            reg = lookup_register(syndrome.register)
            if reg.el == 2:
                if reg.reg_class is RegClass.GIC_HYP:
                    target = vcpu.shadow_ich
                else:
                    target = vcpu.vel2_ctx
                if reg.reg_class is RegClass.TIMER_EL2:
                    cpu.work(130, category="l0_nested")  # (re)program hrtimer
            else:
                target = vcpu.vel1_shadow
                if reg.reg_class is RegClass.TIMER_GUEST:
                    # A trapped *_EL02 timer access: emulating the VM timer
                    # involves offset arithmetic and hrtimer reprogramming,
                    # which is why the VHE guest hypervisor's extra timer
                    # traps cost more than average (Section 7.1).
                    cpu.work(3800, category="l0_timer")
            if syndrome.is_write:
                target.save(reg.name, syndrome.value or 0)
                if vcpu.neve is not None and reg.vncr_offset is not None:
                    # Keep the cached copy fresh so guest reads hit memory.
                    vcpu.neve.write_cached_copy(reg.name, syndrome.value or 0)
                return None
            return target.load(reg.name)

    def _emulate_vel2_gich(self, cpu, vcpu, syndrome):
        """A GICv2 guest hypervisor touched its (virtual) memory-mapped
        GICH frame: the stage-2 abort lands here and is emulated against
        the same shadow interface state as the GICv3 system-register
        traps — "the programming interfaces for both GIC versions are
        almost identical" (Section 7)."""
        from repro.arch.gic import gich_offset_to_reg
        cpu.work(170, category="l0_vgic")  # MMIO decode + offset lookup
        offset = (syndrome.fault_ipa or 0) - GICV2_CPU_BASE
        try:
            name = gich_offset_to_reg(offset)
        except KeyError:
            return 0  # reads of unimplemented frame words are RAZ/WI
        if syndrome.is_write:
            vcpu.shadow_ich.save(name, syndrome.value or 0)
            if vcpu.neve is not None:
                vcpu.neve.write_cached_copy(name, syndrome.value or 0)
            return None
        return vcpu.shadow_ich.load(name)

    def _emulate_vel2_tlbi(self, cpu, vcpu, syndrome):
        """The guest hypervisor invalidated TLBs for its VM: mirror the
        invalidation onto the shadow stage-2 table (Section 4's coherence
        requirement — this is why TLBI must trap even under NEVE)."""
        detail = syndrome.detail or {}
        cpu.ledger.charge(cpu.costs.tlb_maintenance, "l0_tlbi")
        cpu.work(350, category="l0_mmu")
        shadow = vcpu.vm.shadow_s2
        if shadow is None:
            return
        address = detail.get("address")
        if detail.get("scope") == "ipas2e1" and address is not None:
            shadow.invalidate_l2_range(address, PAGE_SIZE)
        else:
            shadow.invalidate_all()

    def _emulate_vel2_eret(self, cpu, vcpu):
        with cpu_span(cpu, "l0.emulate_vel2_eret"):
            self.stats["vel2_eret"] += 1
            cpu.work(1100, category="l0_nested")
            hcr = self._read_vel2_reg(cpu, vcpu, "HCR_EL2")
            self._read_vel2_reg(cpu, vcpu, "ELR_EL2")
            self._read_vel2_reg(cpu, vcpu, "SPSR_EL2")
            if hcr & ws.HCR_VM:
                self._enter_nested_vm(cpu, vcpu)
            else:
                self._transition_vel2_to_vel1(cpu, vcpu)

    # ------------------------------------------------------------------
    # Virtual exception-level transitions
    # ------------------------------------------------------------------

    def _enter_nested_vm(self, cpu, vcpu):
        """eret with virtual HCR_EL2.VM set: run the L2 VM."""
        with cpu_span(cpu, "l0.enter_nested_vm"):
            cpu.work(7000, category="l0_nested")  # nested entry checks
            cpu.ledger.charge(cpu.costs.tlb_maintenance, "l0_tlbi")
            self._save_vel2_exec_image(cpu, vcpu)
            # Build the L2 hardware context from the virtual EL1 state —
            # "copies register values from the deferred access page to
            # physical EL1 registers to run the nested VM" (Section 6.1).
            for name in ws.full_el1_context() + EL1_TIMER_SAVE_LIST:
                vcpu.el1_ctx.save(name, self._vel1_read(cpu, vcpu, name))
            # GIC: save L1's own interface image, load what the guest
            # hypervisor programmed for L2.
            self._save_l1_vgic_image(cpu, vcpu)
            self._load_shadow_ich(cpu, vcpu)
            if vcpu.neve is not None:
                vcpu.neve.disable()
            vcpu.mode = VcpuMode.NESTED
            self._note_depth(cpu, vcpu)

    def _transition_vel2_to_vel1(self, cpu, vcpu):
        """eret without VM set: the split hypervisor returns to its
        kernel part at virtual EL1."""
        with cpu_span(cpu, "l0.transition_vel2_to_vel1"):
            cpu.work(2800, category="l0_nested")
            self._save_vel2_exec_image(cpu, vcpu)
            for name in ws.full_el1_context():
                vcpu.el1_ctx.save(name, self._vel1_read(cpu, vcpu, name))
            vcpu.mode = VcpuMode.VEL1
            self._note_depth(cpu, vcpu)

    def _transition_vel1_to_vel2(self, cpu, vcpu, syndrome):
        """hvc from the kernel part: exception into virtual EL2."""
        with cpu_span(cpu, "l0.transition_vel1_to_vel2"):
            cpu.work(2800, category="l0_nested")
            self._save_loaded_el1_to_virtual(cpu, vcpu)
            self._load_vel2_exec_image(cpu, vcpu)
            self._set_vel2_exception_context(cpu, vcpu, ExitReason.HVC,
                                             {"imm": syndrome.imm})
            if vcpu.neve is not None:
                self._sync_neve_status_regs(cpu, vcpu)
                vcpu.neve.enable()
            vcpu.mode = VcpuMode.VEL2
            self._note_depth(cpu, vcpu)

    # ------------------------------------------------------------------
    # Virtual state plumbing
    # ------------------------------------------------------------------

    def _vel1_read(self, cpu, vcpu, name):
        """Read one register of the virtual EL1 state (page under NEVE)."""
        if vcpu.neve is not None:
            return vcpu.neve.read_deferred(name)
        return vcpu.vel1_shadow.load(name)

    def _vel1_write(self, cpu, vcpu, name, value):
        if vcpu.neve is not None:
            vcpu.neve.write_deferred(name, value)
        else:
            vcpu.vel1_shadow.save(name, value)

    def _save_loaded_el1_to_virtual(self, cpu, vcpu):
        """The EL1 context saved in el1_ctx becomes virtual EL1 state."""
        for name in ws.full_el1_context():
            self._vel1_write(cpu, vcpu, name, vcpu.el1_ctx.load(name))

    def _read_vel2_reg(self, cpu, vcpu, name):
        """Read virtual EL2 state through whatever mechanism holds it."""
        reg = lookup_register(name)
        if vcpu.neve is not None:
            if reg.neve in (NeveBehavior.DEFER, NeveBehavior.CACHED_COPY):
                if reg.reg_class is RegClass.GIC_HYP:
                    return vcpu.shadow_ich.load(name)
                return vcpu.neve.read_deferred(name)
            target = redirect_target(name, vcpu.virtual_e2h)
            if target is not None:
                return vcpu.el1_ctx.load(target)
            return vcpu.vel2_ctx.load(name)
        if vcpu.virtual_e2h:
            # A VHE guest hypervisor's E2H-redirected state lives in the
            # hardware EL1 registers (now saved in el1_ctx).
            from repro.arch.cpu import _e2h_reverse
            counterpart = _e2h_reverse(name)
            if counterpart is not None:
                return vcpu.el1_ctx.load(counterpart)
        return vcpu.vel2_ctx.load(name)

    def _write_vel2_reg(self, cpu, vcpu, name, value):
        reg = lookup_register(name)
        if vcpu.neve is not None:
            if reg.neve in (NeveBehavior.DEFER, NeveBehavior.CACHED_COPY):
                if reg.reg_class is RegClass.GIC_HYP:
                    vcpu.shadow_ich.save(name, value)
                    return
                vcpu.neve.write_deferred(name, value)
                return
            target = redirect_target(name, vcpu.virtual_e2h)
            if target is not None:
                vcpu.el1_ctx.save(target, value)
                return
            vcpu.vel2_ctx.save(name, value)
            return
        if vcpu.virtual_e2h:
            from repro.arch.cpu import _e2h_reverse
            counterpart = _e2h_reverse(name)
            if counterpart is not None:
                vcpu.el1_ctx.save(counterpart, value)
                return
        vcpu.vel2_ctx.save(name, value)

    def _save_vel2_exec_image(self, cpu, vcpu):
        """Hardware EL1 held virtual-EL2 execution state; bank it."""
        for el2_name, el1_name in VEL2_EXEC_PAIRS:
            vcpu.vel2_ctx.save(el2_name, vcpu.el1_ctx.load(el1_name))

    def _load_vel2_exec_image(self, cpu, vcpu):
        """Load virtual-EL2 execution state into the (to-be-restored)
        hardware EL1 image — "the host hypervisor configures the EL1
        hardware registers with the guest hypervisor's state"."""
        for el2_name, el1_name in VEL2_EXEC_PAIRS:
            vcpu.el1_ctx.save(el1_name, vcpu.vel2_ctx.load(el2_name))

    def _set_vel2_exception_context(self, cpu, vcpu, reason, payload):
        esr_by_reason = {
            ExitReason.HVC: 0x16 << 26,
            ExitReason.MEM_ABORT: 0x24 << 26,
            ExitReason.GIC_TRAP: 0x18 << 26,
            ExitReason.IRQ: 0,
            ExitReason.WFI: 0x01 << 26,
        }
        esr = esr_by_reason.get(reason, 0)
        self._write_vel2_reg(cpu, vcpu, "ESR_EL2", esr)
        self._write_vel2_reg(cpu, vcpu, "ELR_EL2", 0x2000)
        self._write_vel2_reg(cpu, vcpu, "SPSR_EL2", 0x5)
        if reason is ExitReason.MEM_ABORT and payload:
            self._write_vel2_reg(cpu, vcpu, "FAR_EL2", payload["addr"])
            self._write_vel2_reg(cpu, vcpu, "HPFAR_EL2",
                                 payload["addr"] >> 8)

    # -- vGIC image juggling ----------------------------------------------

    def _sync_l2_vgic_to_shadow(self, cpu, vcpu):
        """Hardware LRs held L2's interface (already saved to el1_ctx by
        the world switch); publish them to the guest hypervisor's view."""
        for index in range(vcpu.used_lrs):
            name = lr_name(index)
            value = vcpu.el1_ctx.load(name)
            vcpu.shadow_ich.save(name, value)
            if vcpu.neve is not None:
                vcpu.neve.write_cached_copy(name, value)

    def _load_shadow_ich(self, cpu, vcpu):
        count = 0
        for index in range(self.machine.gic.num_lrs):
            name = lr_name(index)
            value = vcpu.shadow_ich.peek(name)
            if value:
                vcpu.el1_ctx.save(name, value)
                count += 1
            else:
                vcpu.el1_ctx.poke(name, 0)
        vcpu.used_lrs = count

    def _save_l1_vgic_image(self, cpu, vcpu):
        for index in range(vcpu.used_lrs):
            name = lr_name(index)
            vcpu.l1_vgic.save(name, vcpu.el1_ctx.load(name))

    def _load_l1_vgic_image(self, cpu, vcpu):
        count = 0
        for index in range(self.machine.gic.num_lrs):
            name = lr_name(index)
            value = vcpu.l1_vgic.peek(name)
            vcpu.el1_ctx.poke(name, value)
            if value:
                count += 1
        vcpu.used_lrs = count

    def _sync_neve_status_regs(self, cpu, vcpu):
        """Refresh computed GIC status and trap-on-write cached copies in
        the deferred page before running the guest hypervisor."""
        for name in ("ICH_ELRSR_EL2", "ICH_EISR_EL2", "ICH_MISR_EL2",
                     "ICH_VMCR_EL2", "ICH_HCR_EL2"):
            vcpu.neve.write_cached_copy(name, vcpu.shadow_ich.peek(name))

    # ------------------------------------------------------------------
    # Physical interrupts
    # ------------------------------------------------------------------

    def _handle_fp_trap(self, cpu, vcpu):
        """Lazy FP/SIMD switch (CPTR_EL2 trap).

        Handled entirely in the hyp part — no world switch to the host
        kernel — which is what makes lazy FP switching worthwhile: load
        the guest's 32 SIMD registers, disable the trap, resume.
        """
        self.stats["fp_switches"] += 1
        cpu.gpr_block(32, category="fp_switch")  # save host FP half
        cpu.gpr_block(32, category="fp_switch")  # load guest FP state
        cpu.work(60, category="fp_switch")
        cpu.fp_trap = False
        return None

    def _handle_smc(self, cpu, vcpu, syndrome):
        """PSCI call (SMC conduit).  For a nested VM the call belongs
        to the guest hypervisor's PSCI emulation and is forwarded."""
        self._switch_to_host(cpu, vcpu)
        detail = syndrome.detail or {}
        if vcpu.mode is VcpuMode.NESTED:
            return self._forward_to_vel2(cpu, vcpu, ExitReason.SMC,
                                         detail)
        result = self.psci.handle(cpu, vcpu, detail.get("function", 0),
                                  detail.get("args", ()))
        if vcpu.online:
            self._switch_to_guest(cpu, vcpu)
        else:
            self.running.pop(cpu.cpu_id, None)
        return result

    def _handle_serror(self, cpu, vcpu):
        """An asynchronous external abort (SError) taken from the guest.

        Linux/KVM treats guest SErrors as potentially survivable: the
        host inspects the syndrome, scrubs affected state and resumes.
        The fault-recovery layer hooks in via ``serror_policy`` to audit
        and resynchronize NEVE's deferred access page before re-entry.
        """
        self._switch_to_host(cpu, vcpu)
        cpu.work(600, category="l0_serror")  # RAS triage, syndrome decode
        if self.serror_policy is not None:
            self.serror_policy(cpu, vcpu)
        self._switch_to_guest(cpu, vcpu)
        return None

    def _handle_irq(self, cpu, vcpu):
        self._switch_to_host(cpu, vcpu)
        # Acknowledge at the physical GIC (MMIO on the GICv2 testbed).
        cpu.ledger.charge(2 * cpu.costs.vgic_mmio_access, "l0_irq")
        cpu.work(320, category="l0_irq")
        self.machine.gic.take_physical(cpu.cpu_id)
        if vcpu.mode is VcpuMode.NESTED and vcpu.pending_virqs:
            # The interrupt targets the guest hypervisor: forward an IRQ
            # exit to virtual EL2 (virtual HCR_EL2.IMO routes IRQs there).
            return self._forward_to_vel2(cpu, vcpu, ExitReason.IRQ, None)
        self._switch_to_guest(cpu, vcpu)
        return None
