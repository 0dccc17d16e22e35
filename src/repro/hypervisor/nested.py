"""The guest hypervisor: KVM/ARM running deprivileged in virtual EL2.

This is the L1 hypervisor of Section 4.  Its code is the *same*
world-switch flow library the L0 host hypervisor uses
(:mod:`repro.hypervisor.world_switch`), but executed at virtual EL2, where
every system-register access follows the ARMv8.3 or NEVE rules.  A non-VHE
guest hypervisor additionally hops between its virtual-EL2 "hyp" part and
its virtual-EL1 kernel part on every exit, exactly like split-mode
KVM/ARM (Figure 1a) — each hop is an eret or hvc that traps to L0.

Entry points are called by the host hypervisor when it forwards an
exception to virtual EL2; the flow then runs as straight-line code whose
individual operations trap into the host as the architecture dictates.
"""

from repro.hypervisor import world_switch as ws
from repro.hypervisor.vcpu import VcpuStruct
from repro.metrics.counters import ExitReason
from repro.trace.spans import cpu_span

#: hvc immediate the kernel part uses to re-enter the hyp part (KVM's
#: __kvm_vcpu_run call through the hyp stub).
HVC_VCPU_RUN = 0x4B56  # 'KV'

#: SGI interrupt id the guest hypervisor uses to kick vcpus.
KICK_SGI = 1
#: SGI id guests use for IPIs between their own vcpus.
GUEST_IPI_SGI = 2


class GuestHypervisor:
    """One L1 guest hypervisor instance (all its virtual CPUs).

    ``vhe`` selects the compile mode of the flows; ``design`` selects the
    hypervisor architecture for the Section 6.5 ablation:

    * ``"kvm"`` — hosted KVM/ARM: full EL1 context switch per exit
      (and the vEL1 kernel hop when non-VHE);
    * ``"standalone"`` — a Xen-like standalone hypervisor: runs entirely
      in (virtual) EL2, touches VM EL1 state only when switching between
      VMs, but still programs trap controls and the vGIC on every exit.
    """

    def __init__(self, machine, vhe=False, design="kvm", gic_version=3,
                 dom0_io=False):
        if design not in ("kvm", "standalone"):
            raise ValueError("unknown design %r" % design)
        if gic_version not in (2, 3):
            raise ValueError("gic_version must be 2 or 3")
        self.machine = machine
        self.vhe = vhe
        self.design = design
        self.gic_version = gic_version
        # Xen-style I/O: device emulation lives in a separate Dom0 VM, so
        # every I/O request switches VM contexts twice (Section 6.5:
        # "even Xen must save and restore all the VM system registers
        # when it switches between VMs, which is a common operation").
        self.dom0_io = dom0_io
        self.dom0_ctx = {}
        self.vm_switches = 0

        # Per-vcpu-id guest state (the L1 hypervisor's own data structures,
        # indexed by the vcpu id shared across levels in the pinned setup).
        self.l2_ctx = {}  # saved L2 EL1 context (L1's copy)
        self.host_ctx = {}  # the L1 kernel's own EL1 context (non-VHE)
        self.l2_pending_virqs = {}  # vcpu_id -> [intid]
        self.l2_online = {}  # vcpu_id -> PSCI power state of the L2 vcpus
        self.exits_handled = 0
        self.userspace_exits = 0

    # ------------------------------------------------------------------
    # Structures
    # ------------------------------------------------------------------

    def _ctx(self, table, cpu, vcpu_id):
        if vcpu_id not in table:
            table[vcpu_id] = VcpuStruct(cpu)
        return table[vcpu_id]

    def pending_for(self, vcpu_id):
        return self.l2_pending_virqs.setdefault(vcpu_id, [])

    # ------------------------------------------------------------------
    # Launching the nested VM (first entry)
    # ------------------------------------------------------------------

    def launch_vm(self, cpu, vcpu):
        """First entry into the nested VM: activate the virtualization
        hardware (virtual, from this hypervisor's point of view) and eret.
        The eret traps to L0, which sees virtual HCR_EL2.VM set and world
        switches into the L2 guest."""
        with cpu_span(cpu, "l1.launch_vm", kind="l1",
                      vcpu=vcpu.vcpu_id, design=self.design):
            ops = ws.make_ops(cpu, self.vhe)
            l2_ctx = self._ctx(self.l2_ctx, cpu, vcpu.vcpu_id)
            ws.hyp_entry(cpu)
            ws.activate_traps(ops, self.vhe, vttbr=0x8000_0001)
            ws.timer_restore(ops, l2_ctx, self.vhe)
            self._vgic_restore(cpu, ops, l2_ctx, used_lrs=0)
            if self.design == "kvm":
                ws.restore_el1_state(ops, l2_ctx)
            ws.hyp_exit(cpu)
            ws.prepare_exception_return(ops, elr=0x2000, spsr=0x5)

    # ------------------------------------------------------------------
    # Main entry: an exception forwarded to virtual EL2
    # ------------------------------------------------------------------

    def handle_vm_exit(self, cpu, vcpu, reason, payload=None):
        """Full exit round trip: from the L2 exit forwarded by L0 until
        the eret that re-enters the nested VM.

        Returns the value the nested VM should observe (e.g. an MMIO read
        result), or None.
        """
        self.exits_handled += 1
        for observer in cpu.observers:
            observer.vel2_exit(cpu, reason)
        with cpu_span(cpu, "l1.handle_vm_exit", kind="l1", reason=reason,
                      vcpu=vcpu.vcpu_id, design=self.design):
            ops = ws.make_ops(cpu, self.vhe)
            l2_ctx = self._ctx(self.l2_ctx, cpu, vcpu.vcpu_id)
            host_ctx = self._ctx(self.host_ctx, cpu, vcpu.vcpu_id)
            is_abort = reason is ExitReason.MEM_ABORT

            # --- hyp entry: vectors, GPRs, syndrome -----------------------
            ws.hyp_entry(cpu)
            ws.read_exit_context(ops, is_abort=is_abort)

            # --- world switch: VM -> hypervisor/host ----------------------
            if self.design == "kvm":
                ws.save_el1_state(ops, l2_ctx)
            ws.timer_save(ops, l2_ctx, self.vhe)
            self._vgic_save(cpu, ops, l2_ctx, used_lrs=vcpu.l1_used_lrs)
            vcpu.l1_used_lrs = 0
            if self.design == "kvm" and not self.vhe:
                ws.restore_el1_state(ops, host_ctx)
            ws.deactivate_traps(ops, self.vhe)

            # --- handle the exit in the kernel part -----------------------
            if not self.vhe and self.design == "kvm":
                # Split mode: eret to the virtual-EL1 kernel (traps to L0,
                # which switches us to vEL1), handle there, then hvc back
                # in.
                ws.prepare_exception_return(ops, elr=0x1000, spsr=0x5)
                result = self._kernel_handle_exit(cpu, vcpu, reason,
                                                  payload)
                cpu.hvc(HVC_VCPU_RUN)
                ws.hyp_entry(cpu)
            else:
                result = self._kernel_handle_exit(cpu, vcpu, reason,
                                                  payload)

            # --- world switch: hypervisor/host -> VM ----------------------
            if self.design == "kvm" and not self.vhe:
                ws.save_el1_state(ops, host_ctx)
            ws.activate_traps(ops, self.vhe, vttbr=0x8000_0001)
            ws.timer_restore(ops, l2_ctx, self.vhe)
            self._vgic_flush(cpu, vcpu, l2_ctx)
            self._vgic_restore(cpu, ops, l2_ctx, used_lrs=vcpu.l1_used_lrs)
            if self.design == "kvm":
                ws.restore_el1_state(ops, l2_ctx)
            ws.hyp_exit(cpu)
            ws.prepare_exception_return(ops, elr=0x2000, spsr=0x5)
            # The eret trapped to L0, which has now world-switched into the
            # nested VM; this frame simply unwinds back to it.
            return result

    # ------------------------------------------------------------------
    # vGIC access, by interface flavour
    # ------------------------------------------------------------------

    def _vgic_save(self, cpu, ops, ctx, used_lrs):
        if self.gic_version == 2:
            from repro.hypervisor.kvm import GICV2_CPU_BASE
            ws.vgic_save_v2(cpu, ctx, used_lrs, GICV2_CPU_BASE)
        else:
            ws.vgic_save(ops, ctx, used_lrs)

    def _vgic_restore(self, cpu, ops, ctx, used_lrs):
        if self.gic_version == 2:
            from repro.hypervisor.kvm import GICV2_CPU_BASE
            ws.vgic_restore_v2(cpu, ctx, used_lrs, GICV2_CPU_BASE)
        else:
            ws.vgic_restore(ops, ctx, used_lrs)

    # ------------------------------------------------------------------
    # Kernel-part exit handling (runs at vEL1 for non-VHE, inline for VHE)
    # ------------------------------------------------------------------

    def _kernel_handle_exit(self, cpu, vcpu, reason, payload):
        with cpu_span(cpu, "l1.kernel_handle_exit", kind="l1",
                      reason=reason):
            cpu.work(260, category="l1_kernel")  # kvm handle_exit dispatch
            if reason is ExitReason.HVC:
                # kvm-unit-test hypercall: nothing to do, return to the VM.
                cpu.work(90, category="l1_kernel")
                return 0
            if reason is ExitReason.MEM_ABORT:
                return self._emulate_mmio(cpu, payload)
            if reason is ExitReason.GIC_TRAP:
                return self._emulate_sgi(cpu, vcpu, payload)
            if reason is ExitReason.IRQ:
                return self._kernel_handle_irq(cpu, vcpu)
            if reason is ExitReason.WFI:
                cpu.work(150, category="l1_kernel")
                return None
            if reason is ExitReason.SMC:
                return self._emulate_psci(cpu, vcpu, payload)
            cpu.work(120, category="l1_kernel")
            return None

    def _emulate_psci(self, cpu, vcpu, payload):
        """The nested VM made a PSCI call: the guest hypervisor's own
        PSCI emulation handles it (bringing L2 vcpus on/offline), and its
        kick of another L1 vcpu traps to L0 like any other SGI."""
        from repro.hypervisor import psci
        function = (payload or {}).get("function", 0)
        args = (payload or {}).get("args", ())
        cpu.work(280, category="l1_psci")
        if function == psci.PSCI_VERSION:
            return psci.REPORTED_VERSION
        if function == psci.PSCI_CPU_ON:
            target = args[0] if args else 0
            self.l2_online[target] = True
            cpu.msr("ICC_SGI1R_EL1", (KICK_SGI << 24) | target)
            return psci.PSCI_SUCCESS
        if function == psci.PSCI_CPU_OFF:
            self.l2_online[vcpu.vcpu_id] = False
            return psci.PSCI_SUCCESS
        if function == psci.PSCI_AFFINITY_INFO:
            target = args[0] if args else 0
            return (psci.AFFINITY_ON if self.l2_online.get(target, True)
                    else psci.AFFINITY_OFF)
        return psci.PSCI_NOT_SUPPORTED

    def _emulate_mmio(self, cpu, payload):
        """Forwarded stage-2 abort: the device lives in this hypervisor's
        userspace (QEMU) — or, for a Xen-like design, in Dom0, reached by
        a full VM-to-VM switch each way."""
        self.userspace_exits += 1
        addr = payload.get("addr", 0) if payload else 0
        if self.dom0_io:
            vcpu_id = 0  # the vcpu whose context is loaded
            self.switch_vm(cpu, self._ctx(self.l2_ctx, cpu, vcpu_id),
                           self._ctx(self.dom0_ctx, cpu, vcpu_id))
            cpu.work(420, category="l1_dom0")  # Dom0 backend handles I/O
            value = self.machine.device_read(addr)
            self.switch_vm(cpu, self._ctx(self.dom0_ctx, cpu, vcpu_id),
                           self._ctx(self.l2_ctx, cpu, vcpu_id))
            return value
        cpu.ledger.charge(cpu.costs.userspace_roundtrip, "l1_userspace")
        cpu.work(420, category="l1_userspace")  # device model dispatch
        return self.machine.device_read(addr)

    def switch_vm(self, cpu, from_ctx, to_ctx):
        """Switch between two of this hypervisor's VMs.

        This is the operation for which "even Xen must save and restore
        all the VM system registers" (Section 6.5) — so a standalone
        hypervisor that skips per-exit EL1 switching still generates the
        full Table 3 register traffic here, and still benefits from NEVE.
        """
        self.vm_switches += 1
        with cpu_span(cpu, "l1.switch_vm", kind="l1"):
            ops = ws.make_ops(cpu, self.vhe)
            ws.save_el1_state(ops, from_ctx)
            ws.timer_save(ops, from_ctx, self.vhe)
            self._vgic_save(cpu, ops, from_ctx, used_lrs=0)
            ws.activate_traps(ops, self.vhe, vttbr=0x8000_0002)
            ws.timer_restore(ops, to_ctx, self.vhe)
            self._vgic_restore(cpu, ops, to_ctx, used_lrs=0)
            ws.restore_el1_state(ops, to_ctx)

    def _emulate_sgi(self, cpu, vcpu, payload):
        """The nested VM sent an IPI: emulate the vGIC SGI.

        Mark the interrupt pending for the target L2 vcpu and kick the L1
        vcpu that runs it — that kick is itself an ICC_SGI1R write, which
        traps to L0 (the kernel part runs at vEL1).  The target may live
        on another physical CPU (the pinned SMP model): the pending table
        is per-vcpu-id, so the interrupt is delivered by the target's own
        next vgic flush, whenever its CPU next enters the nested VM —
        the cross-CPU path the SMP fault campaigns drive.
        """
        cpu.work(240, category="l1_vgic")
        target = payload.get("target", 0) if payload else 0
        self.pending_for(target).append(GUEST_IPI_SGI)
        cpu.msr("ICC_SGI1R_EL1", (KICK_SGI << 24) | target)
        return None

    def _kernel_handle_irq(self, cpu, vcpu):
        """An interrupt was forwarded while our VM ran: acknowledge it via
        our own virtual CPU interface (no trap), then let the vgic flush
        inject anything pending into the nested VM on re-entry."""
        intid = cpu.mrs("ICC_IAR1_EL1")
        cpu.work(180, category="l1_irq")
        cpu.msr("ICC_EOIR1_EL1", intid)
        return intid

    # ------------------------------------------------------------------
    # vGIC flush: pending L2 interrupts -> list registers
    # ------------------------------------------------------------------

    def _vgic_flush(self, cpu, vcpu, l2_ctx):
        """Stage pending virtual interrupts for the L2 vcpu into the list
        register image that ``vgic_restore`` will program.  The subsequent
        LR writes are hypervisor-control-interface accesses: they trap on
        ARMv8.3 and still trap (write to a cached copy) with NEVE —
        Table 5."""
        from repro.arch.gic import ListRegister, LrState

        pending = self.pending_for(vcpu.vcpu_id)
        index = vcpu.l1_used_lrs
        while pending and index < self.machine.gic.num_lrs:
            intid = pending.pop(0)
            lr = ListRegister(vintid=intid, state=LrState.PENDING,
                              priority=0xA0)
            cpu.work(60, category="l1_vgic")  # vgic_populate_lr
            l2_ctx.save("ICH_LR%d_EL2" % index, lr.encode())
            index += 1
        vcpu.l1_used_lrs = index
