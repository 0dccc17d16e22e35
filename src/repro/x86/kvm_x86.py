"""KVM x86 and Turtles-style nested VMX.

The L0 handler mirrors KVM x86's exit path; nested support follows
Turtles (Section 4: "we take an approach similar to Turtles"): exits from
L2 are reflected to L1 by syncing vmcs02 into vmcs12 and resuming L1 on
vmcs01; L1's VMRESUME traps and L0 rebuilds vmcs02 from vmcs12.  VMCS
shadowing (Section 8) lets L1 read and write most vmcs12 fields without
exiting, leaving the handful of unshadowable accesses plus the VMRESUME
itself — hence the 5 traps per nested hypercall in Table 7.
"""

from repro.metrics.counters import TrapCounter
from repro.metrics.cycles import X86_COSTS, CycleLedger
from repro.x86.apic import VirtualApic
from repro.x86.ept import NestedEpt
from repro.x86.vmcs import VmcsFields, VmcsSet
from repro.x86.vmx import X86Cpu, X86ExitReason

#: APIC ICR MSR (x2APIC), used for IPIs.
MSR_ICR = 0x830
#: A guest timer deadline MSR reprogrammed on the exit path.
MSR_TSC_DEADLINE = 0x6E0

DEVICE_VALUE = 0x5AFE_D00D


class X86VcpuState:
    def __init__(self, cpu, vcpu_id, nested=False):
        self.cpu = cpu
        self.vcpu_id = vcpu_id
        self.nested = nested
        self.nested_active = False  # L2 currently running on this vcpu
        self.vmcs = VmcsSet() if nested else None
        self.apic = VirtualApic(apic_id=vcpu_id)
        self.pending_virqs = []
        self.l2_pending_virqs = []
        self.vm = None

    def queue_virq(self, vector):
        self.pending_virqs.append(vector)


class X86Vm:
    def __init__(self, vcpus, nested=False, shadowing=True):
        self.vcpus = vcpus
        self.nested = nested
        self.shadowing = shadowing
        self.nested_ept = NestedEpt() if nested else None
        if nested:
            # L0 backs 16 MB of L1 memory; L1 maps 8 MB of it for L2.
            self.nested_ept.map_l1_memory(0x0, 0x8000_0000, 0x100_0000)
            self.nested_ept.map_l2_memory(0x0, 0x40_0000, 0x80_0000)
        for vcpu in vcpus:
            vcpu.vm = self


class X86Machine:
    """x86 counterpart of :class:`repro.hypervisor.kvm.Machine`."""

    def __init__(self, num_cpus=2, costs=None):
        self.costs = costs if costs is not None else X86_COSTS
        self.ledger = CycleLedger()
        self.traps = TrapCounter()
        self.observers = []  # attach_machine joins it; no x86 site reports
        self.cpus = [X86Cpu(costs=self.costs, ledger=self.ledger,
                            traps=self.traps, cpu_id=i)
                     for i in range(num_cpus)]
        self.kvm = KvmX86(self)
        self.device_values = {}
        self.last_kick_mark = 0

    def cpu(self, index=0):
        return self.cpus[index]

    def device_read(self, addr):
        return self.device_values.get(addr, DEVICE_VALUE)


class KvmX86:
    """The L0 x86 hypervisor."""

    def __init__(self, machine):
        self.machine = machine
        self.running = {}
        self.stats = {"reflects": 0, "vmresume_emulations": 0}
        for cpu in machine.cpus:
            cpu.exit_handler = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create_vm(self, num_vcpus=1, nested=False, shadowing=True):
        if num_vcpus > len(self.machine.cpus):
            raise ValueError("more vcpus than physical CPUs (pinned model)")
        vcpus = [X86VcpuState(self.machine.cpus[i], i, nested=nested)
                 for i in range(num_vcpus)]
        return X86Vm(vcpus, nested=nested, shadowing=shadowing)

    def run_vcpu(self, vcpu):
        cpu = vcpu.cpu
        self.running[cpu.cpu_id] = vcpu
        cpu.work(300, category="l0_kernel")
        cpu.vmptrld()
        cpu.vm_entry()

    def boot_nested(self, vcpu):
        """L1 launches L2: build vmcs12, VMRESUME, L0 merges and enters."""
        if not vcpu.nested:
            raise ValueError("vcpu has no nested support")
        self.run_vcpu(vcpu)
        cpu = vcpu.cpu
        # L1 builds vmcs12 (shadowed writes or exits per field).
        if vcpu.vm.shadowing:
            cpu.vmwrite(VmcsFields.GUEST_STATE + VmcsFields.CONTROL,
                        category="l1_vmcs")
        else:
            for _ in range(8):  # batched non-shadowed setup writes
                cpu.vm_exit(X86ExitReason.VMWRITE, {})
        cpu.vm_exit(X86ExitReason.VMRESUME, {})
        if not vcpu.nested_active:
            raise RuntimeError("nested launch failed")

    # ------------------------------------------------------------------
    # Exit dispatch
    # ------------------------------------------------------------------

    def handle_exit(self, cpu, reason, payload):
        vcpu = self.running.get(cpu.cpu_id)
        if vcpu is None:
            raise RuntimeError("VM exit with no vcpu running")
        cpu.vmread(5, category="l0_exit_info")  # exit reason/qualification
        cpu.work(190, category="l0_kernel")  # kvm exit dispatch
        if vcpu.nested_active and reason is not X86ExitReason.VMRESUME:
            if reason is X86ExitReason.EPT_VIOLATION:
                kind = vcpu.vm.nested_ept.classify_violation(
                    payload.get("addr", 0))
                if kind == "shadow":
                    # A miss in the collapsed ept02: L0's business alone
                    # (multi-dimensional paging, as in ARM's shadow
                    # stage-2 path) — no reflection to L1.
                    cpu.work(850, category="l0_mmu")  # two-table walk
                    vcpu.vm.nested_ept.fix_shadow(payload.get("addr", 0))
                    cpu.vm_entry()
                    return None
                vcpu.vm.nested_ept.violations_reflected += 1
            return self._reflect_to_l1(cpu, vcpu, reason, payload)
        handler = {
            X86ExitReason.VMCALL: self._handle_vmcall,
            X86ExitReason.EPT_VIOLATION: self._handle_mmio,
            X86ExitReason.IO_INSTRUCTION: self._handle_mmio,
            X86ExitReason.MSR_WRITE: self._handle_msr_write,
            X86ExitReason.MSR_READ: self._handle_msr_read,
            X86ExitReason.EXTERNAL_INTERRUPT: self._handle_external,
            X86ExitReason.VMRESUME: self._emulate_vmresume,
            X86ExitReason.VMREAD: self._emulate_vmcs_access,
            X86ExitReason.VMWRITE: self._emulate_vmcs_access,
            X86ExitReason.HLT: self._handle_hlt,
        }.get(reason)
        if handler is None:
            raise RuntimeError("unhandled exit reason %r" % reason)
        return handler(cpu, vcpu, payload)

    # ------------------------------------------------------------------
    # Plain VM handlers
    # ------------------------------------------------------------------

    def _handle_vmcall(self, cpu, vcpu, payload):
        cpu.work(70, category="l0_kernel")
        cpu.vm_entry()
        return 0

    def _handle_mmio(self, cpu, vcpu, payload):
        cpu.work(140, category="l0_kernel")
        cpu.charge(cpu.costs.userspace_roundtrip, "l0_userspace")
        cpu.work(300, category="l0_userspace")
        cpu.vm_entry()
        if payload.get("is_write"):
            self.machine.device_values[payload["addr"]] = payload["value"]
            return None
        return self.machine.device_read(payload.get("addr", 0))

    def _handle_msr_write(self, cpu, vcpu, payload):
        if payload.get("msr") == MSR_ICR:
            self._route_ipi(cpu, vcpu, payload.get("value", 0))
        else:
            cpu.work(180, category="l0_kernel")
        cpu.vm_entry()
        return None

    def _handle_msr_read(self, cpu, vcpu, payload):
        cpu.work(180, category="l0_kernel")
        cpu.vm_entry()
        return 0

    def _route_ipi(self, cpu, vcpu, value):
        cpu.work(340, category="l0_apic")
        self.machine.last_kick_mark = self.machine.ledger.total
        target_id = value & 0xFF
        vector = (value >> 8) & 0xFF
        vm = vcpu.vm
        if target_id < len(vm.vcpus):
            target = vm.vcpus[target_id]
            target.queue_virq(vector)
            target.apic.post_interrupt(vector)

    def _handle_external(self, cpu, vcpu, payload):
        """A physical interrupt while the guest ran: acknowledge and
        inject anything pending (APICv posted-interrupt-ish path)."""
        cpu.work(280, category="l0_irq")
        if vcpu.pending_virqs:
            vcpu.pending_virqs.pop(0)
            cpu.vmwrite(2, category="l0_irq")  # interruption-info fields
            cpu.work(160, category="l0_irq")
        cpu.vm_entry()
        return None

    def _handle_hlt(self, cpu, vcpu, payload):
        cpu.work(420, category="l0_kernel")
        cpu.vm_entry()
        return None

    # ------------------------------------------------------------------
    # Nested VMX
    # ------------------------------------------------------------------

    def _reflect_to_l1(self, cpu, vcpu, reason, payload):
        """Exit from L2: sync vmcs02 -> vmcs12, resume L1 on vmcs01, and
        run the L1 hypervisor's exit handler."""
        self.stats["reflects"] += 1
        cpu.work(1500, category="l0_nested")  # nested exit routing/checks
        cpu.vmread(VmcsFields.SYNC_ON_EXIT, category="l0_nested")
        cpu.memcpy_fields(VmcsFields.SYNC_ON_EXIT, category="l0_nested")
        cpu.vmptrld(category="l0_nested")  # back to vmcs01
        cpu.vmwrite(10, category="l0_nested")  # inject exit into L1
        vcpu.nested_active = False
        cpu.vm_entry()
        with self._guest_call(cpu):
            result = self._l1_handle_exit(cpu, vcpu, reason, payload)
        return result

    class _guest_call:
        """Run L1 code synchronously from within an exit handler."""

        def __init__(self, cpu):
            self.cpu = cpu

        def __enter__(self):
            self._saved = (self.cpu.in_root, self.cpu._handling_exit)
            self.cpu.in_root = False
            self.cpu._handling_exit = False
            return self.cpu

        def __exit__(self, exc_type, exc, tb):
            self.cpu.in_root, self.cpu._handling_exit = self._saved
            return False

    def _l1_handle_exit(self, cpu, vcpu, reason, payload):
        """The L1 (guest) KVM's exit handler, running in non-root mode."""
        shadowing = vcpu.vm.shadowing
        self._l1_vmcs_reads(cpu, vcpu, VmcsFields.L1_READS_PER_EXIT)
        cpu.work(6200, category="l1_kernel")  # kvm_handle_exit path
        if shadowing:
            # A few fields are unshadowable: each access exits.
            for _ in range(VmcsFields.UNSHADOWED_ACCESSES_PER_EXIT):
                cpu.vm_exit(X86ExitReason.VMREAD, {})

        result = None
        if reason is X86ExitReason.VMCALL:
            cpu.work(200, category="l1_kernel")
            cpu.wrmsr(MSR_TSC_DEADLINE, 1)  # rearm timer: exits to L0
            result = 0
        elif reason in (X86ExitReason.EPT_VIOLATION,
                        X86ExitReason.IO_INSTRUCTION):
            cpu.charge(cpu.costs.userspace_roundtrip, "l1_userspace")
            cpu.work(380, category="l1_userspace")
            cpu.wrmsr(MSR_TSC_DEADLINE, 1)
            result = (None if payload.get("is_write")
                      else self.machine.device_read(payload.get("addr", 0)))
        elif reason is X86ExitReason.MSR_WRITE:
            # L2 sent an IPI: emulate in L1's APIC, then kick the target
            # L1 vcpu — that ICR write exits to L0.
            cpu.work(360, category="l1_apic")
            target = payload.get("value", 0) & 0xFF
            vcpu.vm.vcpus[target % len(vcpu.vm.vcpus)] \
                .l2_pending_virqs.append((payload.get("value", 0) >> 8)
                                         & 0xFF)
            cpu.wrmsr(MSR_ICR, payload.get("value", 0))
        elif reason is X86ExitReason.EXTERNAL_INTERRUPT:
            cpu.work(300, category="l1_irq")
            if vcpu.l2_pending_virqs:
                vcpu.l2_pending_virqs.pop(0)
                self._l1_vmcs_writes(cpu, vcpu, 2)  # inject into vmcs12
        else:
            cpu.work(240, category="l1_kernel")

        self._l1_vmcs_writes(cpu, vcpu, VmcsFields.L1_WRITES_PER_EXIT)
        cpu.vm_exit(X86ExitReason.VMRESUME, {})
        return result

    def _l1_vmcs_reads(self, cpu, vcpu, count):
        if vcpu.vm.shadowing:
            cpu.vmread(count, category="l1_vmcs")
        else:
            for _ in range(count):
                cpu.vm_exit(X86ExitReason.VMREAD, {})

    def _l1_vmcs_writes(self, cpu, vcpu, count):
        if vcpu.vm.shadowing:
            cpu.vmwrite(count, category="l1_vmcs")
        else:
            for _ in range(count):
                cpu.vm_exit(X86ExitReason.VMWRITE, {})

    def _emulate_vmcs_access(self, cpu, vcpu, payload):
        """Non-shadowed VMREAD/VMWRITE from L1: emulate one field."""
        cpu.work(420, category="l0_nested")
        cpu.memcpy_fields(1, category="l0_nested")
        cpu.vm_entry()
        return 0

    def _emulate_vmresume(self, cpu, vcpu, payload):
        """L1 executed VMRESUME: build vmcs02 from vmcs12 and enter L2 —
        the dominant cost of nested VMX (Turtles; Section 8)."""
        self.stats["vmresume_emulations"] += 1
        cpu.work(5200, category="l0_nested")  # entry checks/consistency
        cpu.memcpy_fields(VmcsFields.MERGE_ON_ENTRY, category="l0_nested")
        cpu.vmwrite(VmcsFields.MERGE_ON_ENTRY, category="l0_nested")
        cpu.vmptrld(category="l0_nested")  # switch to vmcs02
        vcpu.nested_active = True
        cpu.vm_entry()
        return None
