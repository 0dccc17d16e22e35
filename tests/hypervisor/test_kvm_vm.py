"""L0 hypervisor tests with plain (non-nested) VMs."""

import pytest

from repro.arch.exceptions import ExceptionLevel
from repro.arch.features import ARMV8_3, ArchConfig, ArchVersion
from repro.hypervisor.kvm import L0_VIRTIO_BASE, Machine
from repro.hypervisor.vcpu import VcpuMode
from repro.metrics.counters import ExitReason


@pytest.fixture
def machine():
    return Machine(arch=ARMV8_3)


def started_vm(machine, num_vcpus=2):
    vm = machine.kvm.create_vm(num_vcpus=num_vcpus)
    for vcpu in vm.vcpus:
        machine.kvm.run_vcpu(vcpu)
    return vm


def test_create_vm_allocates_vcpus_and_stage2(machine):
    vm = machine.kvm.create_vm(num_vcpus=2)
    assert len(vm.vcpus) == 2
    assert vm.stage2.translate(0x0)  # boot mapping present
    assert not vm.is_nested


def test_vmids_are_unique(machine):
    a = machine.kvm.create_vm()
    b = machine.kvm.create_vm()
    assert a.vmid != b.vmid


def test_vmids_are_per_machine():
    """A VM's id, and the VTTBR_EL2 value L0 programs from it, must not
    depend on how many VMs earlier machines in the process created."""
    first = Machine(arch=ARMV8_3)
    first_vm = first.kvm.create_vm()
    first.kvm.create_vm()
    second = Machine(arch=ARMV8_3)
    second_vm = second.kvm.create_vm()
    assert first_vm.vmid == second_vm.vmid == 1
    first.kvm.run_vcpu(first_vm.vcpus[0])
    second.kvm.run_vcpu(second_vm.vcpus[0])
    assert (first.cpu(0).el2_regs.read("VTTBR_EL2")
            == second.cpu(0).el2_regs.read("VTTBR_EL2"))


def test_cannot_overcommit_pinned_vcpus(machine):
    with pytest.raises(ValueError):
        machine.kvm.create_vm(num_vcpus=5)


def test_run_vcpu_enters_guest_context(machine):
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    assert cpu.current_el is ExceptionLevel.EL1
    assert not cpu.nv_enabled


def test_hypercall_round_trip(machine):
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    result = cpu.hvc(0)
    assert result == 0
    assert machine.traps.count(ExitReason.HVC) == 1
    # back in guest context afterwards
    assert cpu.current_el is ExceptionLevel.EL1


def test_hypercall_costs_near_paper_anchor(machine):
    """Table 1: ARM VM hypercall is 2,729 cycles; calibration holds it
    within ~15%."""
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    cpu.hvc(0)  # warm
    before = machine.ledger.total
    cpu.hvc(0)
    cost = machine.ledger.total - before
    assert 2_300 <= cost <= 3_200, cost


def test_mmio_read_returns_device_value(machine):
    vm = started_vm(machine, 1)
    machine.device_values[L0_VIRTIO_BASE + 0x100] = 0x1234
    value = vm.vcpus[0].cpu.mmio_read(L0_VIRTIO_BASE + 0x100)
    assert value == 0x1234


def test_mmio_write_reaches_device(machine):
    vm = started_vm(machine, 1)
    vm.vcpus[0].cpu.mmio_write(L0_VIRTIO_BASE + 0x50, 0xAB)
    assert machine.device_values[L0_VIRTIO_BASE + 0x50] == 0xAB


def test_mmio_costs_more_than_hypercall(machine):
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    cpu.hvc(0)
    start = machine.ledger.total
    cpu.hvc(0)
    hypercall = machine.ledger.total - start
    start = machine.ledger.total
    cpu.mmio_read(L0_VIRTIO_BASE)
    mmio = machine.ledger.total - start
    assert mmio > hypercall  # userspace round trip added


def test_wfi_handled(machine):
    vm = started_vm(machine, 1)
    vm.vcpus[0].cpu.wfi()
    assert machine.traps.count(ExitReason.WFI) == 1


def test_sgi_routed_to_target_vcpu(machine):
    vm = started_vm(machine)
    sender, receiver = vm.vcpus
    sender.cpu.msr("ICC_SGI1R_EL1", (2 << 24) | 1)
    assert 2 in receiver.pending_virqs
    assert machine.gic.pending_physical[receiver.cpu.cpu_id]


def test_ipi_delivery_end_to_end(machine):
    vm = started_vm(machine)
    sender, receiver = vm.vcpus
    sender.cpu.msr("ICC_SGI1R_EL1", (2 << 24) | 1)
    receiver.cpu.deliver_interrupt()
    intid = receiver.cpu.mrs("ICC_IAR1_EL1")
    assert intid == 2
    receiver.cpu.msr("ICC_EOIR1_EL1", intid)
    assert machine.gic.used_lr_count(receiver.cpu) == 0


def test_guest_state_preserved_across_exits(machine):
    """The guest's EL1 register state must survive the host's world
    switches (save on exit, restore on entry)."""
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    cpu.msr("TTBR0_EL1", 0x4000_1000)
    cpu.hvc(0)
    cpu.mmio_read(L0_VIRTIO_BASE)
    assert cpu.mrs("TTBR0_EL1") == 0x4000_1000


def test_host_el1_state_isolated_from_guest(machine):
    """The host kernel context and guest context never bleed together."""
    vm = started_vm(machine, 1)
    cpu = vm.vcpus[0].cpu
    machine.kvm.host_ctx[cpu.cpu_id].poke("TPIDR_EL1", 0x1111)
    cpu.msr("TPIDR_EL1", 0x2222)
    cpu.hvc(0)
    assert cpu.mrs("TPIDR_EL1") == 0x2222
    assert machine.kvm.host_ctx[cpu.cpu_id].peek("TPIDR_EL1") == 0x1111


def test_nested_requires_v83():
    machine = Machine(arch=ArchConfig(version=ArchVersion.V8_1))
    with pytest.raises(ValueError):
        machine.kvm.create_vm(nested="nv")


def test_neve_requires_v84():
    machine = Machine(arch=ARMV8_3)
    with pytest.raises(ValueError):
        machine.kvm.create_vm(nested="neve")


def test_trap_without_running_vcpu_is_an_error(machine):
    cpu = machine.cpu(0)
    cpu.enter_guest_context(ExceptionLevel.EL1)
    with pytest.raises(RuntimeError):
        cpu.hvc(0)


def test_vcpu_mode_stays_vel1_for_plain_vm(machine):
    vm = started_vm(machine, 1)
    vm.vcpus[0].cpu.hvc(0)
    assert vm.vcpus[0].mode is VcpuMode.VEL1
