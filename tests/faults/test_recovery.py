"""The integrity monitor and RecoveryManager: audit, resync, degrade.

Includes the resync idempotence property: resyncing twice leaves the
page byte-identical to resyncing once, and the second pass performs no
additional slot repairs.
"""

import pytest

from repro.arch.features import ArchConfig, ArchVersion, GicVersion
from repro.core.vncr import deferred_offset, deferred_registers
from repro.faults.plan import FaultPlan
from repro.faults.points import FaultInjector
from repro.faults.recovery import MachineIntegrityMonitor, RecoveryManager
from repro.hypervisor.kvm import Machine
from repro.metrics.counters import RecoveryEvent
from repro.metrics.cycles import ARM_COSTS


def _nested_machine():
    machine = Machine(arch=ArchConfig(version=ArchVersion.V8_4,
                                      gic=GicVersion.V3),
                      num_cpus=1, costs=ARM_COSTS)
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    vcpu = vm.vcpus[0]
    machine.kvm.boot_nested(vcpu)
    return machine, vcpu


def _monitor(machine, vcpu):
    """*vcpu*'s window in a freshly installed machine-wide monitor."""
    return MachineIntegrityMonitor(machine.memory).install().track(
        vcpu.vcpu_id, vcpu.neve.page.baddr)


def _manager(machine, vcpu):
    monitor = _monitor(machine, vcpu)
    injector = FaultInjector(FaultPlan(0, []))
    return monitor, RecoveryManager(machine, vcpu, monitor, injector)


def _page_words(machine, baddr):
    return [machine.memory.read_word(baddr + reg.vncr_offset)
            for reg in deferred_registers()]


# -- the integrity monitor's window -----------------------------------------


def test_tracked_writes_keep_audit_clean():
    machine, vcpu = _nested_machine()
    baddr = vcpu.neve.page.baddr
    monitor = _monitor(machine, vcpu)
    addr = baddr + deferred_offset("TPIDR_EL1")
    machine.memory.write_word(addr, 0xDEAD_BEEF)
    assert monitor.expected[deferred_offset("TPIDR_EL1")] == 0xDEAD_BEEF
    assert monitor.audit() == []


def test_raw_write_is_reported_by_audit():
    machine, vcpu = _nested_machine()
    baddr = vcpu.neve.page.baddr
    monitor = _monitor(machine, vcpu)
    offset = deferred_offset("PMSELR_EL0")
    before = machine.memory.read_word(baddr + offset)
    monitor.raw_write(baddr + offset, before ^ 0xFF)
    assert monitor.audit() == [(offset, before, before ^ 0xFF)]


def test_uninstall_restores_plain_writes():
    machine, vcpu = _nested_machine()
    baddr = vcpu.neve.page.baddr
    monitor = _monitor(machine, vcpu)
    monitor.uninstall()
    assert not monitor.installed
    offset = deferred_offset("PMSELR_EL0")
    old = monitor.expected[offset]
    machine.memory.write_word(baddr + offset, old ^ 0xF0)
    # Reference no longer follows writes after uninstall.
    assert monitor.expected[offset] == old


def test_double_install_rejected():
    machine, _vcpu = _nested_machine()
    monitor = MachineIntegrityMonitor(machine.memory).install()
    with pytest.raises(RuntimeError):
        monitor.install()


def test_rebase_moves_the_audit_window():
    machine, vcpu = _nested_machine()
    baddr = vcpu.neve.page.baddr
    monitor = _monitor(machine, vcpu)
    new_baddr = machine.kvm.alloc_vncr_page()
    for reg in deferred_registers():
        machine.memory.write_word(
            new_baddr + reg.vncr_offset,
            machine.memory.read_word(baddr + reg.vncr_offset))
    monitor.rebase(new_baddr)
    assert monitor.audit() == []
    offset = deferred_offset("PMUSERENR_EL0")
    monitor.raw_write(new_baddr + offset, monitor.expected[offset] ^ 0x2)
    assert [entry[0] for entry in monitor.audit()] == [offset]


# -- resync ------------------------------------------------------------------


def test_resync_repairs_noncritical_corruption():
    machine, vcpu = _nested_machine()
    monitor, recovery = _manager(machine, vcpu)
    baddr = vcpu.neve.page.baddr
    offset = deferred_offset("PMUSERENR_EL0")
    good = monitor.expected[offset]
    monitor.raw_write(baddr + offset, good ^ 0x4)
    before = machine.ledger.total
    recovery.resync(vcpu.cpu)
    assert monitor.audit() == []
    assert machine.memory.read_word(baddr + offset) == good
    assert machine.recoveries.count(RecoveryEvent.SLOT_REPAIR) == 1
    assert machine.recoveries.count(RecoveryEvent.VNCR_RESYNC) == 1
    assert machine.ledger.total > before  # recovery is charged


def test_resync_is_idempotent():
    """Property: resync twice == resync once (page bytes and repairs)."""
    machine, vcpu = _nested_machine()
    monitor, recovery = _manager(machine, vcpu)
    baddr = vcpu.neve.page.baddr
    offset = deferred_offset("PMSELR_EL0")
    monitor.raw_write(baddr + offset, monitor.expected[offset] ^ 0x8)
    recovery.resync(vcpu.cpu)
    once = _page_words(machine, baddr)
    repairs_once = machine.recoveries.count(RecoveryEvent.SLOT_REPAIR)
    recovery.resync(vcpu.cpu)
    assert _page_words(machine, baddr) == once
    assert machine.recoveries.count(RecoveryEvent.SLOT_REPAIR) \
        == repairs_once
    assert not recovery.degraded


def test_resync_on_clean_page_repairs_nothing():
    machine, vcpu = _nested_machine()
    monitor, recovery = _manager(machine, vcpu)
    recovery.resync(vcpu.cpu)
    assert machine.recoveries.count(RecoveryEvent.SLOT_REPAIR) == 0
    assert machine.recoveries.count(RecoveryEvent.VNCR_RESYNC) == 1


# -- degrade -----------------------------------------------------------------


def test_critical_slot_corruption_degrades():
    machine, vcpu = _nested_machine()
    monitor, recovery = _manager(machine, vcpu)
    baddr = vcpu.neve.page.baddr
    offset = deferred_offset("VNCR_EL2")
    monitor.raw_write(baddr + offset, monitor.expected[offset] ^ 0x10)
    recovery.resync(vcpu.cpu)
    assert recovery.degraded
    assert "VNCR_EL2" in recovery.degrade_reason
    assert vcpu.neve is None
    assert vcpu.vm.nested == "nv"
    assert not monitor.installed
    assert machine.recoveries.count(RecoveryEvent.NEVE_DEGRADE) == 1
    # No repair was attempted on the critical slot.
    assert machine.recoveries.count(RecoveryEvent.SLOT_REPAIR) == 0


def test_degrade_evacuates_page_state():
    machine, vcpu = _nested_machine()
    monitor, recovery = _manager(machine, vcpu)
    runner = vcpu.neve
    sctlr = runner.page.read_reg("SCTLR_EL1")
    vtcr = runner.page.read_reg("VTCR_EL2")
    recovery.degrade(vcpu.cpu, "test")
    assert vcpu.vel1_shadow.peek("SCTLR_EL1") == sctlr
    assert vcpu.vel2_ctx.peek("VTCR_EL2") == vtcr
    assert not vcpu.cpu.neve_enabled
    # A second degrade is a no-op.
    total = machine.recoveries.count(RecoveryEvent.NEVE_DEGRADE)
    recovery.degrade(vcpu.cpu, "again")
    assert machine.recoveries.count(RecoveryEvent.NEVE_DEGRADE) == total
    assert recovery.degrade_reason == "test"


def test_degraded_vcpu_runs_on():
    machine, vcpu = _nested_machine()
    _monitor, recovery = _manager(machine, vcpu)
    recovery.degrade(vcpu.cpu, "test")
    before = machine.traps.total
    vcpu.cpu.hvc(0)
    # The exit multiplication is back: trap-and-emulate territory.
    assert machine.traps.total - before > 60


def test_recovery_costs_derive_from_the_cost_model():
    from dataclasses import replace

    from repro.faults.recovery import derive_recovery_costs

    costs = derive_recovery_costs(ARM_COSTS)
    # Audit walks every 8-byte slot of the page.
    assert costs.audit == (4096 // 8) * ARM_COSTS.mem_load \
        + ARM_COSTS.dsb_isb
    # Replay = repair + journal lookup, so it is strictly costlier.
    assert costs.replay > costs.repair
    # Degrade and migration both pay the TLB maintenance price.
    assert costs.migration > ARM_COSTS.tlb_maintenance
    assert costs.degrade > ARM_COSTS.tlb_maintenance
    # The rekick is a userspace round trip plus wire delivery.
    assert costs.rekick == (ARM_COSTS.userspace_roundtrip
                            + ARM_COSTS.irq_delivery_wire
                            + 100 * ARM_COSTS.instr)
    # Scaling the memory costs scales the derived prices.
    doubled = derive_recovery_costs(
        replace(ARM_COSTS, mem_load=2 * ARM_COSTS.mem_load,
                mem_store=2 * ARM_COSTS.mem_store))
    assert doubled.audit > costs.audit
    assert doubled.migration > costs.migration


def test_recovery_manager_uses_derived_costs():
    from repro.faults.recovery import derive_recovery_costs

    machine, vcpu = _nested_machine()
    _monitor, recovery = _manager(machine, vcpu)
    assert recovery.costs == derive_recovery_costs(machine.costs)
    before = machine.ledger.by_category.get("recovery", 0)
    recovery.resync(vcpu.cpu)
    charged = machine.ledger.by_category.get("recovery", 0) - before
    assert charged >= recovery.costs.audit
