"""Regression: the verdict cache must track NEVE degrade/re-promote.

The dispatch fast path caches per-access verdicts NEVE-blind at
virtual EL2 (the cache key deliberately omits ``VNCR_EL2.Enable`` so a
steady-state guest hypervisor never re-reads it).  One rule keeps the
cache valid: an EL2 write of ``VNCR_EL2`` empties it.  A degrade
clears the enable bit with such a write, a re-promotion leaves the bit
clear, and the next virtual-EL2 entry sets it with another.  The tests
drive the full 16 -> 126 -> 16 lifecycle with caching enabled and
demand trap counts identical to an uncached reference machine.
"""

import pytest

from repro.arch.cpu import Cpu
from repro.faults.plan import FaultPlan
from repro.faults.points import FaultInjector
from repro.faults.recovery import MachineIntegrityMonitor, RecoveryManager
from repro.harness.configs import ALL_CONFIGS, arm_arch_for
from repro.hypervisor.kvm import Machine
from repro.metrics.cycles import ARM_COSTS


def _booted(fastpath):
    """A booted neve-nested machine, its vcpu and a recovery manager
    with no planned faults, with the fast path forced on or off."""
    config = ALL_CONFIGS["neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS,
                      fastpath=fastpath)
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    vcpu = vm.vcpus[0]
    machine.kvm.boot_nested(vcpu)
    monitor = MachineIntegrityMonitor(machine.memory).install().track(
        vcpu.vcpu_id, vcpu.neve.page.baddr)
    recovery = RecoveryManager(machine, vcpu, monitor,
                               FaultInjector(FaultPlan(0, [])))
    return machine, vcpu, recovery


def _lifecycle_trap_counts(fastpath):
    """Traps of one L2 hypercall in each lifecycle state, plus the
    final ledger, on a machine with the fast path forced on or off."""
    machine, vcpu, recovery = _booted(fastpath)

    def probe():
        before = machine.traps.total
        vcpu.cpu.hvc(0)
        return machine.traps.total - before

    vcpu.cpu.hvc(0)  # warm up (and, with fastpath, warm the cache)
    stages = [probe()]
    recovery.degrade(vcpu.cpu, "test: forced degrade")
    stages.append(probe())
    machine.ledger.charge(recovery.cooling_off_required(), "idle")
    assert recovery.maybe_repromote(vcpu.cpu)
    stages.append(probe())
    return stages, machine


def _assert_lifecycle_parity():
    cached_stages, cached_machine = _lifecycle_trap_counts(fastpath=True)
    reference_stages, reference_machine = _lifecycle_trap_counts(
        fastpath=False)
    assert cached_stages == reference_stages
    assert cached_machine.ledger == reference_machine.ledger
    assert (cached_machine.traps.by_reason
            == reference_machine.traps.by_reason)
    # The fast machine really ran on the table.
    assert cached_machine.dispatch is not None
    assert cached_machine.dispatch.resolutions > 0


def test_degradation_lifecycle_trap_parity():
    _assert_lifecycle_parity()


def test_lifecycle_parity_catches_a_missing_invalidation(monkeypatch):
    """Seeded violation: the cache is never emptied, as if the
    ``VNCR_EL2`` write in ``Cpu._fast_sysreg_access`` (the method's
    only caller) no longer invalidated.  The stale NEVE verdicts after
    the degrade send the guest hypervisor's run hypercall back to it
    without end, so the parity check fails by recursing."""
    monkeypatch.setattr(Cpu, "invalidate_verdict_cache", lambda self: None)
    with pytest.raises((AssertionError, RecursionError)):
        _assert_lifecycle_parity()


def test_lifecycle_hits_the_paper_exit_counts():
    """The emergent 16 / 126 / 16 sequence (Table 7 exit multiplication
    vs the NEVE count) must survive verdict caching."""
    stages, _machine = _lifecycle_trap_counts(fastpath=True)
    assert stages == [16, 126, 16]


def test_vncr_write_at_el2_is_the_invalidation_point():
    """An EL2 write of ``VNCR_EL2`` empties the cache, and every
    lifecycle step that moves the hardware enable bit makes one, so a
    cached NEVE state always matches the hardware's."""
    machine, vcpu, recovery = _booted(fastpath=True)
    cpu = vcpu.cpu

    def assert_cache_matches_hardware():
        assert cpu._neve_verdict_state in (None, cpu.neve_enabled)

    cpu.hvc(0)
    cpu.mrs("SCTLR_EL1")  # the L2 guest's own register: one cached verdict
    assert cpu._verdicts
    with cpu.host_mode():
        cpu.msr("VNCR_EL2", vcpu.neve.vncr.value)
    assert not cpu._verdicts
    assert cpu._neve_verdict_state is None

    cpu.hvc(0)
    assert_cache_matches_hardware()
    recovery.degrade(cpu, "test: forced degrade")
    assert not cpu._verdicts  # the runner's disable wrote VNCR_EL2
    cpu.hvc(0)  # repopulate with trap-era verdicts
    assert cpu._verdicts
    assert_cache_matches_hardware()
    machine.ledger.charge(recovery.cooling_off_required(), "idle")
    assert recovery.maybe_repromote(cpu)
    assert not cpu.neve_enabled  # re-arming writes no VNCR_EL2 ...
    assert_cache_matches_hardware()  # ... so the trap-era verdicts hold
    cpu.hvc(0)  # the re-entry enables NEVE with a VNCR_EL2 write
    assert_cache_matches_hardware()
