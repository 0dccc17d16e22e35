"""Regression: the verdict cache must track NEVE degrade/re-promote.

The dispatch fast path caches per-access verdicts NEVE-blind at
virtual EL2 (the cache key deliberately omits ``VNCR_EL2.Enable`` so a
steady-state guest hypervisor never re-reads it).  That makes explicit
invalidation on the degradation lifecycle load-bearing: a degrade must
drop cached defer/cached-copy verdicts (every vEL2 access traps
again), and a re-promotion must drop the cached trap verdicts.  The
test drives the full 16 -> 126 -> 16 lifecycle with caching enabled
and demands trap counts identical to an uncached reference machine.
"""

from repro.faults.plan import FaultPlan
from repro.faults.points import FaultInjector
from repro.faults.recovery import MachineIntegrityMonitor, RecoveryManager
from repro.harness.configs import ALL_CONFIGS, arm_arch_for
from repro.hypervisor.kvm import Machine
from repro.metrics.cycles import ARM_COSTS


def _lifecycle_trap_counts(fastpath):
    """Traps of one L2 hypercall in each lifecycle state, plus the
    final ledger, on a machine with the fast path forced on or off."""
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


def test_degradation_lifecycle_trap_parity():
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


def test_lifecycle_hits_the_paper_exit_counts():
    """The emergent 16 / 126 / 16 sequence (Table 7 exit multiplication
    vs the NEVE count) must survive verdict caching."""
    stages, _machine = _lifecycle_trap_counts(fastpath=True)
    assert stages == [16, 126, 16]


def test_degrade_and_repromote_invalidate_cache():
    config = ALL_CONFIGS["neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS,
                      fastpath=True)
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    vcpu = vm.vcpus[0]
    machine.kvm.boot_nested(vcpu)
    monitor = MachineIntegrityMonitor(machine.memory).install().track(
        vcpu.vcpu_id, vcpu.neve.page.baddr)
    recovery = RecoveryManager(machine, vcpu, monitor,
                               FaultInjector(FaultPlan(0, [])))
    vcpu.cpu.hvc(0)
    recovery.degrade(vcpu.cpu, "test: forced degrade")
    assert not vcpu.cpu._verdicts  # degrade dropped the cache
    vcpu.cpu.hvc(0)  # repopulate with trap-era verdicts
    assert vcpu.cpu._verdicts
    machine.ledger.charge(recovery.cooling_off_required(), "idle")
    assert recovery.maybe_repromote(vcpu.cpu)
    assert not vcpu.cpu._verdicts  # re-promotion dropped them again
