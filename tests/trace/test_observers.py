"""The observer gate: observers never charge and never perturb exports.

A machine's ``observers`` list carries the tracer and the metrics
facade.  Under no observer, either one, or both, a run must leave the
ledger (categories in charge order), the trap counts by reason and a
campaign's digest equal to the bare run's, and exporting what the
observers recorded must charge nothing.  Two seeded violations, an
observer that charges and one that changes machine state without
charging, must fail the gate."""

import pytest

from repro.faults.campaign import run_campaign
from repro.harness.configs import ALL_CONFIGS, arm_arch_for
from repro.hypervisor.kvm import Machine
from repro.metrics.instrument import MachineMetrics
from repro.trace.export import chrome_trace_json
from repro.trace.spans import Observer, Tracer

HYPERCALLS = 2
#: Two vCPUs; faults fire on both, and a vCPU degrades and re-promotes.
CAMPAIGN_SEED = 3

OBSERVERS = {
    "bare": (),
    "tracer": (Tracer,),
    "facade": (MachineMetrics,),
    "both": (Tracer, MachineMetrics),
}


def export(observer):
    """What *observer* recorded, exported."""
    if isinstance(observer, Tracer):
        return chrome_trace_json(observer)
    if isinstance(observer, MachineMetrics):
        return (observer.registry.prometheus_text()
                + observer.registry.json_snapshot())
    return ""


def hypercall_outcome(config, kinds):
    """Boot *config*'s nested VM with one observer of each of *kinds*
    attached, run hypercalls, then export every observer."""
    config = ALL_CONFIGS[config]
    machine = Machine(arch=arm_arch_for(config))
    observers = [kind().attach_machine(machine) for kind in kinds]
    vm = machine.kvm.create_vm(num_vcpus=1, nested=config.nested)
    machine.kvm.boot_nested(vm.vcpus[0])
    for _ in range(HYPERCALLS):
        vm.vcpus[0].cpu.hvc(0)
    mark = machine.ledger.total
    for observer in observers:
        export(observer)
    return {"ledger": list(machine.ledger.by_category.items()),
            "traps": dict(machine.traps.by_reason),
            "export charged": machine.ledger.total - mark}


def campaign_outcome(kinds):
    metrics = MachineMetrics() if MachineMetrics in kinds else None
    result = run_campaign(CAMPAIGN_SEED, cpus=2, trace=Tracer in kinds,
                          metrics=metrics)
    outcome = {"digest": result.digest}
    tracer = result.tracer
    if tracer is not None:
        assert tracer.assert_reconciled().exact
        fired = [event for event in tracer.instants()
                 if event.kind == "fault"]
        assert len(fired) == len([entry for entry in result.outcomes
                                  if entry["fired"]]) > 0
        mark = tracer.ledger.total
        export(tracer)
        if metrics is not None:
            export(metrics)
        outcome["export charged"] = tracer.ledger.total - mark
    return outcome


@pytest.fixture(scope="module")
def bare_campaign():
    return campaign_outcome(())


@pytest.mark.parametrize("config", ["arm-nested", "neve-nested"])
@pytest.mark.parametrize("kinds", OBSERVERS.values(), ids=OBSERVERS)
def test_observers_never_charge_or_perturb_hypercalls(config, kinds):
    assert hypercall_outcome(config, kinds) == hypercall_outcome(config, ())


@pytest.mark.parametrize("kinds", OBSERVERS.values(), ids=OBSERVERS)
def test_observers_never_charge_or_perturb_a_campaign(kinds, bare_campaign):
    outcome = campaign_outcome(kinds)
    assert outcome.pop("export charged", 0) == 0
    assert outcome == bare_campaign


class ChargingEnd(Observer):
    """Seeded violation: every phase's end charges one cycle."""

    def begin_phase(self, cpu, name, kind, detail):
        return cpu.ledger

    def end(self, token):
        if token is not None:
            token.charge(1, "sysreg")


class CountingTrap(Observer):
    """Seeded violation: changes machine state without charging; each
    trap's begin records the trap once more."""

    def begin_trap(self, cpu, syndrome, reason):
        cpu.traps.record(reason)


@pytest.mark.parametrize("violation", [ChargingEnd, CountingTrap])
def test_gate_catches_a_perturbing_observer(violation):
    bare = hypercall_outcome("neve-nested", ())
    assert hypercall_outcome("neve-nested", (violation,)) != bare
    assert hypercall_outcome("neve-nested",
                             (Tracer, MachineMetrics, violation)) != bare


def test_attaching_a_facade_twice_observes_once():
    """Attaching one facade through the machine, a cpu (the same
    list) and the machine again leaves every ``repro_phase_cycles``
    count as one attach leaves it."""
    def phase_counts(attach_through):
        config = ALL_CONFIGS["neve-nested"]
        machine = Machine(arch=arm_arch_for(config))
        metrics = MachineMetrics()
        for owner in attach_through(machine):
            metrics.attach_machine(owner)
        vm = machine.kvm.create_vm(num_vcpus=1, nested=config.nested)
        machine.kvm.boot_nested(vm.vcpus[0])
        vm.vcpus[0].cpu.hvc(0)
        return {child.label_values: child.count
                for child in metrics.phase_cycles.children()}

    once = phase_counts(lambda machine: [machine])
    assert once
    assert phase_counts(lambda machine: [machine, machine.cpus[0],
                                         machine]) == once
