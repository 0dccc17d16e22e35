"""Pulled mirror families: ``repro_cycles_total``, ``repro_traps_total``
and ``repro_recoveries_total`` are read from the machine's counting
dicts when the registry is read, with the semantics the per-event push
had: only movement after attach counts, a new key appears even at 0, a
source is never counted twice, and detach or reset keep what moved."""

import gc
import math
import weakref

from hypothesis import given
from hypothesis import strategies as st

from repro.harness.configs import ALL_CONFIGS, arm_arch_for
from repro.hypervisor.kvm import Machine
from repro.metrics.counters import ExitReason
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import (CYCLE_BUCKETS, HistogramValue,
                                    MetricsRegistry)


def booted():
    machine = Machine(arch=arm_arch_for(ALL_CONFIGS["neve-nested"]))
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    machine.kvm.boot_nested(vm.vcpus[0])
    return machine, vm.vcpus[0].cpu


def series(family):
    return {child.label_values: child.value for child in family.children()}


def moved(now, then):
    return {key: count - then.get(key, 0) for key, count in now.items()
            if count != then.get(key, 0) or key not in then}


def test_attach_after_boot_counts_only_later_movement():
    machine, cpu = booted()
    metrics = MachineMetrics(config="late").attach_machine(machine)
    cycles_then = dict(machine.ledger.by_category)
    traps_then = dict(machine.traps.by_reason)
    cpu.hvc(0)
    assert series(metrics.cycles) == {
        ("late", category): count for category, count
        in moved(machine.ledger.by_category, cycles_then).items()}
    assert series(metrics.traps) == {
        ("late", reason.value): count for reason, count
        in moved(machine.traps.by_reason, traps_then).items()}
    assert metrics.traps.total() == 16  # one NEVE hypercall, Table 7


def test_attaching_a_source_twice_counts_it_once():
    machine, cpu = booted()
    metrics = MachineMetrics(config="twice")
    metrics.attach_machine(machine)
    mark = machine.ledger.total
    cpu.hvc(0)
    # The cpus share the machine's ledger and trap counter.
    metrics.attach_machine(cpu)
    metrics.attach_machine(machine)
    cpu.hvc(0)
    assert metrics.cycles.total() == machine.ledger.total - mark
    assert metrics.traps.total() == 32


def test_detach_then_run_moves_nothing():
    machine, cpu = booted()
    metrics = MachineMetrics(config="gone").attach_machine(machine)
    cpu.hvc(0)
    metrics.detach_machine(machine)
    frozen = (series(metrics.cycles), series(metrics.traps))
    cpu.hvc(0)
    machine.ledger.charge(0, "after-detach")
    assert (series(metrics.cycles), series(metrics.traps)) == frozen


def test_registry_reset_counts_only_new_movement():
    machine, cpu = booted()
    metrics = MachineMetrics(config="reset").attach_machine(machine)
    cpu.hvc(0)
    metrics.registry.reset()
    assert series(metrics.cycles) == {}
    assert series(metrics.traps) == {}
    mark = machine.ledger.total
    cpu.hvc(0)
    assert metrics.cycles.total() == machine.ledger.total - mark
    assert metrics.traps.total() == 16


def test_zero_cycle_new_category_creates_its_series():
    machine, _cpu = booted()
    metrics = MachineMetrics(config="zero").attach_machine(machine)
    machine.ledger.charge(0, "fresh")
    assert ('repro_cycles_total{config="zero",category="fresh"} 0'
            in metrics.registry.prometheus_text())


def test_every_read_path_pulls():
    machine, cpu = booted()
    metrics = MachineMetrics(config="reads").attach_machine(machine)
    registry = metrics.registry
    cursor = registry.delta_cursor()
    cpu.hvc(0)
    assert (metrics.traps.labels("reads", ExitReason.HVC).value
            == machine.traps.count(ExitReason.HVC))
    cpu.hvc(0)
    assert metrics.traps.total() == 32
    cpu.hvc(0)
    delta = cursor.advance()["metrics"]
    assert sum(entry["value"] for entry
               in delta["repro_traps_total"]["series"]) == 48
    cpu.hvc(0)
    merged = MetricsRegistry().merge_snapshot(registry.json_snapshot())
    assert merged.get("repro_traps_total").total() == 64
    cpu.hvc(0)
    assert ('repro_traps_total{config="reads",reason="hvc"} %d'
            % machine.traps.count(ExitReason.HVC)
            in registry.prometheus_text())


def test_the_registry_does_not_keep_the_machine_alive():
    machine, cpu = booted()
    metrics = MachineMetrics(config="released").attach_machine(machine)
    cpu.hvc(0)
    alive = weakref.ref(machine)
    del machine, cpu
    gc.collect()
    assert alive() is None
    assert metrics.traps.total() == 16


def test_histogram_buckets_at_bounds_infinity_and_zero():
    child = HistogramValue((), CYCLE_BUCKETS)
    child.observe(0)
    child.observe(100)  # equal to the first bound: counted there
    child.observe(101)
    child.observe(math.inf)
    assert child.counts[0] == 2
    assert child.counts[1] == 3
    assert child.counts[-2] == 3  # 1,000,000: inf is beyond it
    assert child.counts[-1] == 4
    assert child.count == 4


@given(st.lists(st.one_of(st.integers(min_value=-10, max_value=2_000_000),
                          st.sampled_from(CYCLE_BUCKETS)), max_size=30))
def test_histogram_matches_a_bucket_by_bucket_scan(values):
    child = HistogramValue((), CYCLE_BUCKETS)
    expected = [0] * len(CYCLE_BUCKETS)
    for value in values:
        child.observe(value)
        for index, bound in enumerate(CYCLE_BUCKETS):
            if value <= bound:
                expected[index] += 1
    assert child.counts == expected
    assert child.count == len(values)
