#!/usr/bin/env python3
"""Trace the exit multiplication problem (Section 5) trap by trap.

Boots a nested VM on the ARMv8.3 model and on the NEVE model, then runs a
single hypercall from the L2 guest while recording every trap the host
hypervisor services.  The ARMv8.3 trace shows the guest hypervisor's world
switch trapping on every system register access; the NEVE trace shows only
the irreducible transitions and trap-on-write registers.

A third act demonstrates the recovery layer's degradation *lifecycle*:
the same vcpu at 16 traps under NEVE, at 126 after a graceful
degradation (the page evacuated, every vEL2 access trapping again),
and back at 16 after the cooling-off window elapses and the
re-promotion path re-arms a fresh deferred access page — degradation
is an operating mode to recover from, not a one-way door.

Pass ``--sanitize`` to run the whole scenario under the runtime
invariant sanitizer (``repro.analysis.sanitizer``) and print its
verdict alongside the traces.
"""

import argparse
from collections import Counter
from contextlib import ExitStack

from repro.analysis.sanitizer import SanitizerReport, sanitized
from repro.harness.configs import ALL_CONFIGS, arm_arch_for
from repro.hypervisor.kvm import Machine
from repro.metrics.cycles import ARM_COSTS


class TracingHandler:
    """Wraps the host hypervisor's trap handler to record a trace."""

    def __init__(self, kvm):
        self.kvm = kvm
        self.trace = []

    def handle_trap(self, cpu, syndrome):
        self.trace.append(syndrome.describe())
        return self.kvm.handle_trap(cpu, syndrome)

    def resume_context(self, cpu):
        return self.kvm.resume_context(cpu)


def trace_hypercall(nested_mode, report=None):
    config = ALL_CONFIGS["arm-nested" if nested_mode == "nv"
                         else "neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS)
    vm = machine.kvm.create_vm(num_vcpus=1, nested=nested_mode)

    with ExitStack() as stack:
        if report is not None:
            runners = [vcpu.neve for vcpu in vm.vcpus]
            stack.enter_context(sanitized(cpus=machine.cpus,
                                          runners=runners, report=report))
        machine.kvm.boot_nested(vm.vcpus[0])

        tracer = TracingHandler(machine.kvm)
        for cpu in machine.cpus:
            cpu.trap_handler = tracer

        vm.vcpus[0].cpu.hvc(0)  # warm up
        tracer.trace.clear()
        vm.vcpus[0].cpu.hvc(0)
    return tracer.trace


def degradation_lifecycle():
    """NEVE -> degraded -> re-promoted, with the trap count of one L2
    hypercall measured in each state (16 / 126 / 16)."""
    from repro.faults.plan import FaultPlan
    from repro.faults.points import FaultInjector
    from repro.faults.recovery import (MachineIntegrityMonitor,
                                       RecoveryManager)

    config = ALL_CONFIGS["neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS)
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    vcpu = vm.vcpus[0]
    machine.kvm.boot_nested(vcpu)

    monitor = MachineIntegrityMonitor(machine.memory).install().track(
        vcpu.vcpu_id, vcpu.neve.page.baddr)
    recovery = RecoveryManager(machine, vcpu,
                               monitor, FaultInjector(FaultPlan(0, [])))

    def probe():
        before = machine.traps.total
        vcpu.cpu.hvc(0)
        return machine.traps.total - before

    vcpu.cpu.hvc(0)  # warm up
    stages = [("NEVE armed", probe())]
    recovery.degrade(vcpu.cpu, "demo: simulated fault burst")
    stages.append(("degraded (trap-and-emulate)", probe()))
    # Serve the cooling-off window in virtual time, then re-promote.
    machine.ledger.charge(recovery.cooling_off_required(), "idle")
    assert recovery.maybe_repromote(vcpu.cpu)
    stages.append(("re-promoted (page re-armed)", probe()))
    return stages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sanitize", action="store_true",
                        help="run under the runtime invariant sanitizer")
    opts = parser.parse_args(argv)

    report = SanitizerReport() if opts.sanitize else None
    for mode, label in (("nv", "ARMv8.3 trap-and-emulate"),
                        ("neve", "NEVE")):
        trace = trace_hypercall(mode, report=report)
        print("=" * 70)
        print("%s: one L2 hypercall -> %d traps to the host hypervisor"
              % (label, len(trace)))
        print("-" * 70)
        summary = Counter(trace)
        for description, count in summary.most_common():
            print("  %3dx  %s" % (count, description))
    print()
    print("Every line is work the ARMv8.3 host hypervisor must emulate")
    print("with a full world switch; NEVE's deferred access page absorbs")
    print("the register traffic in ordinary loads and stores.")
    print()
    print("=" * 70)
    print("Degradation lifecycle: one vcpu, one hypercall per stage")
    print("-" * 70)
    for label, traps in degradation_lifecycle():
        print("  %-32s %4d traps" % (label, traps))
    print()
    print("The recovery layer's degradation is a mode, not a one-way")
    print("door: after the cooling-off window, re-promotion re-arms a")
    print("fresh deferred access page and the 16-trap profile returns")
    print("(see docs/faults.md).")
    if report is not None:
        print()
        print(report.summary())
        for finding in report.violations:
            print("  " + finding.format())
        return 1 if report.violations else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
