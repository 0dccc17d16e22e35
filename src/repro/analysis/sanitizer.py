"""Pass 3: runtime invariant sanitizer (opt-in, ASan-style).

Where the conformance matrix (:mod:`repro.core.conformance`) probes the
CPU model with a synthetic trap handler, the sanitizer rides along a
*real* simulation — full hypervisor stack, GIC, timers — and checks
every access as it happens:

* every system-register access from virtual EL2 resolves to exactly the
  behaviour Tables 3-5 specify (trap, redirect, defer, or permitted
  direct access) — no silent fallthrough into the wrong mechanism;
* deferred-access-page traffic only happens while ``VNCR_EL2.Enable``
  is set (Section 6.1: the host clears Enable while the nested VM runs
  so the VM reaches its real EL1 registers);
* :class:`~repro.core.neve.NeveRunner` bookkeeping stays in sync with
  the hardware ``VNCR_EL2`` value, enable/disable only happen at EL2,
  and cached-copy refreshes only target registers that actually own a
  page slot.

Violations are collected in a :class:`SanitizerReport` (or raised
immediately with ``strict=True``).  Attach with::

    with sanitized(cpus=machine.cpus, runners=[vcpu.neve]) as report:
        ... run the scenario ...
    report.assert_clean()
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.base import Finding
from repro.arch.cpu import AccessKind, Encoding
from repro.arch.exceptions import ExceptionLevel
from repro.arch.registers import RegClass, lookup_register
from repro.core.conformance import expected_access_kind


class SanitizerError(AssertionError):
    """Raised on the first violation when running in strict mode."""


@dataclass
class SanitizerReport:
    """Accumulated sanitizer verdict for one simulation run."""

    checks: int = 0
    violations: list = field(default_factory=list)
    strict: bool = False

    @property
    def passed(self):
        return not self.violations

    def record(self, ok, rule, message):
        self.checks += 1
        if ok:
            return
        finding = Finding(rule, message)
        self.violations.append(finding)
        if self.strict:
            raise SanitizerError(finding.format())

    def assert_clean(self):
        if self.violations:
            raise SanitizerError(
                "%d invariant violation(s) in %d checks:\n%s"
                % (len(self.violations), self.checks,
                   "\n".join(f.format() for f in self.violations)))

    def summary(self):
        return ("sanitizer: %d checks, %d violations"
                % (self.checks, len(self.violations)))


class CpuSanitizer:
    """Wraps one :class:`~repro.arch.cpu.Cpu`'s access resolution."""

    def __init__(self, cpu, report):
        self.cpu = cpu
        self.report = report
        self._orig_sysreg_access = None
        self._orig_deferred_access = None

    def install(self):
        if self._orig_sysreg_access is not None:
            raise RuntimeError("sanitizer already installed on cpu %d"
                               % self.cpu.cpu_id)
        self._orig_sysreg_access = self.cpu.sysreg_access
        self._orig_deferred_access = self.cpu._deferred_access
        self.cpu.sysreg_access = self._checked_sysreg_access
        self.cpu._deferred_access = self._checked_deferred_access

    def uninstall(self):
        if self._orig_sysreg_access is None:
            return
        # The originals are bound methods; deleting the instance
        # attributes re-exposes them.
        del self.cpu.sysreg_access
        del self.cpu._deferred_access
        self._orig_sysreg_access = None
        self._orig_deferred_access = None

    def _checked_sysreg_access(self, name, is_write, value=None,
                               enc=Encoding.NORMAL):
        cpu = self.cpu
        # Snapshot the resolution inputs before the access runs: the
        # trap handler may world-switch and change them underneath us.
        at_vel2 = cpu.at_virtual_el2
        at_el2 = cpu.current_el is ExceptionLevel.EL2
        neve = cpu.neve_enabled
        vhe = cpu.virtual_e2h
        result, kind = self._orig_sysreg_access(name, is_write,
                                                value=value, enc=enc)
        if at_vel2 and cpu.arch.has_nv:
            reg = lookup_register(name)
            if reg.reg_class is not RegClass.SPECIAL:
                expected = expected_access_kind(reg, is_write, neve, vhe,
                                                enc=enc)
                self.report.record(
                    kind is expected, "san-access-kind",
                    "virtual-EL2 %s of %s (enc=%s) resolved to %s, "
                    "Tables 3-5 specify %s (neve=%s vhe=%s)"
                    % ("write" if is_write else "read", name,
                       enc.name.lower(), kind.value, expected.value,
                       neve, vhe))
        elif at_el2 and enc is not Encoding.NORMAL:
            # A VHE host's *_EL12/*_EL02 alias at real EL2 reaches the
            # hardware EL1 registers holding the VM's state — never a
            # trap, never the page (the NV transformations apply only
            # below EL2).
            self.report.record(
                kind is AccessKind.DIRECT_EL1, "san-host-alias",
                "EL2 %s of %s via %s resolved to %s, expected a direct "
                "EL1 access"
                % ("write" if is_write else "read", name,
                   enc.name.lower(), kind.value))
        return result, kind

    def _checked_deferred_access(self, reg, is_write, value):
        self.report.record(
            self.cpu.neve_enabled, "san-vncr-disabled",
            "deferred-access-page %s of %s while VNCR_EL2.Enable is "
            "clear" % ("write" if is_write else "read", reg.name))
        self.report.record(
            reg.vncr_offset is not None, "san-vncr-slot",
            "deferred access to %s, which owns no page slot" % reg.name)
        return self._orig_deferred_access(reg, is_write, value)


class RunnerSanitizer:
    """Wraps one :class:`~repro.core.neve.NeveRunner`."""

    def __init__(self, runner, report):
        self.runner = runner
        self.report = report
        self._originals = {}

    def install(self):
        if self._originals:
            raise RuntimeError("sanitizer already installed on runner")
        for method in ("enable", "disable", "write_cached_copy"):
            self._originals[method] = getattr(self.runner, method)
        self.runner.enable = self._checked_enable
        self.runner.disable = self._checked_disable
        self.runner.write_cached_copy = self._checked_write_cached_copy

    def uninstall(self):
        for method in self._originals:
            delattr(self.runner, method)
        self._originals = {}

    def _check_sync(self, what):
        cpu = self.runner.cpu
        self.report.record(
            cpu.current_el is ExceptionLevel.EL2, "san-runner-el",
            "NeveRunner.%s called while the CPU runs at %s; VNCR_EL2 is "
            "host-hypervisor state" % (what, cpu.current_el))
        hw = cpu.el2_regs.read("VNCR_EL2")
        self.report.record(
            hw == self.runner.vncr.value, "san-runner-drift",
            "after NeveRunner.%s the hardware VNCR_EL2 (%#x) disagrees "
            "with the runner's view (%#x)"
            % (what, hw, self.runner.vncr.value))

    def _checked_enable(self):
        result = self._originals["enable"]()
        self._check_sync("enable")
        return result

    def _checked_disable(self):
        result = self._originals["disable"]()
        self._check_sync("disable")
        return result

    def _checked_write_cached_copy(self, reg_name, value):
        reg = lookup_register(reg_name)
        self.report.record(
            reg.vncr_offset is not None, "san-vncr-slot",
            "cached-copy refresh of %s, which owns no page slot"
            % reg_name)
        return self._originals["write_cached_copy"](reg_name, value)


@contextmanager
def sanitized(cpus=(), runners=(), strict=False, report=None):
    """Attach sanitizers to *cpus* and *runners* for the dynamic extent
    of the block; yields the shared :class:`SanitizerReport`."""
    if report is None:
        report = SanitizerReport(strict=strict)
    wrappers = [CpuSanitizer(cpu, report) for cpu in cpus]
    wrappers += [RunnerSanitizer(runner, report) for runner in runners
                 if runner is not None]
    for wrapper in wrappers:
        wrapper.install()
    try:
        yield report
    finally:
        for wrapper in wrappers:
            wrapper.uninstall()


def check_trace_reconciliation(tracer, report=None):
    """Sanitizer check for the causal tracer (:mod:`repro.trace`):
    every cycle the ledger charged must be attributed to exactly one
    span (or explicitly accounted as dropped/open/unattributed), so
    ``sum(span.cycles) == ledger.total`` over the traced window.

    Records one ``san-trace-reconcile`` check into *report* and returns
    the report.
    """
    if report is None:
        report = SanitizerReport()
    rec = tracer.reconcile()
    report.record(
        rec.exact, "san-trace-reconcile",
        "span cycle attribution does not reconcile against the ledger: "
        + rec.describe())
    return report


def run_sanitized_scenario(modes=("nv", "neve"), hypercalls=2):
    """Run the exit-multiplication scenario (examples/
    exit_multiplication.py) under the sanitizer: boot a nested VM on the
    ARMv8.3 and NEVE models and drive L2 hypercalls end to end.

    Returns the combined :class:`SanitizerReport`; a clean report means
    every register access the full hypervisor stack performed resolved
    exactly as the specification tables demand.
    """
    from repro.harness.configs import ALL_CONFIGS, arm_arch_for
    from repro.hypervisor.kvm import Machine
    from repro.metrics.cycles import ARM_COSTS

    report = SanitizerReport()
    for mode in modes:
        config = ALL_CONFIGS["arm-nested" if mode == "nv"
                             else "neve-nested"]
        machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS)
        vm = machine.kvm.create_vm(num_vcpus=1, nested=mode)
        runners = [vcpu.neve for vcpu in vm.vcpus]
        with sanitized(cpus=machine.cpus, runners=runners,
                       report=report):
            machine.kvm.boot_nested(vm.vcpus[0])
            for _ in range(hypercalls):
                vm.vcpus[0].cpu.hvc(0)
    return report


def _metrics_scenario(mode, hypercalls, attach_metrics):
    """One nested boot + hypercall scenario, optionally under metrics.

    Returns ``(machine, metrics_or_None)``; the outcome tuple the
    metrics checks compare is read off the machine's legacy counters.
    """
    from repro.harness.configs import ALL_CONFIGS, arm_arch_for
    from repro.hypervisor.kvm import Machine
    from repro.metrics.cycles import ARM_COSTS
    from repro.metrics.instrument import MachineMetrics

    config = ALL_CONFIGS["arm-nested" if mode == "nv" else "neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS)
    metrics = None
    if attach_metrics:
        metrics = MachineMetrics(config=config.name)
        metrics.attach_machine(machine)
        metrics.registry.clock = lambda: machine.ledger.total
    vm = machine.kvm.create_vm(num_vcpus=1, nested=mode)
    machine.kvm.boot_nested(vm.vcpus[0])
    for _ in range(hypercalls):
        vm.vcpus[0].cpu.hvc(0)
    return machine, metrics


def check_metrics_reconcile(machine, metrics, report=None):
    """``san-metrics-reconcile``: the registry mirrors must agree with
    the counters they are pulled from (the pull's baseline and dedupe
    logic) — ``TrapCounter.total`` equals the sum of the trap family's
    series for *metrics*' config (and per reason), ``CycleLedger.total``
    the cycle family's (and per category).  Other configs sharing the
    registry are not this machine's.  Reads without creating series; a
    missing family is a violation.  Only meaningful when *metrics* was
    attached before the machine did any work.
    """
    if report is None:
        report = SanitizerReport()
    registry = metrics.registry
    for name, total, counts in (
            ("repro_traps_total", machine.traps.total,
             {key.value: n for key, n in machine.traps.by_reason.items()}),
            ("repro_cycles_total", machine.ledger.total,
             machine.ledger.by_category)):
        family = registry.get(name)
        if family is None:
            report.record(False, "san-metrics-reconcile",
                          "mirror family %s is missing" % name)
            continue
        mirrored = {child.label_values[1]: child.value
                    for child in family.children()
                    if child.label_values[0] == metrics.config}
        mirrored_total = sum(mirrored.values())
        report.record(
            mirrored_total == total, "san-metrics-reconcile",
            "%s diverged: counter total=%d, registry sum=%d"
            % (name, total, mirrored_total))
        for key, count in sorted(counts.items()):
            report.record(
                mirrored.get(key) == count, "san-metrics-reconcile",
                "%s diverged for %s: counter=%d, registry=%s"
                % (name, key, count, mirrored.get(key)))
    return report


def check_metrics_ledger(report=None, mode="neve", hypercalls=2):
    """``san-metrics-ledger``: telemetry must be free in simulated time.

    Runs the same seeded scenario twice — metrics attached and detached
    — and demands identical ledger totals and trap counts (the disabled
    path adds zero cycles, the enabled path never charges); then exports
    both formats and demands the ledger did not move.
    """
    if report is None:
        report = SanitizerReport()
    bare_machine, _ = _metrics_scenario(mode, hypercalls,
                                        attach_metrics=False)
    machine, metrics = _metrics_scenario(mode, hypercalls,
                                         attach_metrics=True)
    report.record(
        machine.ledger.total == bare_machine.ledger.total,
        "san-metrics-ledger",
        "metrics changed simulated time: ledger %d with metrics, "
        "%d without" % (machine.ledger.total, bare_machine.ledger.total))
    report.record(
        machine.traps.total == bare_machine.traps.total,
        "san-metrics-ledger",
        "metrics changed trap behaviour: %d traps with metrics, "
        "%d without" % (machine.traps.total, bare_machine.traps.total))
    mark = machine.ledger.snapshot()
    metrics.registry.prometheus_text()
    metrics.registry.json_snapshot()
    report.record(
        machine.ledger.since(mark) == 0, "san-metrics-ledger",
        "exporting metrics charged the ledger: +%d cycles"
        % machine.ledger.since(mark))
    return report


def check_fleet_merge(report=None, machines=3, seed=0):
    """``san-fleet-merge``: the fleet merge must be order-blind.

    Runs a small fleet's shards in-process once, then folds the same
    payloads in shard order, reversed and rotated — every fold must
    export byte-identical Prometheus text, JSON snapshots and fleet
    digests, and all must equal the sequential reference
    (:func:`repro.fleet.merge.reference_merge`).  This is the invariant
    that lets the supervisor retry and reschedule shards freely without
    the merged export ever depending on scheduling history.
    """
    from repro.fleet.merge import merge_payloads, reference_merge
    from repro.fleet.plan import FleetPlan
    from repro.fleet.worker import run_shard
    from repro.trace.export import verify_machine_trace

    if report is None:
        report = SanitizerReport()
    plan = FleetPlan.generate(seed, machines, shard_size=1)
    payloads = []
    for shard in plan.shards:
        records, metrics_document, traces = run_shard(shard, trace=True)
        payloads.append((shard.shard_id, records, metrics_document,
                         traces))

    orders = [payloads, list(reversed(payloads)),
              payloads[1:] + payloads[:1]]
    merges = [merge_payloads(order) for order in orders]
    baseline = merges[0]
    for index, merge in enumerate(merges[1:], start=1):
        report.record(
            merge.prometheus_text() == baseline.prometheus_text(),
            "san-fleet-merge",
            "prometheus export depends on shard arrival order "
            "(permutation %d differs)" % index)
        report.record(
            merge.json_snapshot() == baseline.json_snapshot(),
            "san-fleet-merge",
            "json export depends on shard arrival order "
            "(permutation %d differs)" % index)
        report.record(
            merge.digest == baseline.digest,
            "san-fleet-merge",
            "fleet digest depends on shard arrival order "
            "(permutation %d differs)" % index)
        report.record(
            merge.chrome_trace_json() == baseline.chrome_trace_json(),
            "san-fleet-merge",
            "stitched fleet trace depends on shard arrival order "
            "(permutation %d differs)" % index)
    reference = reference_merge(plan, trace=True)
    report.record(
        reference.prometheus_text() == baseline.prometheus_text()
        and reference.json_snapshot() == baseline.json_snapshot()
        and reference.digest == baseline.digest
        and reference.chrome_trace_json() == baseline.chrome_trace_json(),
        "san-fleet-merge",
        "shuffled merge diverged from the sequential reference run")
    # The per-machine reconciliation invariant must still hold *after*
    # the merge — each stitched machine lane balances its own books.
    for machine_index in sorted(baseline.traces):
        problems = verify_machine_trace(baseline.traces[machine_index])
        report.record(
            not problems, "san-trace-reconcile",
            "machine %d trace payload fails after fleet merge: %s"
            % (machine_index, "; ".join(problems)))
    return report


def run_metrics_checks(modes=("nv", "neve"), hypercalls=2):
    """Run both metrics sanitizer checks over the standard scenario;
    returns the combined report (wired into ``python -m repro lint``)."""
    report = SanitizerReport()
    for mode in modes:
        machine, metrics = _metrics_scenario(mode, hypercalls,
                                             attach_metrics=True)
        check_metrics_reconcile(machine, metrics, report=report)
    check_metrics_ledger(report=report, hypercalls=hypercalls)
    return report
