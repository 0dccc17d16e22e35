"""Seeded fault campaigns over the nested stack, single-CPU or SMP.

``run_campaign(seed, cpus=N)`` derives one seed-split plan per vCPU,
boots an N-vCPU NEVE nested machine under the runtime sanitizer with a
per-vCPU injector armed, drives interleaved hypercall/IPI rounds (the
interleaving order is deterministic and selectable — the determinism
tests perturb it), then settles in vcpu-id order under the machine-wide
recovery coordinator: every journalled fault must end *recovered*,
*degraded* or *re-promoted* — a pending event at the end of the run is
a silent failure and fails the campaign.

A probe hypercall per vCPU checks the survivor actually behaves like
the mode it claims (NEVE's few exits, or the ARMv8.3 exit
multiplication after degradation).  Degraded vCPUs then cool off: the
driver idles virtual time past the cooling-off window, offers
re-promotion, and re-probes — a re-promoted vCPU must be back to NEVE's
trap count.  Finally a three-level recursive pass injects into the L1
``NeveRunner``'s own page traffic and recovers through the per-level
runners.

Everything is a pure function of ``(seed, cpus, interleave)``;
``CampaignResult.digest`` hashes the canonical outcome so replays can
be compared bit for bit.
"""

import hashlib
import random
from dataclasses import dataclass, field

from repro.analysis.sanitizer import SanitizerReport, sanitized
from repro.arch.features import ArchConfig, ArchVersion, GicVersion
from repro.faults.plan import (
    PERSISTENT_VICTIMS,
    FaultClass,
    FaultPlan,
    PlannedFault,
    split_seed,
)
from repro.faults.points import FaultInjector
from repro.faults.recovery import (
    MachineIntegrityMonitor,
    RecoveryCoordinator,
    RecoveryManager,
    derive_recovery_costs,
)
from repro.hypervisor.kvm import Machine
from repro.hypervisor.nested import GUEST_IPI_SGI
from repro.hypervisor.recursive import RecursiveHost
from repro.hypervisor.scheduler import interleave_order
from repro.hypervisor.virtio import VirtioQueue
from repro.metrics.counters import RecoveryEvent
from repro.metrics.cycles import ARM_COSTS

#: Hypercall rounds the scenario drives after boot.
ROUNDS = 3

#: Exit-count envelope for the probe hypercall: NEVE stays well under,
#: a degraded (trap-and-emulate) vcpu lands well over.
PROBE_NEVE_MAX = 60
PROBE_DEGRADED_MIN = 60

_VIRTIO_SERVICE = 800
_VIRTIO_WAKEUP = 1200
_VIRTIO_REKICK_TIMEOUT = 6000
_VIRTIO_PACKETS = 40
_VIRTIO_INTERVAL = 1000


@dataclass
class CampaignResult:
    """Everything one seeded campaign produced."""

    seed: int
    plan: str
    cpus: int = 1
    interleave: str = "roundrobin"
    outcomes: list = field(default_factory=list)
    recovery_counts: dict = field(default_factory=dict)
    degraded: bool = False  # any vcpu degraded at settle time
    degrade_reason: str = None
    repromoted: bool = False  # any vcpu re-promoted after cooling off
    per_vcpu: list = field(default_factory=list)
    recovery_order: list = field(default_factory=list)
    ordering_violations: list = field(default_factory=list)
    sanitizer_checks: int = 0
    sanitizer_violations: int = 0
    probe_traps: int = 0  # vcpu 0's post-settle probe
    probe_ok: bool = True
    silent: list = field(default_factory=list)
    total_cycles: int = 0
    total_traps: int = 0

    @property
    def ok(self):
        return (not self.silent and self.sanitizer_violations == 0
                and not self.ordering_violations and self.probe_ok)

    def canonical(self):
        """Stable text form of the outcome, the digest input."""
        lines = ["seed=%d" % self.seed,
                 "cpus=%d interleave=%s" % (self.cpus, self.interleave),
                 "plan=%s" % self.plan]
        for entry in self.outcomes:
            lines.append("cpu%(cpu)s fault %(fault_id)d %(class)s "
                         "@%(point)s[%(trigger)d] fired=%(fired)s "
                         "outcome=%(outcome)s recovery=%(recovery)s"
                         % entry)
        for name in sorted(self.recovery_counts):
            lines.append("recovery %s=%d"
                         % (name, self.recovery_counts[name]))
        for entry in self.per_vcpu:
            lines.append("vcpu%(vcpu)d verdict=%(verdict)s "
                         "probe=%(probe)d reprobe=%(reprobe)s "
                         "repromotions=%(repromotions)d" % entry)
        lines.append("order=%s" % ",".join(
            "%d:%s" % pair for pair in self.recovery_order))
        for violation in self.ordering_violations:
            lines.append("ordering-violation %s" % violation)
        lines.append("degraded=%s reason=%s repromoted=%s"
                     % (self.degraded, self.degrade_reason,
                        self.repromoted))
        lines.append("sanitizer=%d/%d" % (self.sanitizer_violations,
                                          self.sanitizer_checks))
        lines.append("probe=%d ok=%s" % (self.probe_traps, self.probe_ok))
        lines.append("cycles=%d traps=%d" % (self.total_cycles,
                                             self.total_traps))
        return "\n".join(lines)

    @property
    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def run_campaign(seed, trace=False, cpus=1, interleave="roundrobin",
                 metrics=None):
    """Run one seeded campaign end to end; returns a CampaignResult.

    ``cpus`` boots that many pinned vCPUs with independent seed-split
    plans; ``interleave`` picks the deterministic per-round execution
    order (see :func:`repro.hypervisor.scheduler.interleave_order`).

    With ``trace=True`` a :class:`repro.trace.spans.Tracer` observes the
    run (the result's ``tracer`` attribute holds it afterwards): every
    trap, world-switch phase, recovery action and injected fault appears
    in the causal trace.  Tracing never charges cycles, so the digest of
    a traced run is bit-identical to the untraced one.

    ``metrics`` optionally attaches a
    :class:`~repro.metrics.instrument.MachineMetrics` facade to the
    machine before any work happens — the fleet layer uses this to give
    every simulated machine its own ``config`` label in a shared
    registry.  Telemetry is observe-only (``san-metrics-ledger``), so
    the digest is unchanged.
    """
    if cpus < 1:
        raise ValueError("cpus must be >= 1")
    plans = FaultPlan.generate_smp(seed, cpus)
    machine = Machine(
        arch=ArchConfig(version=ArchVersion.V8_4, gic=GicVersion.V3),
        num_cpus=cpus, costs=ARM_COSTS)
    if metrics is not None:
        metrics.attach_machine(machine)
    vm = machine.kvm.create_vm(num_vcpus=cpus, nested="neve")

    monitor = MachineIntegrityMonitor(machine.memory).install()
    coordinator = RecoveryCoordinator(machine)
    coordinator.install_guards()
    clock = lambda ledger=machine.ledger: ledger.total  # noqa: E731
    injectors = []
    for vcpu in vm.vcpus:
        injector = FaultInjector(plans[vcpu.vcpu_id])
        injector.clock = clock
        window = monitor.track(vcpu.vcpu_id, vcpu.neve.page.baddr)
        RecoveryManager(machine, vcpu, window, injector,
                        coordinator=coordinator)
        vcpu.cpu.fault_hook = injector
        vcpu.neve.fault_hook = injector
        injectors.append(injector)
    machine.kvm.serror_policy = coordinator.on_serror

    tracer = None
    root = None
    if trace:
        from repro.trace.spans import Tracer
        tracer = Tracer()
        tracer.attach_machine(machine)
        for injector in injectors:
            tracer.attach_to(injector)
        root = tracer.begin("campaign/seed-%d" % seed, kind="root")

    try:
        report = SanitizerReport()
        with sanitized(cpus=machine.cpus,
                       runners=[v.neve for v in vm.vcpus],
                       report=report):
            for vcpu in vm.vcpus:
                machine.kvm.boot_nested(vcpu)
            for round_index in range(ROUNDS):
                for index in interleave_order(cpus, round_index,
                                              interleave):
                    vcpu = vm.vcpus[index]
                    vcpu.cpu.hvc(round_index)
                    target = (index + 1) % cpus
                    vcpu.cpu.msr("ICC_SGI1R_EL1",
                                 (GUEST_IPI_SGI << 24) | target)
                    vcpu.cpu.hvc(round_index)
            for vcpu in vm.vcpus:
                _virtio_phase(machine, plans[vcpu.vcpu_id],
                              injectors[vcpu.vcpu_id])
            # Settlement and the final machine-wide audit run in
            # vcpu-id order under the coordinator's exclusive lock.
            coordinator.settle_all()
            stray = {vcpu_id: bad for vcpu_id, bad
                     in monitor.audit_all().items() if bad}
            # Disarm before probing: the probe measures the surviving
            # configuration, it is not part of the fault schedule.
            for vcpu in vm.vcpus:
                vcpu.cpu.fault_hook = None
                if vcpu.neve is not None:
                    vcpu.neve.fault_hook = None
            probes = {}
            for vcpu in vm.vcpus:
                before = machine.traps.total
                vcpu.cpu.hvc(0)
                probes[vcpu.vcpu_id] = machine.traps.total - before
            # Cooling off: idle virtual time until every degraded vcpu
            # has served its quiet window, then offer re-promotion and
            # re-probe the vcpus that came back to NEVE.
            owed = [m.cooling_off_remaining()
                    for m in coordinator.managers.values()]
            owed = [cycles for cycles in owed if cycles]
            if owed:
                machine.ledger.charge(max(owed), "idle")
            repromoted_ids = coordinator.repromote_all()
            reprobes = {}
            for vcpu_id in repromoted_ids:
                vcpu = vm.vcpus[vcpu_id]
                before = machine.traps.total
                vcpu.cpu.hvc(0)
                reprobes[vcpu_id] = machine.traps.total - before
                for event in injectors[vcpu_id].events:
                    if event.outcome == "degraded":
                        event.resolve("repromoted", event.recovery)

        result = CampaignResult(seed=seed, cpus=cpus,
                                interleave=interleave,
                                plan=" | ".join("cpu%d: %s"
                                                % (i, plans[i].describe())
                                                for i in range(cpus)))
        _collect_verdicts(result, coordinator, probes, reprobes)
        for vcpu_id, bad in sorted(stray.items()):
            result.silent.append(
                "vcpu%d page diverged after settle: %s" % (vcpu_id, bad))
        for vcpu in vm.vcpus:
            _collect_outcomes(result, vcpu.vcpu_id,
                              plans[vcpu.vcpu_id],
                              injectors[vcpu.vcpu_id])
        _recursive_phase(result, machine, seed, report)
        coordinator.remove_guards()
        result.recovery_counts = machine.recoveries.as_dict()
        result.recovery_order = list(coordinator.recovery_order)
        result.ordering_violations = list(coordinator.violations)
        result.sanitizer_checks = report.checks
        result.sanitizer_violations = len(report.violations)
        result.total_cycles = machine.ledger.total
        result.total_traps = machine.traps.total
    finally:
        if tracer is not None:
            tracer.end(root)
            tracer.stop()
    result.tracer = tracer
    return result


def _collect_verdicts(result, coordinator, probes, reprobes):
    """Per-vCPU verdicts and the machine-level roll-ups the single-CPU
    result surface keeps exposing (vcpu 0's probe, first degrade)."""
    probe_ok = True
    for vcpu_id in sorted(coordinator.managers):
        manager = coordinator.managers[vcpu_id]
        was_degraded = manager.degraded or manager.repromotions > 0
        if manager.degraded:
            verdict = "degraded"
        elif manager.repromotions > 0:
            verdict = "repromoted"
        else:
            verdict = "clean"
        probe = probes.get(vcpu_id, 0)
        reprobe = reprobes.get(vcpu_id)
        if was_degraded:
            if probe < PROBE_DEGRADED_MIN:
                probe_ok = False
        elif probe > PROBE_NEVE_MAX:
            probe_ok = False
        if reprobe is not None and reprobe > PROBE_NEVE_MAX:
            # A re-promoted vcpu must be back to NEVE's trap count.
            probe_ok = False
        result.per_vcpu.append({
            "vcpu": vcpu_id,
            "verdict": verdict,
            "probe": probe,
            "reprobe": reprobe,
            "repromotions": manager.repromotions,
            "degrade_reason": manager.degrade_reason,
        })
        if was_degraded and not result.degraded:
            result.degraded = True
        if manager.degrade_reason and result.degrade_reason is None:
            result.degrade_reason = manager.degrade_reason
        if manager.repromotions > 0:
            result.repromoted = True
    result.probe_traps = probes.get(0, 0)
    result.probe_ok = probe_ok


def _virtio_phase(machine, plan, injector):
    """Stream packets through a virtqueue with the injector attached;
    lost notifications must be covered by a later kick or the watchdog
    re-kick, both charged as recovery."""
    if not plan.has_class(FaultClass.LOST_KICK):
        return
    queue = VirtioQueue(backend_service_cycles=_VIRTIO_SERVICE,
                        wakeup_latency_cycles=_VIRTIO_WAKEUP,
                        rekick_timeout_cycles=_VIRTIO_REKICK_TIMEOUT)
    queue.fault_hook = injector
    stats = queue.simulate([i * _VIRTIO_INTERVAL
                            for i in range(_VIRTIO_PACKETS)])
    if stats.recovered_by_kick != stats.lost_kicks:
        raise RuntimeError("virtio stranded %d buffers unrecovered"
                           % (stats.lost_kicks - stats.recovered_by_kick))
    rekick_cost = derive_recovery_costs(machine.costs).rekick
    for _ in range(stats.recovery_kicks):
        machine.ledger.charge(rekick_cost, "recovery")
        machine.recoveries.record(RecoveryEvent.VIRTIO_REKICK)
    how = "rekicked" if stats.recovery_kicks else "piggybacked"
    for event in injector.pending():
        if event.fault.fault_class is FaultClass.LOST_KICK:
            event.resolve("recovered", how)


def _collect_outcomes(result, vcpu_id, plan, injector):
    """One outcome row per planned fault — including the ones whose
    trigger the run never reached — plus the silent list."""
    fired = {}
    for event in injector.events:
        fired.setdefault(event.fault.fault_id, event)
    for fault in plan.faults:
        event = fired.get(fault.fault_id)
        result.outcomes.append({
            "cpu": vcpu_id,
            "fault_id": fault.fault_id,
            "class": fault.fault_class.value,
            "point": fault.point,
            "trigger": fault.trigger,
            "fired": event is not None,
            "outcome": event.outcome if event else "not-triggered",
            "recovery": event.recovery if event else "-",
        })
    result.silent.extend("cpu%d %s" % (vcpu_id, e.fault.describe())
                         for e in injector.pending())


def _recursive_plan(seed):
    """A small deterministic plan for the recursive phase: faults that
    land in the per-level runners' page traffic (torn deferred stores,
    background slot corruption) — the L1 ``NeveRunner`` is a first-class
    injection target, not just a post-hoc repair surface.  Triggers stay
    within the deferred accesses the Section 6.2 fragment performs."""
    rng = random.Random(split_seed(seed, 3) ^ 0x5EC)
    faults = [
        PlannedFault(100, FaultClass.TORN_WRITE, "vncr.store",
                     rng.randint(1, 6), {"replay_failures": 0}),
        PlannedFault(101, FaultClass.PAGE_CORRUPTION, "vncr.page",
                     rng.randint(1, 6),
                     {"victim": rng.choice(PERSISTENT_VICTIMS),
                      "critical": False,
                      "garbage": rng.getrandbits(48)}),
    ]
    return FaultPlan(seed, faults)


def _recursive_phase(result, machine, seed, report):
    """Three-level pass with live injection: run the Section 6.2
    fragment with an injector armed on the recursive stack (the CPU and
    both per-level runners), so faults land in the L1 and L2 runners'
    *own* page traffic; then repair through whichever runner owns the
    damaged page, plus the original post-hoc L2 snapshot corruption."""
    rng = random.Random(seed * 2654435761 % (1 << 32))
    host = RecursiveHost(neve=True)
    rec_injector = FaultInjector(_recursive_plan(seed))
    host.arm_fault_hook(rec_injector)
    with sanitized(cpus=[host.cpu], report=report):
        host.run_l2_hypervisor_fragment()
    host.disarm_fault_hook()
    repair_cost = derive_recovery_costs(machine.costs).repair
    # Journal-driven repair through the owning runner: each event names
    # the page (baddr) it damaged; the runner whose page that is writes
    # the journalled value back.
    runners_by_page = {runner.page.baddr: runner
                      for runner in host.runners}
    for event in rec_injector.pending():
        runner = runners_by_page.get(event.detail.get("baddr"))
        if runner is None:
            result.silent.append("recursive fault hit unknown page: %s"
                                 % event.fault.describe())
            continue
        good = event.detail.get("intended",
                                event.detail.get("expected"))
        runner.write_deferred(event.detail["reg"], good)
        machine.ledger.charge(repair_cost, "recovery")
        machine.recoveries.record(RecoveryEvent.SLOT_REPAIR)
        event.resolve("recovered", "runner-repaired")
    # The original post-hoc exercise: corrupt one slot of the *L2*
    # hypervisor's page behind the runner's back and resync it against
    # a snapshot — one nesting level deeper than the main campaign.
    snapshot = host.l2_runner.page.as_dict()
    victim = rng.choice(["SCTLR_EL1", "TTBR0_EL1", "VTTBR_EL2"])
    garbage = rng.getrandbits(48)
    if garbage == snapshot[victim]:
        garbage ^= 1
    host.l2_runner.page.write_reg(victim, garbage)
    repaired = []
    for name in sorted(snapshot):
        if host.l2_runner.page.read_reg(name) != snapshot[name]:
            host.l2_runner.write_deferred(name, snapshot[name])
            machine.ledger.charge(repair_cost, "recovery")
            machine.recoveries.record(RecoveryEvent.SLOT_REPAIR)
            repaired.append(name)
    machine.recoveries.record(RecoveryEvent.VNCR_RESYNC)
    if repaired != [victim] \
            or host.l2_runner.page.read_reg(victim) != snapshot[victim]:
        result.silent.append("recursive resync failed for %s" % victim)
