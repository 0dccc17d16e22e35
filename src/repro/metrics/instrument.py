"""Wiring between the simulation's hot layers and the telemetry registry.

:class:`MachineMetrics` owns the metric families for one machine (one
``config`` label value) and reaches the simulation two ways:

* **Pulled mirrors.**  ``repro_cycles_total``, ``repro_traps_total`` and
  ``repro_recoveries_total`` copy the ledger's ``by_category``,
  ``TrapCounter.by_reason`` and ``RecoveryCounter.by_event``: attaching
  registers those dicts with the families, and every registry read
  folds in what moved since attach (``san-metrics-reconcile`` checks
  it).  A charge or a trap calls nothing.
* **Observer events** for what the counters do not keep (phase and trap
  histograms, the deferred-access counter, gauges): the facade is one
  :class:`~repro.trace.spans.Observer` on the machine's ``observers``
  list, beside the tracer, so an empty list is the disabled path.

Everything here only *reads* the ledger; nothing ever charges it (the
observer gate in ``tests/trace/test_observers.py`` checks it).
"""

from repro.metrics.registry import MetricsRegistry
from repro.trace.spans import Observer


class MachineMetrics(Observer):
    """The registry-backed telemetry facade for one machine/config.

    Several instances may share one :class:`MetricsRegistry` (the bench
    pipeline gives every config its own ``MachineMetrics`` over a single
    registry); re-registration is idempotent because every instance asks
    for the same family schemas.

    The mirror families hold the attached counting dicts, never the
    machine, so a machine can be dropped while the registry lives on.
    """

    def __init__(self, registry=None, config="default"):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.config = config
        reg = self.registry
        self.traps = reg.counter(
            "repro_traps_total",
            "Traps to the host hypervisor (mirror of TrapCounter)",
            ("config", "reason"))
        self.trap_cycles = reg.histogram(
            "repro_trap_cycles",
            "Simulated cycles per trap round trip, by exit reason and the "
            "exception level the trap interrupted",
            ("config", "reason", "el"))
        self.cycles = reg.counter(
            "repro_cycles_total",
            "Simulated cycles charged to the ledger, by category",
            ("config", "category"))
        self.phase_cycles = reg.histogram(
            "repro_phase_cycles",
            "Simulated cycles per traced phase (world switch, L0/L1 "
            "handlers, recovery ladder)",
            ("config", "phase"))
        self.vncr_deferred = reg.counter(
            "repro_vncr_deferred_total",
            "EL2 system-register accesses resolved against the VNCR "
            "deferred access page instead of trapping",
            ("config", "register", "op"))
        self.recoveries = reg.counter(
            "repro_recoveries_total",
            "Recovery-ladder actions (mirror of RecoveryCounter)",
            ("config", "event"))
        self.recovery_cycles = reg.histogram(
            "repro_recovery_cycles",
            "Simulated cycles charged per recovery-ladder action",
            ("config",))
        self.nesting_depth = reg.gauge(
            "repro_nesting_depth",
            "Current virtualization nesting depth per cpu "
            "(0 host, 1 VM or guest hypervisor, 2 nested VM)",
            ("config", "cpu"))
        self.depth_entries = reg.counter(
            "repro_depth_entries_total",
            "Guest entries by the nesting depth entered",
            ("config", "depth"))
        self.vgic_used_lrs = reg.gauge(
            "repro_vgic_used_lrs",
            "List registers in use at the last vGIC save/restore",
            ("config", "cpu"))
        self.vel2_exits = reg.counter(
            "repro_vel2_exits_total",
            "VM exits handled by the guest hypervisor at virtual EL2",
            ("config", "reason"))
        self.boundary_traps = reg.counter(
            "repro_boundary_traps_total",
            "Traps crossing a recursive-stack boundary, by disposition",
            ("config", "boundary"))
        self.neve_armed = reg.gauge(
            "repro_neve_state",
            "Whether NEVE is armed per cpu (1 = deferred access page "
            "live, 0 = degraded to trap-and-emulate)",
            ("config", "cpu"))
        self.cpu_recoveries = reg.counter(
            "repro_cpu_recoveries_total",
            "Recovery-ladder actions attributed to the cpu they ran on",
            ("config", "cpu", "event"))
        self.degradation_dwell = reg.histogram(
            "repro_degradation_dwell_cycles",
            "Virtual cycles a vcpu spent degraded before re-promotion "
            "re-armed its deferred access page",
            ("config",))

    # -- attachment ------------------------------------------------------

    def _sources(self, owner):
        """(family, counting dict) for each mirror *owner* feeds."""
        pairs = [(self.cycles, owner.ledger.by_category),
                 (self.traps, owner.traps.by_reason)]
        recoveries = getattr(owner, "recoveries", None)
        if recoveries is not None:
            pairs.append((self.recoveries, recoveries.by_event))
        return pairs

    def attach_machine(self, owner):
        """Hook a machine (or a bare cpu): mirror its ledger and
        trap/recovery counters from this point on, and join its
        observers list.  Attaching twice counts and observes once.
        Attach before running a workload if you want the registry
        mirrors to equal the legacy counters."""
        for family, source in self._sources(owner):
            family.mirror(source, self.config)
        return super().attach_machine(owner)

    def detach_machine(self, owner):
        """Undo :meth:`attach_machine`: the mirrors keep what moved
        until now (registry contents survive) and stop reading."""
        for family, source in self._sources(owner):
            family.unmirror(source)
        if self in owner.observers:
            owner.observers.remove(self)

    # -- observer events -------------------------------------------------

    def begin_trap(self, cpu, syndrome, reason):
        """Time one trap round trip; labels carry the exception level
        the trap interrupted (``vel2`` for virtual EL2)."""
        if cpu.at_virtual_el2:
            el = "vel2"
        else:
            el = str(getattr(cpu.current_el, "name", cpu.current_el)).lower()
        ledger = cpu.ledger
        return (self.trap_cycles.labels(self.config, reason, el), ledger,
                ledger.total)

    def begin_phase(self, cpu, name, kind, detail):
        """Time one phase into the ``repro_phase_cycles`` child named
        *name*."""
        ledger = cpu.ledger
        return (self.phase_cycles.labels(self.config, name), ledger,
                ledger.total)

    def end(self, token):
        child, ledger, mark = token
        child.observe(ledger.total - mark)

    def deferred(self, cpu, reg, is_write):
        self.vncr_deferred.labels(self.config, reg.name,
                                  "write" if is_write else "read").inc()

    def nesting(self, cpu, depth):
        self.nesting_depth.labels(self.config, str(cpu.cpu_id)).set(depth)
        self.depth_entries.labels(self.config, str(depth)).inc()

    def list_registers(self, cpu, used_lrs):
        self.vgic_used_lrs.labels(self.config, str(cpu.cpu_id)).set(used_lrs)

    def vel2_exit(self, cpu, reason):
        self.vel2_exits.labels(self.config, reason).inc()

    def boundary_trap(self, cpu, boundary):
        self.boundary_traps.labels(self.config, boundary).inc()

    def recovery(self, cpu, event, cycles):
        if cycles is not None:
            self.recovery_cycles.labels(self.config).observe(cycles)
        if event is not None:
            self.cpu_recoveries.labels(self.config, str(cpu.cpu_id),
                                       event).inc()

    def neve_state(self, cpu, armed, dwell):
        self.neve_armed.labels(self.config, str(cpu.cpu_id)).set(armed)
        if dwell is not None:
            self.degradation_dwell.labels(self.config).observe(dwell)
