"""VNCR recovery paths: audit, resync, replay, degrade, re-promote.

The cooperating pieces:

* :class:`MachineIntegrityMonitor` shadows the deferred access pages.
  It wraps the physical memory's word store once, with one tracked
  window per vCPU's page, so every *legitimate* write inside a page
  updates that window's reference copy; the injector's corruption goes
  through :meth:`MachineIntegrityMonitor.raw_write` and bypasses it.  A
  window's ``audit()`` then reports exactly the slots that diverged —
  the model's stand-in for the hash/ECC check a real host would run.
  The per-vCPU :class:`RecoveryManager` drives one window.

* :class:`RecoveryCoordinator` serialises recovery across vCPUs: a
  vCPU mid-recovery holds the machine-wide recovery lock, its page is
  quarantined, and a deferred access from *another* CPU into that page
  is recorded as an ordering violation (via the ``Cpu.recovery_guard``
  hook).  Settlement always runs in vcpu-id order, so the recovery
  order is itself deterministic and part of the campaign digest.

* :class:`RecoveryManager` turns injector journal entries and audit
  mismatches into explicit outcomes.  The ladder, cheapest first:

  1. **Superseded** — the corrupt value was already overwritten by later
     correct state (common for volatile slots); nothing to do but
     classify.
  2. **Repair / replay** — write the known-good value back, bounded at
     ``MAX_REPLAY_TRIES`` attempts (a replay itself may fail).
  3. **Degrade** — for critical control slots (``VNCR_EL2`` itself) or
     replay exhaustion, take NEVE down to ARMv8.3 trap-and-emulate:
     slower (the exit multiplication returns) but correct.
  4. **Re-promote** — degradation is *not* terminal: once the fault
     burst subsides for :data:`COOLING_OFF_CYCLES` of virtual time,
     :meth:`RecoveryManager.maybe_repromote` re-arms a fresh deferred
     access page from the banked contexts and hands the vcpu back to
     NEVE.  Hysteresis: each re-promotion doubles the next required
     quiet window (``REPROMOTE_BACKOFF``) and after
     ``MAX_REPROMOTIONS`` flaps the vcpu stays degraded, so a flapping
     fault source cannot oscillate the machine.

  Every action is charged to the cycle ledger under ``recovery`` and
  counted in :class:`repro.metrics.counters.RecoveryCounter`, so
  resilience has a visible price like everything else in the model.
"""

from contextlib import contextmanager
from dataclasses import dataclass

from repro.arch.registers import RegClass, deferred_page_size
from repro.core.vncr import deferred_registers
from repro.faults.plan import FaultClass
from repro.memory.phys import PAGE_SIZE
from repro.metrics.counters import RecoveryEvent
from repro.trace.spans import cpu_span

#: Slots whose corruption may already have steered guest-hypervisor
#: execution: silently rewriting them could hide a wrong decision, so
#: the only honest recovery is degradation.
CRITICAL_SLOTS = frozenset(["HCR_EL2", "VTTBR_EL2", "VNCR_EL2"])

#: A replay (rewriting a slot from the journal) may itself fail; give up
#: and degrade after this many attempts.
MAX_REPLAY_TRIES = 3

#: Base cooling-off window (virtual cycles): a degraded vcpu may be
#: re-promoted to NEVE only after this much quiet time — no fault
#: firing on its injector — has elapsed since the degradation (or since
#: the last fault, whichever is later).
COOLING_OFF_CYCLES = 1_000_000

#: Hysteresis: each re-promotion multiplies the *next* required quiet
#: window by this factor, so a fault source that keeps flapping pays an
#: exponentially growing cooling-off.
REPROMOTE_BACKOFF = 2

#: Hard hysteresis stop: after this many re-promotions the vcpu stays
#: degraded for the rest of its life — a flapping source cannot
#: oscillate the machine indefinitely.
MAX_REPROMOTIONS = 3


@dataclass(frozen=True)
class RecoveryCosts:
    """Cycle prices for recovery actions, charged per action.

    Derived from the platform :class:`~repro.metrics.cycles.CostModel`
    by :func:`derive_recovery_costs` — the prices scale with the memory
    costs and the deferred-page geometry instead of being free-standing
    constants, so a recalibrated cost model recalibrates recovery too.
    """

    audit: int  # full walk over the page, one load per slot
    repair: int  # one slot rewrite + verify read + barriers
    replay: int  # journal lookup + repair + verify
    migration: int  # page copy + VNCR reprogram + TLB maintenance
    degrade: int  # evacuate live slots + mode switch + TLB
    repromote: int  # repopulate a fresh page + re-arm VNCR + TLB
    serror_triage: int  # RAS syndrome triage at EL2
    requeue: int  # re-inject one lost virtual interrupt
    rekick: int  # watchdog-driven virtio notification


def derive_recovery_costs(costs, page_size=PAGE_SIZE):
    """Price the recovery ladder from a platform cost model.

    Every term is memory traffic over the deferred access page (8-byte
    slots) plus the barriers/maintenance the operation architecturally
    requires; the fixed instruction counts model the surrounding
    dispatch code.
    """
    slots = page_size // 8  # 8-byte slots across the whole page
    live_slots = deferred_page_size() // 8  # slots the registry uses
    repair = (costs.mem_store + costs.mem_load + 2 * costs.dsb_isb
              + 16 * costs.instr)
    return RecoveryCosts(
        audit=slots * costs.mem_load + costs.dsb_isb,
        repair=repair,
        replay=repair + 2 * costs.mem_load + 12 * costs.instr,
        migration=(slots * (costs.mem_load + costs.mem_store)
                   + costs.sysreg_write + costs.tlb_maintenance),
        degrade=(live_slots * (costs.mem_load + costs.mem_store)
                 + costs.sysreg_write + costs.tlb_maintenance
                 + 2 * costs.dsb_isb + 256 * costs.instr),
        # The mirror image of degrade: every live slot is read back out
        # of the banked contexts and stored into the fresh page, then
        # VNCR_EL2 is reprogrammed and the stage-1 mapping flushed.
        repromote=(live_slots * (costs.mem_load + costs.mem_store)
                   + costs.sysreg_write + costs.tlb_maintenance
                   + 2 * costs.dsb_isb + 192 * costs.instr),
        serror_triage=(16 * costs.cache_miss + 32 * costs.instr
                       + costs.dsb_isb),
        requeue=(4 * (costs.mem_load + costs.mem_store)
                 + 2 * costs.dsb_isb + 80 * costs.instr),
        rekick=(costs.userspace_roundtrip + costs.irq_delivery_wire
                + 100 * costs.instr),
    )


class _PageWindow:
    """One vCPU's tracked page inside a :class:`MachineIntegrityMonitor`:
    the surface a :class:`RecoveryManager` drives (audit / rebase /
    retrack / raw_write / uninstall / installed).

    The reference is keyed by page *offset*, not absolute address, so
    migration is cheap: after the page moves, :meth:`rebase` re-aims the
    window and the reference carries over unchanged.
    """

    def __init__(self, owner, vcpu_id, baddr):
        self.owner = owner
        self.vcpu_id = vcpu_id
        self.baddr = baddr
        self.expected = {}  # page offset -> expected word
        self.tracked = True
        self._snapshot()

    def _snapshot(self):
        self.expected = {}
        for reg in deferred_registers():
            self.expected[reg.vncr_offset] = self.owner.memory.read_word(
                self.baddr + reg.vncr_offset)

    @property
    def installed(self):
        return self.tracked and self.owner.installed

    def raw_write(self, addr, value):
        self.owner.raw_write(addr, value)

    def rebase(self, new_baddr):
        self.baddr = new_baddr

    def retrack(self, new_baddr):
        self.baddr = new_baddr
        self.tracked = True
        self._snapshot()

    def uninstall(self):
        """Degrade drops only this window; the machine-wide wrapper
        stays (other vCPUs' pages are still shadowed)."""
        self.tracked = False

    def audit(self):
        mismatches = []
        for offset in sorted(self.expected):
            actual = self.owner.memory.read_word(self.baddr + offset)
            if actual != self.expected[offset]:
                mismatches.append((offset, self.expected[offset], actual))
        return mismatches


class MachineIntegrityMonitor:
    """Machine-wide page integrity: one ``write_word`` wrapper, one
    tracked window per vCPU's deferred access page.

    Chaining one wrapper per page would break on mid-chain uninstall (a
    degrade would splice the wrong original back); wrapping once and
    dispatching by address keeps install and uninstall
    order-independent, which SMP campaigns need.
    """

    def __init__(self, memory):
        self.memory = memory
        self.windows = {}  # vcpu_id -> _PageWindow
        self._orig_write = None

    @property
    def installed(self):
        return self._orig_write is not None

    def install(self):
        if self.installed:
            raise RuntimeError("machine integrity monitor already installed")
        self._orig_write = self.memory.write_word
        self.memory.write_word = self._tracked_write
        return self

    def uninstall(self):
        if self.installed:
            self.memory.write_word = self._orig_write
            self._orig_write = None

    def track(self, vcpu_id, baddr):
        """Start shadowing one vCPU's page; returns its window facade."""
        window = _PageWindow(self, vcpu_id, baddr)
        self.windows[vcpu_id] = window
        return window

    def _tracked_write(self, addr, value):
        self._orig_write(addr, value)
        for window in self.windows.values():
            if window.tracked and \
                    window.baddr <= addr < window.baddr + PAGE_SIZE:
                window.expected[addr - window.baddr] = \
                    value & 0xFFFFFFFFFFFFFFFF

    def raw_write(self, addr, value):
        """Corruption channel: hits memory without updating any window's
        reference, so ``audit`` sees the divergence."""
        (self._orig_write or self.memory.write_word)(addr, value)

    def audit_all(self):
        """Machine-wide audit: ``{vcpu_id: [(offset, expected, actual)]}``
        over every still-tracked window."""
        return {vcpu_id: window.audit()
                for vcpu_id, window in sorted(self.windows.items())
                if window.tracked}


def _offset_to_reg():
    return {r.vncr_offset: r for r in deferred_registers()}


class RecoveryCoordinator:
    """Cross-CPU recovery ordering for SMP campaigns.

    At most one vCPU's recovery runs at a time (the discrete-event model
    is single-threaded, but the *rule* is what a real SMP host needs and
    the guard makes breaking it visible): while a manager holds the
    recovery lock its page is quarantined, and a deferred access from a
    different physical CPU into that page is recorded as an ordering
    violation.  ``settle_all`` fixes the settlement order to ascending
    vcpu id, and every exclusive section is journalled into
    ``recovery_order`` — which feeds the campaign digest, so the
    determinism tests cover the ordering too.
    """

    def __init__(self, machine):
        self.machine = machine
        self.managers = {}  # vcpu_id -> RecoveryManager
        self.recovery_order = []  # (vcpu_id, action), outermost only
        self.violations = []
        self._active = None

    def register(self, manager):
        self.managers[manager.vcpu.vcpu_id] = manager
        manager.coordinator = self
        return manager

    def install_guards(self):
        """Point every physical CPU's ``recovery_guard`` here."""
        for cpu in self.machine.cpus:
            cpu.recovery_guard = self

    def remove_guards(self):
        for cpu in self.machine.cpus:
            cpu.recovery_guard = None

    # -- the guard hook (called from Cpu._deferred_access) ---------------

    def on_deferred_access(self, cpu, addr):
        """A vCPU mid-recovery must not have its half-repaired page
        observed by another CPU: any deferred access that lands in the
        quarantined window from a different CPU is an ordering bug."""
        active = self._active
        if active is None:
            return
        baddr = active.quarantined_baddr()
        if baddr is None or not (baddr <= addr < baddr + PAGE_SIZE):
            return
        if cpu is not active.vcpu.cpu:
            self.violations.append(
                "cpu%d touched vcpu%d's page at %#x during its recovery"
                % (cpu.cpu_id, active.vcpu.vcpu_id, addr))

    # -- exclusivity ------------------------------------------------------

    @contextmanager
    def exclusive(self, manager, action):
        """Serialise one recovery action.  Re-entrant for the same
        manager (the ladder nests: settle -> resync -> degrade); a
        *different* manager entering mid-recovery is an ordering
        violation, recorded rather than raised so the campaign can
        report it."""
        if self._active is manager:
            yield
            return
        if self._active is not None:
            self.violations.append(
                "vcpu%d began '%s' while vcpu%d was mid-recovery"
                % (manager.vcpu.vcpu_id, action,
                   self._active.vcpu.vcpu_id))
        previous = self._active
        self._active = manager
        self.recovery_order.append((manager.vcpu.vcpu_id, action))
        try:
            yield
        finally:
            self._active = previous

    # -- machine-wide entry points ----------------------------------------

    def on_serror(self, cpu, vcpu):
        """``KvmHypervisor.serror_policy`` for SMP: dispatch to the
        faulting vcpu's own manager under the machine-wide lock."""
        manager = self.managers.get(vcpu.vcpu_id)
        if manager is not None:
            manager.on_serror(cpu, vcpu)

    def settle_all(self):
        """End-of-run settlement in ascending vcpu-id order — the
        deterministic cross-CPU recovery order."""
        for vcpu_id in sorted(self.managers):
            manager = self.managers[vcpu_id]
            manager.settle(manager.vcpu.cpu)

    def repromote_all(self, now=None):
        """Offer re-promotion to every degraded vcpu, in vcpu-id order;
        returns the ids that came back to NEVE."""
        repromoted = []
        for vcpu_id in sorted(self.managers):
            manager = self.managers[vcpu_id]
            if manager.maybe_repromote(manager.vcpu.cpu, now=now):
                repromoted.append(vcpu_id)
        return repromoted


class RecoveryManager:
    """Drives every injected fault on one vcpu to an explicit outcome.

    With a :class:`RecoveryCoordinator` attached (SMP campaigns), every
    mutating ladder action runs inside the machine-wide exclusive
    section; without one (single-vCPU use, unit tests) the manager is
    self-contained and behaves exactly as before.
    """

    def __init__(self, machine, vcpu, monitor, injector, coordinator=None):
        self.machine = machine
        self.vcpu = vcpu
        self.monitor = monitor
        self.injector = injector
        self.costs = derive_recovery_costs(machine.costs)
        self.degraded = False
        self.degrade_reason = None
        # Re-promotion state: when the degradation happened (virtual
        # cycles), how often this vcpu has already flapped back, and why
        # the last re-promotion attempt was refused (for reporting).
        self.degraded_at = None
        self.repromotions = 0
        self.repromote_refused = None
        self.coordinator = None
        injector.corrupt_word = monitor.raw_write
        injector.on_migration = self.on_migration
        if coordinator is not None:
            coordinator.register(self)

    # -- accounting --------------------------------------------------------

    def _charge(self, cycles):
        self.machine.ledger.charge(cycles, "recovery")
        metrics = getattr(self.machine, "metrics", None)
        if metrics is not None:
            metrics.observe_recovery_cycles(cycles)

    def _count(self, event):
        self.machine.recoveries.record(event)
        metrics = getattr(self.machine, "metrics", None)
        if metrics is not None:
            metrics.count_cpu_recovery(self.vcpu.cpu.cpu_id, event)

    def _exclusive(self, action):
        """The machine-wide recovery lock, when coordinated."""
        if self.coordinator is None:
            return _null_context()
        return self.coordinator.exclusive(self, action)

    def quarantined_baddr(self):
        """The page other CPUs must not observe while this manager is
        mid-recovery (None once degraded: the page is gone)."""
        if self.degraded or self.vcpu.neve is None:
            return None
        return self.vcpu.neve.page.baddr

    # -- slot access (page while NEVE lives, banked contexts after) --------

    def _slot_read(self, cpu, reg_name):
        reg = _reg(reg_name)
        if not self.degraded:
            return self.vcpu.neve.page.read_reg(reg_name)
        if reg.reg_class is RegClass.GIC_HYP:
            return self.vcpu.shadow_ich.peek(reg_name)
        if reg.el == 2:
            return self.vcpu.vel2_ctx.peek(reg_name)
        return self.vcpu.vel1_shadow.peek(reg_name)

    def _slot_write(self, cpu, reg_name, value):
        reg = _reg(reg_name)
        if not self.degraded:
            with cpu.host_mode():
                self.vcpu.neve.write_deferred(reg_name, value)
            return
        if reg.reg_class is RegClass.GIC_HYP:
            self.vcpu.shadow_ich.poke(reg_name, value)
        elif reg.el == 2:
            self.vcpu.vel2_ctx.poke(reg_name, value)
        else:
            self.vcpu.vel1_shadow.poke(reg_name, value)

    # -- the recovery paths ------------------------------------------------

    def resync(self, cpu):
        """Audit the page against the reference and repair divergences
        (the VNCR flush/resync a host runs after migration or SError)."""
        if self.degraded:
            return
        with self._exclusive("resync"), \
                cpu_span(cpu, "recovery.resync", kind="recovery"):
            self._charge(self.costs.audit)
            by_offset = _offset_to_reg()
            for offset, expected, _actual in self.monitor.audit():
                reg = by_offset[offset]
                if reg.name in CRITICAL_SLOTS:
                    self.degrade(cpu, "critical slot %s inconsistent"
                                 % reg.name)
                    return
                self._slot_write(cpu, reg.name, expected)
                self._charge(self.costs.repair)
                self._count(RecoveryEvent.SLOT_REPAIR)
            self._count(RecoveryEvent.VNCR_RESYNC)

    def on_migration(self, cpu, event):
        """The VM migrated mid-world-switch: the destination host gives
        the vcpu a fresh deferred access page, the runner copies the
        slots across and reprograms VNCR_EL2, and a resync proves the
        new page consistent before the guest hypervisor touches it."""
        if self.degraded:
            event.resolve("recovered", "migrated-degraded")
            return
        with self._exclusive("migration"), \
                cpu_span(cpu, "recovery.migration", kind="recovery"):
            with cpu.host_mode():
                new_baddr = self.machine.kvm.alloc_vncr_page()
                self.vcpu.neve.relocate(new_baddr)
            self.monitor.rebase(new_baddr)
            self._charge(self.costs.migration)
            self._count(RecoveryEvent.MIGRATION_FLUSH)
            self.resync(cpu)
        event.resolve("degraded" if self.degraded else "recovered",
                      "migrated")

    def on_serror(self, cpu, vcpu):
        """``KvmHypervisor.serror_policy``: triage the SError, resync the
        page, and mark the pending SError events survived."""
        with self._exclusive("serror"), \
                cpu_span(cpu, "recovery.serror_triage", kind="recovery"):
            self._charge(self.costs.serror_triage)
            if not self.degraded:
                self.resync(cpu)
            for event in self.injector.pending():
                if event.fault.fault_class is FaultClass.SERROR:
                    event.resolve("recovered", "triaged")
                    self._count(RecoveryEvent.SERROR_RECOVERED)

    def degrade(self, cpu, reason):
        """Graceful degradation: take NEVE down to ARMv8.3 trap-and-
        emulate.  The page's last state is evacuated into the banked
        software contexts (the GIC shadow interface is already
        authoritative), VNCR_EL2.Enable is cleared, and the vcpu runs on
        without the deferred access page — every vEL2 access traps
        again, which is slow but cannot be silently corrupted.

        Degradation is not terminal: once the fault burst subsides,
        :meth:`maybe_repromote` re-arms NEVE after the cooling-off
        window."""
        if self.degraded:
            return
        with self._exclusive("degrade"), \
                cpu_span(cpu, "recovery.degrade", kind="recovery",
                         reason=reason):
            runner = self.vcpu.neve
            with cpu.host_mode():
                for reg in deferred_registers():
                    value = runner.page.read_reg(reg.name)
                    if reg.reg_class is RegClass.GIC_HYP:
                        continue  # shadow_ich is authoritative
                    if reg.el == 2:
                        self.vcpu.vel2_ctx.poke(reg.name, value)
                    else:
                        self.vcpu.vel1_shadow.poke(reg.name, value)
                runner.disable()
            self.vcpu.neve = None
            if all(v.neve is None for v in self.vcpu.vm.vcpus):
                self.vcpu.vm.nested = "nv"
            self.monitor.uninstall()
            self.degraded = True
            self.degrade_reason = reason
            self.degraded_at = self.machine.ledger.total
            self._charge(self.costs.degrade)
            self._count(RecoveryEvent.NEVE_DEGRADE)
            metrics = getattr(self.machine, "metrics", None)
            if metrics is not None:
                metrics.set_neve_state(cpu.cpu_id, 0)

    # -- re-promotion ------------------------------------------------------

    def cooling_off_required(self):
        """The quiet window this vcpu currently owes before the next
        re-promotion (hysteresis: doubles per flap)."""
        return COOLING_OFF_CYCLES * (REPROMOTE_BACKOFF ** self.repromotions)

    def cooling_off_remaining(self, now=None):
        """Virtual cycles of quiet time still owed (0 = eligible now).
        ``None`` when the vcpu is not degraded or is permanently capped."""
        if not self.degraded:
            return None
        if self.repromotions >= MAX_REPROMOTIONS:
            return None
        if now is None:
            now = self.machine.ledger.total
        quiet_since = max(self.degraded_at or 0,
                          self.injector.last_fired_cycle())
        return max(0, quiet_since + self.cooling_off_required() - now)

    def maybe_repromote(self, cpu, now=None):
        """Re-arm NEVE if the fault burst has cooled off; returns True
        when the vcpu was re-promoted.

        The hysteresis rules, in order: a vcpu past ``MAX_REPROMOTIONS``
        stays degraded forever; otherwise the quiet window (no fault
        firing on this vcpu's injector) must be at least
        ``COOLING_OFF_CYCLES * REPROMOTE_BACKOFF**repromotions`` virtual
        cycles, measured from the degradation or the last firing,
        whichever is later."""
        if not self.degraded:
            return False
        if self.repromotions >= MAX_REPROMOTIONS:
            self.repromote_refused = ("flapping: %d re-promotions spent"
                                      % self.repromotions)
            return False
        remaining = self.cooling_off_remaining(now)
        if remaining:
            self.repromote_refused = ("cooling off: %d cycles remaining"
                                      % remaining)
            return False
        self._repromote(cpu)
        return True

    def _repromote(self, cpu):
        """The actual re-arm: a fresh page from the host's pool,
        repopulated from the banked contexts (which were authoritative
        while degraded), integrity window re-snapshotted, runner
        re-attached.  The next virtual-EL2 entry re-enables VNCR_EL2
        through the normal host workflow."""
        with self._exclusive("repromote"), \
                cpu_span(cpu, "recovery.repromote", kind="recovery",
                         reason=self.degrade_reason):
            dwell = self.machine.ledger.total - (self.degraded_at or 0)
            # Read every slot's current value out of the banked contexts
            # *before* flipping state: _slot_read serves the degraded
            # sources while self.degraded holds.
            values = {reg.name: self._slot_read(cpu, reg.name)
                      for reg in deferred_registers()}
            runner = self.machine.kvm.rearm_neve(self.vcpu)
            with cpu.host_mode():
                for name, value in values.items():
                    runner.write_deferred(name, value)
            self.monitor.retrack(runner.page.baddr)
            self.degraded = False
            self.vcpu.vm.nested = "neve"
            self.repromotions += 1
            self.repromote_refused = None
            runner.fault_hook = self.vcpu.cpu.fault_hook
            self._charge(self.costs.repromote)
            self._count(RecoveryEvent.NEVE_REPROMOTE)
            metrics = getattr(self.machine, "metrics", None)
            if metrics is not None:
                metrics.set_neve_state(cpu.cpu_id, 1)
                metrics.observe_degradation_dwell(dwell)

    # -- end-of-run settlement ---------------------------------------------

    def settle(self, cpu):
        """Resolve every journalled fault that is still pending, then
        prove the page consistent one last time."""
        with self._exclusive("settle"), \
                cpu_span(cpu, "recovery.settle", kind="recovery"):
            for event in list(self.injector.events):
                if event.outcome != "pending":
                    continue
                fc = event.fault.fault_class
                if fc in (FaultClass.SYSREG_BITFLIP,
                          FaultClass.TORN_WRITE,
                          FaultClass.STALE_CACHED_COPY):
                    self._settle_replayable(cpu, event)
                elif fc is FaultClass.PAGE_CORRUPTION:
                    self._settle_corruption(cpu, event)
                elif fc is FaultClass.SERROR:
                    # The SError exit itself recovered it; classify.
                    event.resolve("recovered", "triaged")
                    self._count(RecoveryEvent.SERROR_RECOVERED)
                elif fc is FaultClass.MIGRATION:
                    event.resolve("recovered", "migrated")
                elif fc is FaultClass.DROPPED_LR:
                    # The interrupt the lost list register carried is
                    # re-injected through the normal pending queue.
                    self.vcpu.queue_virq(event.detail["vintid"])
                    self._charge(self.costs.requeue)
                    self._count(RecoveryEvent.LR_REQUEUE)
                    event.resolve("recovered", "requeued")
                # LOST_KICK is settled by the campaign's virtio phase,
                # which owns the queue statistics.
            if not self.degraded:
                self.resync(cpu)

    def _settle_replayable(self, cpu, event):
        """Journal-based repair for faults the monitor cannot see (the
        corrupt value arrived through a tracked write, so the reference
        copy matches it): compare the slot against the journal."""
        reg_name = event.detail["reg"]
        intended = event.detail["intended"]
        observed = event.detail["observed"]
        current = self._slot_read(cpu, reg_name)
        if current != observed:
            # Later correct state already overwrote the damage.
            event.resolve("recovered", "superseded")
            return
        failures_left = event.detail.get("replay_failures", 0)
        for _attempt in range(MAX_REPLAY_TRIES):
            self._charge(self.costs.replay)
            self._count(RecoveryEvent.REPLAY)
            if failures_left > 0:
                failures_left -= 1
                continue  # this replay attempt itself failed
            self._slot_write(cpu, reg_name, intended)
            if self._slot_read(cpu, reg_name) == intended:
                self._count(RecoveryEvent.SLOT_REPAIR)
                event.resolve("recovered", "replayed")
                return
        self.degrade(cpu, "replay exhausted for %s" % reg_name)
        event.resolve("degraded", "replay-exhausted")

    def _settle_corruption(self, cpu, event):
        reg_name = event.detail["reg"]
        expected = event.detail["expected"]
        observed = event.detail["observed"]
        current = self._slot_read(cpu, reg_name)
        if current != observed:
            event.resolve("recovered", "superseded")
            return
        if event.detail.get("critical"):
            if not self.degraded:
                self.degrade(cpu, "critical slot %s corrupted" % reg_name)
            event.resolve("degraded", "critical-corruption")
            return
        self._slot_write(cpu, reg_name, expected)
        self._charge(self.costs.repair)
        self._count(RecoveryEvent.SLOT_REPAIR)
        event.resolve("recovered", "repaired")


@contextmanager
def _null_context():
    yield


def _reg(name):
    from repro.arch.registers import lookup_register
    return lookup_register(name)
