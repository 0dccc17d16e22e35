"""The fault injector: named points threaded through the hot layers.

``FaultInjector`` implements the hook protocol the runtime layers call
into (``Cpu.fault_hook``, ``NeveRunner.fault_hook``, the world-switch
``fault_point``s, ``VirtioQueue.fault_hook``).  Each hook names an
injection point; the injector counts how often the point is hit and
fires the planned fault whose trigger matches the count.  Every firing
appends a :class:`FaultEvent` carrying enough detail (register, true
value, observed value) for the recovery layer to audit and repair —
the journal is what makes "never silent" checkable.

Points:

==================  ====================================================
``cpu.msr``         system-register write from virtual EL2 (bit-flip)
``cpu.mrs``         system-register read from virtual EL2 (bit-flip)
``cpu.serror``      after a guest sysreg access (spurious SError)
``vncr.store``      deferred store to the page (torn write)
``vncr.page``       any deferred access (background slot corruption)
``neve.cached-copy``  host refresh of a cached copy (dropped → stale)
``ws.after-save``   world switch, EL1 state just saved (migration)
``ws.before-restore``  world switch, about to restore (migration)
``ws.vgic-lr``      vGIC list-register save (dropped LR)
``virtio.kick``     virtio notification attempt (lost kick)
==================  ====================================================
"""

from dataclasses import dataclass, field

from repro.arch.gic import ListRegister
from repro.faults.plan import SAFE_FLIP_REGS, FaultClass

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class FaultEvent:
    """One fired fault, journalled for the recovery layer."""

    fault: object  # the PlannedFault that fired
    point: str
    seq: int  # firing order within the campaign
    detail: dict = field(default_factory=dict)
    outcome: str = "pending"  # pending | recovered | degraded | repromoted
    recovery: str = ""  # how it was resolved (replayed, superseded, ...)
    at_cycle: int = None  # virtual time of the firing (when clock is set)

    def resolve(self, outcome, recovery):
        self.outcome = outcome
        self.recovery = recovery


class FaultInjector:
    """Arms a :class:`~repro.faults.plan.FaultPlan` at the named points."""

    def __init__(self, plan):
        self.plan = plan
        self.armed = plan.by_point()
        self.hits = {}  # point -> times reached
        self.events = []  # FaultEvent, in firing order
        # The recovery layer supplies these: a raw page write that
        # bypasses the integrity monitor (so corruption is *detectable*)
        # and a callback that performs the simulated migration.
        self.corrupt_word = None
        self.on_migration = None
        # Observers (repro.trace.spans.Observer): a campaign shares its
        # machine's list here, so a tracer records every fired fault as
        # an annotated instant and recovery ladders in the causal tree
        # show which injected fault they answer.
        self.observers = []
        # Optional virtual-time source (the campaign points it at the
        # machine's cycle ledger).  When set, every fired fault is
        # stamped with the cycle it fired at — the re-promotion path's
        # cooling-off window measures quiet time from the last stamp.
        self.clock = None

    # -- bookkeeping -------------------------------------------------------

    def _hit(self, point):
        """Count a hit; return the planned fault firing now, if any."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        return self.armed.get(point, {}).get(count)

    def _fire(self, fault, detail):
        event = FaultEvent(fault=fault, point=fault.point,
                           seq=len(self.events), detail=detail,
                           at_cycle=(self.clock() if self.clock is not None
                                     else None))
        self.events.append(event)
        if self.observers:
            name = "fault:%s@%s" % (fault.fault_class.value, fault.point)
            annotated = {"point": fault.point, "seq": event.seq,
                         "fault_class": fault.fault_class}
            annotated.update(detail)
            for observer in self.observers:
                observer.fault(name, annotated)
        return event

    def pending(self):
        return [e for e in self.events if e.outcome == "pending"]

    def last_fired_cycle(self):
        """Virtual time of the most recent firing (0 when nothing fired
        or no clock was attached) — the re-promotion hysteresis measures
        its cooling-off window from here."""
        stamps = [e.at_cycle for e in self.events if e.at_cycle is not None]
        return max(stamps) if stamps else 0

    # -- Cpu hooks ---------------------------------------------------------

    def filter_sysreg_write(self, cpu, reg, value):
        """Point ``cpu.msr``: flip one bit of an in-flight write."""
        if not cpu.at_virtual_el2 or reg.name not in SAFE_FLIP_REGS:
            return value
        fault = self._hit("cpu.msr")
        if fault is None or fault.fault_class is not FaultClass.SYSREG_BITFLIP:
            return value
        flipped = (value ^ (1 << fault.params["bit"])) & _WORD_MASK
        self._fire(fault, {"reg": reg.name, "intended": value,
                           "observed": flipped})
        return flipped

    def filter_sysreg_read(self, cpu, reg, value):
        """Point ``cpu.mrs``: flip one bit of a completed read."""
        if not cpu.at_virtual_el2 or reg.name not in SAFE_FLIP_REGS:
            return value
        fault = self._hit("cpu.mrs")
        if fault is None or fault.fault_class is not FaultClass.SYSREG_BITFLIP:
            return value
        flipped = (value ^ (1 << fault.params["bit"])) & _WORD_MASK
        self._fire(fault, {"reg": reg.name, "intended": value,
                           "observed": flipped})
        return flipped

    def serror_pending(self, cpu):
        """Point ``cpu.serror``: raise a spurious SError after a guest
        access (never while the host handler runs — SErrors are masked
        at EL2 until ERET, as PSTATE.A would have it)."""
        if not cpu.at_virtual_el2 or cpu._in_host_handler:
            return False
        fault = self._hit("cpu.serror")
        if fault is None or fault.fault_class is not FaultClass.SERROR:
            return False
        self._fire(fault, {"el": int(cpu.current_el)})
        return True

    def on_deferred_access(self, cpu, reg, is_write):
        """Point ``vncr.page``: background corruption of a page slot,
        timed to a deferred access (a DMA scribble or bit rot would be
        asynchronous; pinning it to an access keeps the sim deterministic
        while still being invisible to the accessor)."""
        fault = self._hit("vncr.page")
        if fault is None or fault.fault_class is not FaultClass.PAGE_CORRUPTION:
            return
        victim = fault.params["victim"]
        from repro.core.vncr import deferred_offset
        addr = cpu.vncr_baddr + deferred_offset(victim)
        expected = cpu.memory.read_word(addr)
        garbage = fault.params["garbage"] & _WORD_MASK
        if garbage == expected:
            garbage ^= 1  # ensure the slot actually changes
        if self.corrupt_word is not None:
            self.corrupt_word(addr, garbage)
        else:
            cpu.memory.write_word(addr, garbage)
        self._fire(fault, {"reg": victim, "expected": expected,
                           "observed": garbage,
                           "critical": fault.params["critical"],
                           "baddr": cpu.vncr_baddr})

    def filter_deferred_store(self, cpu, reg, addr, value):
        """Point ``vncr.store``: tear the store — only the low half of
        the doubleword reaches the page."""
        fault = self._hit("vncr.store")
        if fault is None or fault.fault_class is not FaultClass.TORN_WRITE:
            return value
        old = cpu.memory.read_word(addr)
        torn = (old & 0xFFFFFFFF00000000) | (value & 0xFFFFFFFF)
        self._fire(fault, {"reg": reg.name, "intended": value,
                           "observed": torn,
                           "replay_failures": fault.params.get(
                               "replay_failures", 0),
                           "baddr": cpu.vncr_baddr})
        return torn

    # -- NeveRunner hook ---------------------------------------------------

    def drop_cached_copy(self, runner, reg_name, value):
        """Point ``neve.cached-copy``: the host's refresh of a cached
        copy never reaches the page, leaving the guest hypervisor
        reading a stale value."""
        fault = self._hit("neve.cached-copy")
        if fault is None \
                or fault.fault_class is not FaultClass.STALE_CACHED_COPY:
            return False
        stale = runner.page.read_reg(reg_name)
        self._fire(fault, {"reg": reg_name, "intended": value,
                           "observed": stale,
                           "replay_failures": fault.params.get(
                               "replay_failures", 0)})
        return True

    # -- world-switch hooks --------------------------------------------------

    def at_point(self, cpu, name):
        """Points ``ws.after-save`` / ``ws.before-restore``: the VM is
        migrated between saving and restoring state."""
        fault = self._hit(name)
        if fault is None or fault.fault_class is not FaultClass.MIGRATION:
            return
        event = self._fire(fault, {"at": name})
        if self.on_migration is not None:
            self.on_migration(cpu, event)

    def filter_lr_save(self, cpu, name, value):
        """Point ``ws.vgic-lr``: a live list register is lost during the
        vGIC save (returns the value that actually gets saved)."""
        fault = self._hit("ws.vgic-lr")
        if fault is None or fault.fault_class is not FaultClass.DROPPED_LR:
            return value
        lr = ListRegister.decode(value)
        self._fire(fault, {"lr": name, "value": value, "vintid": lr.vintid})
        return 0

    # -- virtio hook ---------------------------------------------------------

    def drop_kick(self, queue, t):
        """Point ``virtio.kick``: the frontend's notification is lost."""
        fault = self._hit("virtio.kick")
        if fault is None or fault.fault_class is not FaultClass.LOST_KICK:
            return False
        self._fire(fault, {"t": t})
        return True
