"""Trap, exit and recovery counters.

The paper's Table 7 reports "the average number of traps to the host
hypervisor" per microbenchmark iteration.  :class:`TrapCounter` records each
transition into the host hypervisor (L0) together with the reason, so the
table — and the exit-multiplication analysis in Sections 5 and 7.1 — can be
regenerated from the same run that produced the cycle counts.

:class:`RecoveryCounter` is the same idea for the fault-injection
subsystem (:mod:`repro.faults`): every recovery action the hypervisor
takes in response to an injected fault — a VNCR resync, a journal replay,
a degradation to trap-and-emulate — is recorded with a
:class:`RecoveryEvent` reason so campaigns can report per-class outcomes.
"""

import enum
from dataclasses import dataclass, field


class ExitReason(enum.Enum):
    """Why control transferred to the host hypervisor."""

    HVC = "hvc"  # hypercall instruction
    SYSREG_TRAP = "sysreg"  # trapped system register access
    ERET_TRAP = "eret"  # trapped eret from virtual EL2
    MEM_ABORT = "mem_abort"  # stage-2 fault / MMIO emulation
    WFI = "wfi"
    FP_TRAP = "fp"  # lazy FP/SIMD switch (CPTR_EL2)
    IRQ = "irq"  # physical interrupt while guest running
    GIC_TRAP = "gic"  # hypervisor-control-interface access
    TIMER_TRAP = "timer"
    TLBI_TRAP = "tlbi"  # TLB maintenance from virtual EL2
    SMC = "smc"
    VMCALL = "vmcall"  # x86 hypercall
    VMREAD = "vmread"  # x86 non-shadowed VMCS read in non-root
    VMWRITE = "vmwrite"
    VMRESUME = "vmresume"  # x86 guest hypervisor VM entry attempt
    EPT_VIOLATION = "ept"
    MSR_ACCESS = "msr"
    APIC_ACCESS = "apic"
    EXTERNAL_INTERRUPT = "extint"
    SERROR = "serror"  # system error (async external abort) routed to EL2


@dataclass
class TrapCounter:
    """Counts traps to the host hypervisor, by :class:`ExitReason`.

    :class:`repro.metrics.instrument.MachineMetrics` mirrors
    ``by_reason`` into the registry by reading it when the registry is
    read; recording a trap calls nothing.
    """

    total: int = 0
    by_reason: dict = field(default_factory=dict)

    def record(self, reason):
        if not isinstance(reason, ExitReason):
            raise TypeError("reason must be an ExitReason, got %r" % (reason,))
        self.total += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    def count(self, reason):
        return self.by_reason.get(reason, 0)

    def snapshot(self):
        return self.total, dict(self.by_reason)

    def since(self, snapshot):
        total_then, _ = snapshot
        return self.total - total_then

    def delta_by_reason(self, snapshot):
        """Per-reason trap counts accumulated since *snapshot*."""
        _, then = snapshot
        out = {}
        for reason, now_count in self.by_reason.items():
            delta = now_count - then.get(reason, 0)
            if delta:
                out[reason] = delta
        return out

    def reset(self):
        self.total = 0
        self.by_reason.clear()


class RecoveryEvent(enum.Enum):
    """Which recovery action the hypervisor took (see repro.faults)."""

    SERROR_RECOVERED = "serror_recovered"  # spurious SError absorbed
    VNCR_RESYNC = "vncr_resync"  # full deferred-page audit + flush
    SLOT_REPAIR = "slot_repair"  # one divergent page slot rewritten
    REPLAY = "replay"  # journal replay attempt of a lost/torn write
    MIGRATION_FLUSH = "migration_flush"  # page relocated + resynced
    LR_REQUEUE = "lr_requeue"  # dropped list register re-queued
    VIRTIO_REKICK = "virtio_rekick"  # lost notification re-kicked
    NEVE_DEGRADE = "neve_degrade"  # NEVE taken down to trap-and-emulate
    NEVE_REPROMOTE = "neve_repromote"  # page re-armed after cooling off


@dataclass
class RecoveryCounter:
    """Counts recovery actions, by :class:`RecoveryEvent`.

    Mirrored into the registry like :class:`TrapCounter`: ``by_event``
    is read when the registry is read.
    """

    total: int = 0
    by_event: dict = field(default_factory=dict)

    def record(self, event):
        if not isinstance(event, RecoveryEvent):
            raise TypeError("event must be a RecoveryEvent, got %r"
                            % (event,))
        self.total += 1
        self.by_event[event] = self.by_event.get(event, 0) + 1

    def count(self, event):
        return self.by_event.get(event, 0)

    def snapshot(self):
        return self.total, dict(self.by_event)

    def as_dict(self):
        """Stable name-keyed view (for reports and digests)."""
        return {event.value: count
                for event, count in sorted(self.by_event.items(),
                                           key=lambda item: item[0].value)}

    def reset(self):
        self.total = 0
        self.by_event.clear()
