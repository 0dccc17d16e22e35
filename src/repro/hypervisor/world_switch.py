"""KVM/ARM world-switch flows.

These functions model the register-access sequences mainline KVM/ARM
executes when switching between a VM and the hypervisor.  They are the
load-bearing part of the reproduction: run natively at EL2 they only cost
cycles, but run at virtual EL2 every access obeys the ARMv8.3/NEVE rules
and the paper's exit multiplication (Table 7) *emerges* from them.

The flows are written once and parameterized by a
:class:`repro.arch.cpu.CpuOps` adapter, mirroring how the one KVM/ARM
source tree builds for non-VHE (split EL1/EL2) and VHE (all-EL2)
configurations (Section 6.5 discusses exactly these design variants).

The fixed register sequences (EL1 context save/restore, the exit
context, trap (de)activation and the timers) are written as *programs*:
``(register, accessor, op)`` steps in the order KVM issues them.  The
accessor is the ``CpuOps`` family the access goes through (``"hyp"``,
``"vm"``, ``"vm_el0"``, or ``"raw"`` for a plain ``cpu.mrs``/``msr``),
the op one of :mod:`repro.arch.cpu`'s ``BLOCK_*`` operations.  A guest
hypervisor at virtual EL2 runs a program one access at a time, so each
access traps, defers or goes direct by the architecture rules.  L0 at
real EL2 runs it as one compiled block: one bulk register move and one
summed charge per category.  Both read the same program.
"""

from repro.arch.cpu import (
    BLOCK_READ as READ,
    BLOCK_RESTORE as RESTORE,
    BLOCK_SAVE as SAVE,
    BLOCK_WRITE as WRITE,
    CpuOps,
)
from repro.trace.spans import cpu_span

# HCR_EL2 bits (the subset the model uses; values follow the ARM ARM).
HCR_VM = 1 << 0
HCR_FMO = 1 << 3
HCR_IMO = 1 << 4
HCR_VI = 1 << 7
HCR_TWI = 1 << 13
HCR_TWE = 1 << 14
HCR_TGE = 1 << 27
HCR_E2H = 1 << 34
HCR_NV = 1 << 42

#: KVM's guest HCR value (trap WFI/WFE, route IRQs to EL2, stage 2 on).
HCR_GUEST_FLAGS = HCR_VM | HCR_IMO | HCR_FMO | HCR_TWI | HCR_TWE
#: Host value restored on exit (non-VHE hosts run with TGE clear but no VM).
HCR_HOST_FLAGS = 0

#: The EL1 context KVM saves and restores per world switch
#: (__sysreg_save_el1_state plus exception state; 20 registers).
EL1_STATE = (
    "SCTLR_EL1",
    "TTBR0_EL1",
    "TTBR1_EL1",
    "TCR_EL1",
    "ESR_EL1",
    "AFSR0_EL1",
    "AFSR1_EL1",
    "FAR_EL1",
    "MAIR_EL1",
    "VBAR_EL1",
    "CONTEXTIDR_EL1",
    "AMAIR_EL1",
    "CNTKCTL_EL1",
    "PAR_EL1",
    "CSSELR_EL1",
    "CPACR_EL1",
    "TPIDR_EL1",
    "SP_EL1",
    "ELR_EL1",
    "SPSR_EL1",
)

#: EL0 (user) context, saved on every switch by a non-VHE hypervisor.
EL0_STATE = ("TPIDR_EL0", "TPIDRRO_EL0", "SP_EL0")

#: Debug state: MDSCR_EL1 travels with the guest context.
DEBUG_STATE = ("MDSCR_EL1",)

#: Number of general-purpose registers stacked on hyp entry/exit.
NR_GPRS = 31

#: GIC maintenance/control state beyond the list registers.
ICH_AP_REGS = ("ICH_AP0R0_EL2", "ICH_AP1R0_EL2")


def full_el1_context():
    return EL1_STATE + EL0_STATE + DEBUG_STATE


def fault_point(cpu, name):
    """Notify an attached fault injector that a named world-switch
    boundary was crossed (no-op when no injector is attached).

    The two interesting boundaries are *after* the EL1 context save and
    *before* the restore: a preemption or migration landing between them
    catches the vcpu state split across hardware and memory — exactly
    where VNCR/deferred-page consistency must be re-established."""
    hook = cpu.fault_hook
    if hook is not None:
        hook.at_point(cpu, name)


def _filter_lr(cpu, name, value):
    """Give an attached fault injector the chance to drop one list
    register on the save path (a lost in-flight virtual interrupt)."""
    hook = cpu.fault_hook
    if hook is not None and value:
        return hook.filter_lr_save(cpu, name, value)
    return value


def _run(ops, key, ctx=None, values=(), program=None):
    """Run one register program; returns its plain reads' values.

    *key* is the program itself, or a value naming it from which
    ``program(key)`` builds the steps.  At real EL2 the CPU runs the
    compiled block for (``ops.vhe``, *key*); otherwise, or when the
    compiler rejects the block, every step runs per access.  *ctx* is
    the vcpu struct of the save/restore steps; *values* feed the writes.
    """
    cpu = ops.cpu
    if cpu.block_eligible():
        block = cpu.register_block((ops.vhe, key),
                                   lambda: _steps(ops, key, program))
        if block is not None:
            return cpu.run_block(block, ctx, values)
    return _per_access(cpu, _steps(ops, key, program), ctx, values)


def _steps(ops, key, program):
    """A program's steps as ``(register, encoding, op)``, resolved for
    this hypervisor flavour exactly as its accessors would issue them."""
    return tuple(ops.alias(name, accessor) + (op,)
                 for name, accessor, op in (key if program is None
                                            else program(key)))


def _per_access(cpu, steps, ctx, values):
    """The reference path: one ``mrs``/``msr`` (and vcpu-struct load or
    store) per step, in program order."""
    out = []
    values = iter(values)
    for name, enc, op in steps:
        if op == READ:
            out.append(cpu.mrs(name, enc))
        elif op == WRITE:
            cpu.msr(name, next(values), enc)
        elif op == SAVE:
            ctx.save(name, cpu.mrs(name, enc))
        else:
            cpu.msr(name, ctx.load(name), enc)
    return out


# ---------------------------------------------------------------------------
# EL1/EL0 context
# ---------------------------------------------------------------------------

def _el1_program(key):
    """save/restore_el1_state's program for ``(op, EL1_STATE,
    DEBUG_STATE, EL0_STATE)``.  EL0 user state has no ``*_EL02`` aliases
    (only the timers are E2H-redirected); both hypervisor flavours use
    the plain EL0 encodings, which never trap from virtual EL2."""
    op, el1_state, debug_state, el0_state = key
    return (tuple((name, "vm", op) for name in el1_state + debug_state)
            + tuple((name, "raw", op) for name in el0_state))


def save_el1_state(ops, ctx):
    """Read the loaded VM EL1/EL0 context into a vcpu struct.

    For a VHE hypervisor these reads use the ``*_EL12``/``*_EL02``
    aliases; for a non-VHE hypervisor they are plain EL1 accesses.  At
    virtual EL2 both variants trap on ARMv8.3 and are deferred to memory
    by NEVE (Table 3).
    """
    with cpu_span(ops.cpu, "ws.save_el1_state"):
        _run(ops, (SAVE, EL1_STATE, DEBUG_STATE, EL0_STATE), ctx,
             program=_el1_program)
    fault_point(ops.cpu, "ws.after-save")


def restore_el1_state(ops, ctx):
    fault_point(ops.cpu, "ws.before-restore")
    with cpu_span(ops.cpu, "ws.restore_el1_state"):
        _run(ops, (RESTORE, EL1_STATE, DEBUG_STATE, EL0_STATE), ctx,
             program=_el1_program)


# ---------------------------------------------------------------------------
# Exception context and returns
# ---------------------------------------------------------------------------

#: The exception context read on every hypervisor entry, keyed as
#: read_exit_context returns it.
_EXIT_CONTEXT = (
    ("ESR_EL2", "hyp", READ),
    ("ELR_EL2", "hyp", READ),
    ("SPSR_EL2", "hyp", READ),
    ("TPIDR_EL2", "raw", READ),  # per-cpu pointer
    ("HCR_EL2", "raw", READ),  # pending-vSError check
)
_ABORT_CONTEXT = _EXIT_CONTEXT + (
    ("FAR_EL2", "hyp", READ),
    ("HPFAR_EL2", "hyp", READ),
)
_EXIT_CONTEXT_KEYS = ("esr", "elr", "spsr", "percpu", "hcr", "far", "hpfar")


def read_exit_context(ops, is_abort=False):
    """Read the exception syndrome on hypervisor entry.

    ESR/ELR/SPSR always; FAR and HPFAR additionally for aborts
    (the Device I/O benchmark's two extra traps relative to Hypercall).
    The per-cpu pointer (TPIDR_EL2) and the HCR (pending-vSError check)
    are also read on every entry; under NEVE both are deferred.
    """
    with cpu_span(ops.cpu, "ws.read_exit_context", is_abort=is_abort):
        values = _run(ops, _ABORT_CONTEXT if is_abort else _EXIT_CONTEXT)
        return dict(zip(_EXIT_CONTEXT_KEYS, values))


def prepare_exception_return(ops, elr, spsr):
    """Program the return state and issue ``eret``."""
    ops.write_hyp("ELR_EL2", elr)
    ops.write_hyp("SPSR_EL2", spsr)
    ops.cpu.barrier()
    ops.cpu.eret()


# ---------------------------------------------------------------------------
# Trap configuration
# ---------------------------------------------------------------------------

#: KVM's __activate_traps + __activate_vm; the writes' values are
#: listed where activate_traps supplies them.
_ACTIVATE_TRAPS = (
    ("HCR_EL2", "raw", READ),  # read-modify-write of the VSE/VI bits
    ("HCR_EL2", "hyp", WRITE),
    ("CPTR_EL2", "hyp", WRITE),
    ("MDCR_EL2", "hyp", WRITE),
    ("HSTR_EL2", "hyp", WRITE),
    ("VTTBR_EL2", "hyp", WRITE),
    ("VTCR_EL2", "hyp", WRITE),
    ("VMPIDR_EL2", "raw", WRITE),
    ("VPIDR_EL2", "raw", WRITE),
    ("TPIDR_EL2", "raw", WRITE),
)

_DEACTIVATE_TRAPS = (
    ("HCR_EL2", "raw", READ),
    ("VTTBR_EL2", "raw", READ),  # which VM was loaded (vmid bookkeeping)
    ("HCR_EL2", "hyp", WRITE),
    ("CPTR_EL2", "hyp", WRITE),
    ("MDCR_EL2", "hyp", WRITE),
    ("VTTBR_EL2", "hyp", WRITE),
)


def activate_traps(ops, vhe, vttbr, guest_hcr=HCR_GUEST_FLAGS):
    """Configure the hardware to run a VM (KVM's __activate_traps +
    __activate_vm): trap controls, stage-2 base, virtual CPU identity and
    the per-vcpu pointer."""
    with cpu_span(ops.cpu, "ws.activate_traps"):
        _run(ops, _ACTIVATE_TRAPS, values=(
            guest_hcr,
            1,  # CPTR_EL2: trap FP/SIMD until first use
            1,  # MDCR_EL2: trap debug
            0,  # HSTR_EL2
            vttbr,
            1,  # VTCR_EL2
            0x8000_0000,  # VMPIDR_EL2: virtual MPIDR for the vcpu
            0x410F_D070,  # VPIDR_EL2
            0x1000,  # TPIDR_EL2: per-vcpu context pointer
        ))
        ops.cpu.barrier()


def deactivate_traps(ops, vhe, host_hcr=HCR_HOST_FLAGS):
    """Undo trap configuration on the way back to the host."""
    with cpu_span(ops.cpu, "ws.deactivate_traps"):
        hcr = host_hcr | (HCR_E2H if vhe else 0)
        _run(ops, _DEACTIVATE_TRAPS, values=(hcr, 0, 0, 0))
        ops.cpu.barrier()


# ---------------------------------------------------------------------------
# vGIC (GICv3 system-register interface)
# ---------------------------------------------------------------------------

def _note_lrs(cpu, used_lrs):
    """Telemetry: list registers in flight at this save/restore."""
    metrics = getattr(cpu, "metrics", None)
    if metrics is not None:
        metrics.set_used_lrs(cpu.cpu_id, used_lrs)


def vgic_save(ops, ctx, used_lrs):
    """Save the GIC virtual interface state (vgic-v3-sr.c save path)."""
    _note_lrs(ops.cpu, used_lrs)
    with cpu_span(ops.cpu, "ws.vgic_save", used_lrs=used_lrs):
        ops.cpu.mrs("ICH_VTR_EL2")  # implementation query (cached: free)
        ops.cpu.mrs("ICH_HCR_EL2")  # current enable/maintenance bits
        ctx.save("ICH_VMCR_EL2", ops.read_hyp("ICH_VMCR_EL2"))
        if used_lrs:
            ctx.save("ICH_ELRSR_EL2", ops.read_hyp("ICH_ELRSR_EL2"))
            for index in range(used_lrs):
                name = "ICH_LR%d_EL2" % index
                ctx.save(name,
                         _filter_lr(ops.cpu, name, ops.read_hyp(name)))
                ops.write_hyp(name, 0)
            for name in ICH_AP_REGS:
                ctx.save(name, ops.read_hyp(name))
        ops.write_hyp("ICH_HCR_EL2", 0)


def vgic_restore(ops, ctx, used_lrs):
    """Restore the GIC virtual interface state before entering a VM."""
    _note_lrs(ops.cpu, used_lrs)
    with cpu_span(ops.cpu, "ws.vgic_restore", used_lrs=used_lrs):
        ops.cpu.mrs("ICH_HCR_EL2")
        ops.write_hyp("ICH_VMCR_EL2", ctx.load("ICH_VMCR_EL2"))
        ops.write_hyp("ICH_HCR_EL2", 1)  # En
        for index in range(used_lrs):
            name = "ICH_LR%d_EL2" % index
            ops.write_hyp(name, ctx.load(name))
        if used_lrs:
            for name in ICH_AP_REGS:
                ops.write_hyp(name, ctx.load(name))


def vgic_save_v2(cpu, ctx, used_lrs, gich_base):
    """GICv2 guest-hypervisor variant: the hypervisor control interface
    is a memory-mapped GICH frame, so every access is an ordinary load or
    store that stage-2 aborts to the host hypervisor when the frame is
    left unmapped (Section 4) — no paravirtualization required, and NEVE
    does not change the trap count for this path."""
    from repro.arch.gic import gich_reg_to_offset

    def off(name):
        return gich_base + gich_reg_to_offset(name)

    _note_lrs(cpu, used_lrs)
    with cpu_span(cpu, "ws.vgic_save_v2", used_lrs=used_lrs):
        cpu.mmio_read(off("ICH_VTR_EL2"))
        cpu.mmio_read(off("ICH_HCR_EL2"))
        ctx.save("ICH_VMCR_EL2", cpu.mmio_read(off("ICH_VMCR_EL2")))
        if used_lrs:
            cpu.mmio_read(off("ICH_ELRSR_EL2"))
            for index in range(used_lrs):
                name = "ICH_LR%d_EL2" % index
                ctx.save(name, cpu.mmio_read(off(name)))
                cpu.mmio_write(off(name), 0)
            ctx.save("ICH_AP0R0_EL2", cpu.mmio_read(off("ICH_AP0R0_EL2")))
        cpu.mmio_write(off("ICH_HCR_EL2"), 0)


def vgic_restore_v2(cpu, ctx, used_lrs, gich_base):
    from repro.arch.gic import gich_reg_to_offset

    def off(name):
        return gich_base + gich_reg_to_offset(name)

    _note_lrs(cpu, used_lrs)
    with cpu_span(cpu, "ws.vgic_restore_v2", used_lrs=used_lrs):
        cpu.mmio_read(off("ICH_HCR_EL2"))
        cpu.mmio_write(off("ICH_VMCR_EL2"), ctx.load("ICH_VMCR_EL2"))
        cpu.mmio_write(off("ICH_HCR_EL2"), 1)
        for index in range(used_lrs):
            name = "ICH_LR%d_EL2" % index
            cpu.mmio_write(off(name), ctx.load(name))
        if used_lrs:
            cpu.mmio_write(off("ICH_AP0R0_EL2"),
                           ctx.load("ICH_AP0R0_EL2"))


def vgic_save_mmio(cpu, ctx, used_lrs):
    """GICv2 variant: the hypervisor interface is memory mapped, so every
    access pays a device-memory round trip instead of an MSR/MRS.  Used by
    the L0 host hypervisor on the paper's GICv2 testbed; the extra cost is
    a large part of why ARM exits cost ~2,700 cycles."""
    with cpu_span(cpu, "ws.vgic_save_mmio", used_lrs=used_lrs):
        accesses = 2 + (1 + used_lrs + len(ICH_AP_REGS) if used_lrs else 0)
        cpu.ledger.charge(accesses * cpu.costs.vgic_mmio_access, "vgic_mmio")
        ctx.save("ICH_VMCR_EL2", cpu.el2_regs.read("ICH_VMCR_EL2"))
        for index in range(used_lrs):
            name = "ICH_LR%d_EL2" % index
            ctx.save(name, _filter_lr(cpu, name, cpu.el2_regs.read(name)))
            cpu.el2_regs.write(name, 0)  # lint: allow(sim-sysreg-bypass)
        cpu.el2_regs.write("ICH_HCR_EL2", 0)  # lint: allow(sim-sysreg-bypass)
        if cpu.gic is not None:
            cpu.gic.sync_status(cpu)


def vgic_restore_mmio(cpu, ctx, used_lrs):
    with cpu_span(cpu, "ws.vgic_restore_mmio", used_lrs=used_lrs):
        accesses = 2 + used_lrs + (len(ICH_AP_REGS) if used_lrs else 0)
        cpu.ledger.charge(accesses * cpu.costs.vgic_mmio_access, "vgic_mmio")
        cpu.el2_regs.write("ICH_VMCR_EL2", ctx.load("ICH_VMCR_EL2"))  # lint: allow(sim-sysreg-bypass)
        cpu.el2_regs.write("ICH_HCR_EL2", 1)  # lint: allow(sim-sysreg-bypass)
        for index in range(used_lrs):
            name = "ICH_LR%d_EL2" % index
            cpu.el2_regs.write(name, ctx.load(name))  # lint: allow(sim-sysreg-bypass)
        if cpu.gic is not None:
            cpu.gic.sync_status(cpu)


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------

_TIMER_SAVE = (
    ("CNTV_CTL_EL0", "vm_el0", SAVE),
    ("CNTV_CVAL_EL0", "vm_el0", SAVE),
    ("CNTV_CTL_EL0", "vm_el0", WRITE),  # 0: mask while the VM is out
    ("CNTHCTL_EL2", "raw", READ),  # read-modify-write (cached copy: free)
    ("CNTHCTL_EL2", "hyp", WRITE),  # 3: host EL1 counter/timer access on
)
#: The VHE hypervisor also runs its own EL2 virtual timer, reached
#: through the EL0 encodings thanks to E2H redirection: no trap.
_TIMER_SAVE_VHE = _TIMER_SAVE + (("CNTV_CTL_EL0", "raw", READ),)

_TIMER_RESTORE = (
    ("CNTVOFF_EL2", "raw", READ),  # compare against the VM's offset
    ("CNTVOFF_EL2", "hyp", WRITE),  # 0x1000
    ("CNTHCTL_EL2", "raw", READ),
    ("CNTHCTL_EL2", "hyp", WRITE),  # 0: guest traps EL1 physical timer
    ("CNTV_CVAL_EL0", "vm_el0", RESTORE),
    ("CNTV_CTL_EL0", "vm_el0", RESTORE),
)
_TIMER_RESTORE_VHE = _TIMER_RESTORE + (("CNTV_CTL_EL0", "raw", WRITE),)


def timer_save(ops, ctx, vhe):
    """Save the VM's EL1 virtual timer and give the host the hardware.

    The VM timer accesses are EL0-encoded for a non-VHE hypervisor and
    EL02-encoded for a VHE hypervisor — the latter *always* trap at
    virtual EL2, even with NEVE (Section 7.1).
    """
    with cpu_span(ops.cpu, "ws.timer_save"):
        _run(ops, _TIMER_SAVE_VHE if vhe else _TIMER_SAVE, ctx,
             values=(0, 3))


def timer_restore(ops, ctx, vhe):
    with cpu_span(ops.cpu, "ws.timer_restore"):
        if vhe:
            _run(ops, _TIMER_RESTORE_VHE, ctx, values=(0x1000, 0, 1))
        else:
            _run(ops, _TIMER_RESTORE, ctx, values=(0x1000, 0))


# ---------------------------------------------------------------------------
# Hyp entry/exit bookkeeping
# ---------------------------------------------------------------------------

def hyp_entry(cpu):
    """Stack the GPRs and set up the hypervisor execution environment."""
    cpu.gpr_block(NR_GPRS)
    cpu.work(12, category="world_switch")  # vectors, sp switch, sanity


def hyp_exit(cpu):
    cpu.gpr_block(NR_GPRS)
    cpu.work(6, category="world_switch")


def make_ops(cpu, vhe):
    return CpuOps(cpu, vhe)
