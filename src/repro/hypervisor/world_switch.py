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
access traps, defers or goes direct by the architecture rules.

L0's whole world switch is one *switch program* per direction
(:func:`host_switch_program`, :func:`guest_switch_program`): its
register phases, fixed charges, vGIC steps and fault points, in order.
:meth:`repro.arch.cpu.Cpu.compile_switch` is L0's one compiler at real
EL2: it turns a whole switch into a few bulk moves and one charge per
category when nothing observes the CPU, and otherwise :func:`run_switch`
runs it phase by phase, each register phase compiled on its own as a
one-phase program.  The exit context read on every trap is a one-phase
program too.  Every register phase reads the same program either way.
"""

from repro.arch.cpu import (
    BLOCK_READ as READ,
    BLOCK_RESTORE as RESTORE,
    BLOCK_SAVE as SAVE,
    BLOCK_WRITE as WRITE,
    SWITCH_BARRIER,
    SWITCH_ERET,
    SWITCH_FLUSH_LRS,
    SWITCH_FOLD_LRS,
    SWITCH_PHASE,
    SWITCH_VGIC_RESTORE,
    SWITCH_VGIC_SAVE,
    SWITCH_VGIC_SYSREG_RESTORE,
    SWITCH_VGIC_SYSREG_SAVE,
    SWITCH_WORK,
    CpuOps,
)
from repro.arch.gic import lr_name
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

#: Slots of the vcpu structs an L0 switch program moves state between:
#: the running vcpu's EL1 context and the host kernel's.
GUEST, HOST = 0, 1


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


def _per_access(cpu, steps, ctx, values):
    """The reference path: one ``mrs``/``msr`` (and vcpu-struct load or
    store) per step, in program order."""
    values = iter(values)
    for name, enc, op in steps:
        if op == READ:
            cpu.mrs(name, enc)
        elif op == WRITE:
            cpu.msr(name, next(values), enc)
        elif op == SAVE:
            ctx.save(name, cpu.mrs(name, enc))
        else:
            cpu.msr(name, ctx.load(name), enc)


# A register phase, as switch programs list it (see repro.arch.cpu), is
# ``(span, steps, values, before, after, barrier)``: a span around one
# register program whose writes take *values*, the fault points crossed
# *before* and *after* the span (or None), and whether a *barrier*
# closes it inside the span.  The helpers below that run one phase on
# its own (save_el1_state and the rest) build it per call, so they run
# it per access: they serve the guest hypervisor, at virtual EL2.

def _run_phase(ops, phase, ctx=None, switch=None, structs=()):
    """Run one register phase with its fault points and its span: as
    its compiled one-phase *switch*, over the vcpu structs *structs*,
    when one is given; otherwise per access, with vcpu struct *ctx*."""
    span, steps, values, before, after, barrier = phase
    cpu = ops.cpu
    if before is not None:
        fault_point(cpu, before)
    with cpu_span(cpu, span):
        if switch is not None:
            cpu.run_switch(switch, structs, None)
        else:
            _per_access(cpu, ops.steps(steps), ctx, values)
            if barrier:
                cpu.barrier()
    if after is not None:
        fault_point(cpu, after)


# ---------------------------------------------------------------------------
# EL1/EL0 context
# ---------------------------------------------------------------------------

def _el1_phase(op):
    """save_el1_state's phase (*op* SAVE) or restore_el1_state's, over
    EL1_STATE, DEBUG_STATE and EL0_STATE as they stand now.  EL0 user
    state has no ``*_EL02`` aliases (only the timers are E2H-redirected);
    both hypervisor flavours use the plain EL0 encodings, which never
    trap from virtual EL2."""
    steps = (tuple((name, "vm", op) for name in EL1_STATE + DEBUG_STATE)
             + tuple((name, "raw", op) for name in EL0_STATE))
    if op == SAVE:
        return ("ws.save_el1_state", steps, (), None, "ws.after-save",
                False)
    return ("ws.restore_el1_state", steps, (), "ws.before-restore", None,
            False)


def save_el1_state(ops, ctx):
    """Read the loaded VM EL1/EL0 context into a vcpu struct.

    For a VHE hypervisor these reads use the ``*_EL12``/``*_EL02``
    aliases; for a non-VHE hypervisor they are plain EL1 accesses.  At
    virtual EL2 both variants trap on ARMv8.3 and are deferred to memory
    by NEVE (Table 3).
    """
    _run_phase(ops, _el1_phase(SAVE), ctx)


def restore_el1_state(ops, ctx):
    _run_phase(ops, _el1_phase(RESTORE), ctx)


# ---------------------------------------------------------------------------
# Exception context and returns
# ---------------------------------------------------------------------------

#: The exception context read on every hypervisor entry.
_EXIT_REGS = (
    ("ESR_EL2", "hyp", READ),
    ("ELR_EL2", "hyp", READ),
    ("SPSR_EL2", "hyp", READ),
    ("TPIDR_EL2", "raw", READ),  # per-cpu pointer
    ("HCR_EL2", "raw", READ),  # pending-vSError check
)
_ABORT_REGS = _EXIT_REGS + (
    ("FAR_EL2", "hyp", READ),
    ("HPFAR_EL2", "hyp", READ),
)
#: Both as one-phase switch programs, interned here so that L0 compiles
#: each once per CPU (read_exit_context opens their span itself).
_EXIT_CONTEXT = ((SWITCH_PHASE, (None, _EXIT_REGS, (), None, None, False),
                  None),)
_ABORT_CONTEXT = ((SWITCH_PHASE, (None, _ABORT_REGS, (), None, None, False),
                   None),)


def read_exit_context(ops, is_abort=False):
    """Read the exception syndrome on hypervisor entry.

    ESR/ELR/SPSR always; FAR and HPFAR additionally for aborts
    (the Device I/O benchmark's two extra traps relative to Hypercall).
    The per-cpu pointer (TPIDR_EL2) and the HCR (pending-vSError check)
    are also read on every entry; under NEVE both are deferred.  Only
    the accesses matter, so the values are dropped.
    """
    cpu = ops.cpu
    program = _ABORT_CONTEXT if is_abort else _EXIT_CONTEXT
    with cpu_span(cpu, "ws.read_exit_context", is_abort=is_abort):
        switch = (cpu.compiled_switch(program, ops.vhe, ())
                  if cpu.block_eligible() else None)
        if switch is not None:
            cpu.run_switch(switch, (), None)
        else:
            _per_access(cpu, ops.steps(
                _ABORT_REGS if is_abort else _EXIT_REGS), None, ())


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


def _activate_phase(vttbr, guest_hcr=HCR_GUEST_FLAGS):
    return ("ws.activate_traps", _ACTIVATE_TRAPS, (
        guest_hcr,
        1,  # CPTR_EL2: trap FP/SIMD until first use
        1,  # MDCR_EL2: trap debug
        0,  # HSTR_EL2
        vttbr,
        1,  # VTCR_EL2
        0x8000_0000,  # VMPIDR_EL2: virtual MPIDR for the vcpu
        0x410F_D070,  # VPIDR_EL2
        0x1000,  # TPIDR_EL2: per-vcpu context pointer
    ), None, None, True)


def _deactivate_phase(vhe, host_hcr=HCR_HOST_FLAGS):
    hcr = host_hcr | (HCR_E2H if vhe else 0)
    return ("ws.deactivate_traps", _DEACTIVATE_TRAPS, (hcr, 0, 0, 0), None,
            None, True)


def activate_traps(ops, vhe, vttbr, guest_hcr=HCR_GUEST_FLAGS):
    """Configure the hardware to run a VM (KVM's __activate_traps +
    __activate_vm): trap controls, stage-2 base, virtual CPU identity and
    the per-vcpu pointer."""
    _run_phase(ops, _activate_phase(vttbr, guest_hcr))


def deactivate_traps(ops, vhe, host_hcr=HCR_HOST_FLAGS):
    """Undo trap configuration on the way back to the host."""
    _run_phase(ops, _deactivate_phase(vhe, host_hcr))


# ---------------------------------------------------------------------------
# vGIC (GICv3 system-register interface)
# ---------------------------------------------------------------------------

def _note_lrs(cpu, used_lrs):
    """Telemetry: list registers in flight at this save/restore."""
    for observer in cpu.observers:
        observer.list_registers(cpu, used_lrs)


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


#: The MMIO vGIC's registers besides the list registers: the VM interface
#: control, which moves with the live LRs, and the hypervisor control,
#: cleared after the save and enabled before the restore.
_VGIC_MMIO_REGS = ("ICH_VMCR_EL2", "ICH_HCR_EL2")
#: Device accesses of the MMIO vGIC save and restore besides one per live
#: list register: ``(always, when any LR is live)``.
_VGIC_MMIO_SAVE = (2, 1 + len(ICH_AP_REGS))
_VGIC_MMIO_RESTORE = (2, len(ICH_AP_REGS))


def _mmio_accesses(accesses, used_lrs):
    always, when_live = accesses
    return always + (used_lrs + when_live if used_lrs else 0)


def vgic_save_mmio(cpu, ctx, used_lrs):
    """GICv2 variant: the hypervisor interface is memory mapped, so every
    access pays a device-memory round trip instead of an MSR/MRS.  Used by
    the L0 host hypervisor on the paper's GICv2 testbed; the extra cost is
    a large part of why ARM exits cost ~2,700 cycles."""
    vmcr, hcr = _VGIC_MMIO_REGS
    with cpu_span(cpu, "ws.vgic_save_mmio", used_lrs=used_lrs):
        accesses = _mmio_accesses(_VGIC_MMIO_SAVE, used_lrs)
        cpu.ledger.charge(accesses * cpu.costs.vgic_mmio_access, "vgic_mmio")
        ctx.save(vmcr, cpu.el2_regs.read(vmcr))
        for index in range(used_lrs):
            name = "ICH_LR%d_EL2" % index
            ctx.save(name, _filter_lr(cpu, name, cpu.el2_regs.read(name)))
            cpu.el2_regs.write(name, 0)  # lint: allow(sim-sysreg-bypass)
        cpu.el2_regs.write(hcr, 0)  # lint: allow(sim-sysreg-bypass)
        if cpu.gic is not None:
            cpu.gic.sync_status(cpu)


def vgic_restore_mmio(cpu, ctx, used_lrs):
    vmcr, hcr = _VGIC_MMIO_REGS
    with cpu_span(cpu, "ws.vgic_restore_mmio", used_lrs=used_lrs):
        accesses = _mmio_accesses(_VGIC_MMIO_RESTORE, used_lrs)
        cpu.ledger.charge(accesses * cpu.costs.vgic_mmio_access, "vgic_mmio")
        cpu.el2_regs.write(vmcr, ctx.load(vmcr))  # lint: allow(sim-sysreg-bypass)
        cpu.el2_regs.write(hcr, 1)  # lint: allow(sim-sysreg-bypass)
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


def _timer_save_phase(vhe):
    return ("ws.timer_save", _TIMER_SAVE_VHE if vhe else _TIMER_SAVE,
            (0, 3), None, None, False)


def _timer_restore_phase(vhe):
    if vhe:
        return ("ws.timer_restore", _TIMER_RESTORE_VHE, (0x1000, 0, 1), None,
                None, False)
    return ("ws.timer_restore", _TIMER_RESTORE, (0x1000, 0), None, None,
            False)


def timer_save(ops, ctx, vhe):
    """Save the VM's EL1 virtual timer and give the host the hardware.

    The VM timer accesses are EL0-encoded for a non-VHE hypervisor and
    EL02-encoded for a VHE hypervisor — the latter *always* trap at
    virtual EL2, even with NEVE (Section 7.1).
    """
    _run_phase(ops, _timer_save_phase(vhe), ctx)


def timer_restore(ops, ctx, vhe):
    _run_phase(ops, _timer_restore_phase(vhe), ctx)


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


# ---------------------------------------------------------------------------
# L0's switch programs
# ---------------------------------------------------------------------------

def _vgic_step(save, gic_mmio):
    if gic_mmio:
        if save:
            return (SWITCH_VGIC_SAVE, GUEST, _VGIC_MMIO_REGS, _VGIC_MMIO_SAVE)
        return (SWITCH_VGIC_RESTORE, GUEST, _VGIC_MMIO_REGS,
                _VGIC_MMIO_RESTORE)
    return (SWITCH_VGIC_SYSREG_SAVE if save else SWITCH_VGIC_SYSREG_RESTORE,
            GUEST)


def host_switch_program(vhe, gic_mmio):
    """L0's switch from a running vcpu to its host kernel, as one switch
    program: save the vcpu's EL1 context, timer and vGIC state, fold its
    list registers, drop the VM's trap configuration, load the host's EL1
    context and return into the host kernel's run loop."""
    return (
        (SWITCH_PHASE, _el1_phase(SAVE), GUEST),
        (SWITCH_PHASE, _timer_save_phase(vhe), GUEST),
        _vgic_step(True, gic_mmio),
        (SWITCH_FOLD_LRS, GUEST),
        (SWITCH_PHASE, _deactivate_phase(vhe), None),
        (SWITCH_PHASE, _el1_phase(RESTORE), HOST),
        (SWITCH_WORK, 340, "l0_kernel"),  # ret to kernel, run-loop epilogue
    )


def guest_switch_program(vhe, gic_mmio, vttbr):
    """L0's switch from its host kernel into a vcpu, as one switch
    program: the run loop's prologue, save the host's EL1 context, trap
    configuration for stage-2 base *vttbr*, the vcpu's timer, queued
    interrupts flushed into its list registers, its vGIC and EL1 context,
    then ``eret``."""
    return (
        (SWITCH_WORK, 210, "l0_kernel"),  # run-loop prologue
        (SWITCH_PHASE, _el1_phase(SAVE), HOST),
        (SWITCH_PHASE, _activate_phase(vttbr), None),
        (SWITCH_PHASE, _timer_restore_phase(vhe), GUEST),
        (SWITCH_FLUSH_LRS, GUEST, 55, "l0_vgic"),
        _vgic_step(False, gic_mmio),
        (SWITCH_PHASE, _el1_phase(RESTORE), GUEST),
        (SWITCH_BARRIER,),
        (SWITCH_ERET,),
    )


def run_switch(ops, program, structs, vcpu):
    """Run a switch program phase by phase: the reference runner, taken
    whenever anything observes the CPU.  Each register phase opens its
    own span with its fault points; at real EL2 it runs as a compiled
    one-phase program, so *program* must be interned (one of
    ``KvmHypervisor``'s).  *structs* fill the program's slots; *vcpu*
    owns the list registers the vGIC steps move (``used_lrs`` and its
    queued interrupts)."""
    cpu = ops.cpu
    compiled = cpu.block_eligible()
    for index, step in enumerate(program):
        kind = step[0]
        if kind == SWITCH_PHASE:
            _kind, phase, slot = step
            switch = (cpu.compiled_switch(program, ops.vhe, structs, index)
                      if compiled else None)
            _run_phase(ops, phase, None if slot is None else structs[slot],
                       switch, structs)
        elif kind == SWITCH_WORK:
            cpu.work(step[1], category=step[2])
        elif kind == SWITCH_BARRIER:
            cpu.barrier()
        elif kind == SWITCH_ERET:
            cpu.eret()
        elif kind == SWITCH_VGIC_SAVE:
            vgic_save_mmio(cpu, structs[step[1]], vcpu.used_lrs)
        elif kind == SWITCH_VGIC_RESTORE:
            vgic_restore_mmio(cpu, structs[step[1]], vcpu.used_lrs)
        elif kind == SWITCH_VGIC_SYSREG_SAVE:
            vgic_save(ops, structs[step[1]], vcpu.used_lrs)
        elif kind == SWITCH_VGIC_SYSREG_RESTORE:
            vgic_restore(ops, structs[step[1]], vcpu.used_lrs)
        elif kind == SWITCH_FOLD_LRS:
            vcpu.used_lrs = structs[step[1]].fold_lrs(cpu.gic.num_lrs)
        elif kind == SWITCH_FLUSH_LRS:
            _kind, slot, instructions, category = step
            _flush_lrs(cpu, structs[slot], vcpu, instructions, category)
        else:
            raise ValueError("unknown switch step: %r" % (kind,))


def _flush_lrs(cpu, ctx, vcpu, instructions, category):
    """Queue the vcpu's pending virtual interrupts into the free list
    registers of its LR image, *instructions* of work each."""
    index = vcpu.used_lrs
    for value in vcpu.pending_lrs(cpu.gic.num_lrs - index):
        cpu.work(instructions, category=category)
        ctx.save(lr_name(index), value)
        index += 1
    vcpu.used_lrs = index
