"""The simulated ARM CPU: register access resolution and trap semantics.

This module is the heart of the reproduction.  The paper's entire
evaluation reduces to one question per register access: *given who is
running (EL2 host hypervisor, virtual-EL2 guest hypervisor, plain EL1
guest) and which architecture revision is modelled, does this access go
through, get rewritten, or trap to the host hypervisor?*

The resolution rules implemented here follow Sections 2, 4 and 6:

========================  =========================================================
Running context           Behaviour
========================  =========================================================
EL2 (host hypervisor)     All accesses direct.  With ``HCR_EL2.E2H`` (VHE host),
                          EL1-encoded accesses are redirected to EL2 registers and
                          ``*_EL12``/``*_EL02`` encodings reach the real EL1/EL0
                          registers.
virtual EL2, pre-v8.3     EL2-encoded accesses are UNDEFINED at EL1: exception to
                          EL1, "likely leading to a software crash" (Section 2).
virtual EL2, ARMv8.3      EL2-encoded accesses trap to EL2.  EL1-encoded accesses
                          trap for a non-VHE guest hypervisor (they would clobber
                          its own EL1 state) but go straight to the hardware EL1
                          registers for a VHE guest hypervisor, because the host
                          keeps those loaded with the guest hypervisor's state.
                          ``*_EL12``/``*_EL02`` encodings trap.  ``eret`` traps.
                          ``CurrentEL`` reads are disguised to report EL2.
virtual EL2, NEVE         Per the register classification (Tables 3-5): VM
                          registers become loads/stores on the deferred access
                          page, redirect-class hypervisor control registers become
                          EL1 accesses, cached-copy registers read from the page
                          and trap only on writes, EL2 timers and ``*_EL02``
                          encodings still trap, ``eret`` still traps.
plain EL1 (a guest OS)    EL1/EL0 accesses direct; EL2 accesses undefined;
                          ``hvc``/SGI/MMIO trap to EL2 as configured.
========================  =========================================================
"""

import enum
from contextlib import contextmanager

from repro.arch.exceptions import (
    ExceptionClass,
    ExceptionLevel,
    Syndrome,
    TrapToEl2,
    UndefinedInstruction,
)
from repro.arch.features import ArchConfig
from repro.arch.gic import LR_NAMES
from repro.arch.registers import (
    NeveBehavior,
    RegClass,
    RegisterFile,
    e2h_counterpart,
    lookup_register,
)
from repro.metrics.counters import ExitReason, TrapCounter
from repro.metrics.cycles import ARM_COSTS, CycleLedger
from repro.trace.spans import Region


class Encoding(enum.Enum):
    """Instruction encoding space of a system-register access."""

    NORMAL = "normal"  # the register's own encoding (X_EL0/X_EL1/X_EL2)
    EL12 = "el12"  # VHE alias reaching the real EL1 register from EL2
    EL02 = "el02"  # VHE alias reaching the real EL0 register from EL2


class AccessKind(enum.Enum):
    """How an access was ultimately satisfied (for tests and analysis)."""

    DIRECT_EL1 = "direct_el1"
    DIRECT_EL2 = "direct_el2"
    REDIRECTED_EL1 = "redirected_el1"  # NEVE EL2->EL1 register redirection
    DEFERRED_MEMORY = "deferred"  # NEVE deferred access page
    TRAPPED = "trapped"
    UNDEFINED = "undefined"


# --------------------------------------------------------------------------
# Trap-dispatch fast path vocabulary.
#
# The resolution context and action opcodes are shared between the fast
# path below and the precompiled table builder
# (:mod:`repro.arch.dispatch`).  They live here — not in the dispatch
# module — so the dependency points one way only (dispatch imports cpu,
# never the reverse).
# --------------------------------------------------------------------------

#: Resolution contexts: everything the classification ladder branches on
#: besides the register/encoding/op, collapsed to one small code.  The
#: virtual-EL2 codes are deliberately **NEVE-blind** — whether VNCR_EL2
#: is enabled is carried separately (it changes at runtime, and the
#: per-CPU verdict cache is invalidated when it does).
CTX_EL2 = 0  # host hypervisor at EL2, E2H clear
CTX_EL2_E2H = 1  # VHE host hypervisor at EL2, E2H set
CTX_VEL2 = 2  # guest hypervisor at virtual EL2, non-VHE
CTX_VEL2_VHE = 3  # VHE guest hypervisor at virtual EL2
CTX_GUEST = 4  # an ordinary guest at EL0/EL1

#: Action opcodes a dispatch-table row resolves to.  ``OP_UNDEF`` and
#: ``OP_UNDEF_NOCHARGE`` are distinct on purpose: the ``vhe_only`` /
#: ``read_only`` UNDEFs raise *before* the access is charged, ladder
#: UNDEFs raise *after* — collapsing them would shift the ledger.
OP_HW = 0  # (OP_HW, bank_is_el2, target_name, AccessKind)
OP_DEFER = 1  # (OP_DEFER, target SysReg): deferred-access-page traffic
OP_TRAP = 2  # (OP_TRAP,): trap to the host hypervisor
OP_GIC = 3  # (OP_GIC,): GIC CPU interface (SGI-trap decided inside)
OP_UNDEF = 4  # (OP_UNDEF,): UndefinedInstruction after the charge
OP_UNDEF_NOCHARGE = 5  # (OP_UNDEF_NOCHARGE,): UNDEF before the charge


def el2_route(reg, enc, host_e2h, has_vhe):
    """Where an access at real EL2 lands: ``(bank_is_el2, target,
    AccessKind)``, or None when it is UNDEFINED.

    The host hypervisor's accesses never trap, so resolving one is only
    a choice of bank and register.  This function is that choice and
    nothing else (no charge, no state), so the classification ladder
    (:meth:`Cpu._access_at_el2`) and the switch compiler
    (:meth:`Cpu.compile_switch`) route from one rule.
    """
    if enc is Encoding.EL12 or enc is Encoding.EL02:
        if not (has_vhe and host_e2h):
            return None
        return False, reg.name, AccessKind.DIRECT_EL1
    if reg.el == 2:
        return True, reg.name, AccessKind.DIRECT_EL2
    # EL1-encoded access at EL2.
    if host_e2h and reg.e2h_redirect is not None:
        return True, reg.e2h_redirect, AccessKind.DIRECT_EL2
    return False, reg.name, AccessKind.DIRECT_EL1


# --------------------------------------------------------------------------
# Register programs.
#
# A register program is a fixed register sequence, one step per access,
# in program order: ``(name, enc, op)`` once CpuOps.steps has resolved
# its accessors.  The op says where the value comes from and goes to;
# "the vcpu struct" is the caller's memory-backed context (see
# repro.hypervisor.vcpu.VcpuStruct), keyed by the step's register name.
# --------------------------------------------------------------------------

BLOCK_READ = "read"  # hardware read, value dropped
BLOCK_WRITE = "write"  # hardware write of the caller's next value
BLOCK_SAVE = "save"  # hardware read, value stored in the vcpu struct
BLOCK_RESTORE = "restore"  # vcpu-struct value written to hardware


# --------------------------------------------------------------------------
# Switch programs.
#
# One direction of L0's world switch is one program: a tuple of steps in
# program order.  Two runners read it: the per-phase runner
# (repro.hypervisor.world_switch.run_switch), the reference, which opens
# one span per phase; and Cpu.compile_switch / run_switch below, which
# turn the whole direction into a few bulk moves and one charge per
# category.  A register phase that runs on its own at real EL2 (each
# phase of the per-phase runner, and the exit context read on every
# trap) compiles the same way, as a one-phase program.  Slots index the
# vcpu structs a run is given (the guest's and the host's).
#
#   (SWITCH_PHASE, phase, slot)   a register phase, as a tuple
#       (span, steps, values, before, after, barrier): its register
#       program's ``(register, accessor, op)`` steps, the values its
#       writes take, the fault points crossed before and after its span,
#       and whether a barrier closes it
#   (SWITCH_WORK, instructions, category)          Cpu.work
#   (SWITCH_BARRIER,)                               Cpu.barrier
#   (SWITCH_ERET,)                                  Cpu.eret at EL2
#   (SWITCH_VGIC_SAVE, slot, (state, control), accesses)
#   (SWITCH_VGIC_RESTORE, slot, (state, control), accesses)
#       the GICv2 MMIO vGIC save/restore of the live list registers:
#       *state* moves with them, *control* is cleared after the save and
#       enabled (1) before the restore, and *accesses* is (always, when
#       any LR is live) device accesses besides one per live LR
#   (SWITCH_VGIC_SYSREG_SAVE, slot)                the GICv3 system-register
#   (SWITCH_VGIC_SYSREG_RESTORE, slot)             vGIC (never compiled)
#   (SWITCH_FOLD_LRS, slot)                        KVM's vgic_fold_lr_state
#   (SWITCH_FLUSH_LRS, slot, instructions, category)
#       queue pending vIRQs into the free list registers, charging
#       *instructions* per interrupt
# --------------------------------------------------------------------------

SWITCH_PHASE = "phase"
SWITCH_WORK = "work"
SWITCH_BARRIER = "barrier"
SWITCH_ERET = "eret"
SWITCH_VGIC_SAVE = "vgic_save"
SWITCH_VGIC_RESTORE = "vgic_restore"
SWITCH_VGIC_SYSREG_SAVE = "vgic_sysreg_save"
SWITCH_VGIC_SYSREG_RESTORE = "vgic_sysreg_restore"
SWITCH_FOLD_LRS = "fold_lrs"
SWITCH_FLUSH_LRS = "flush_lrs"

# Compiled-switch operations, each a 5-tuple.  Stores are indexed: 0 the
# EL1 bank, 1 the EL2 bank, 2 + slot a vcpu struct's registers.  The i_*
# fields index the compiled switch's summed charges.
_EL1, _EL2, _STRUCT = 0, 1, 2
_MOVE = "move"  # (_MOVE, src, dst, src_names, dst_names)
_SET = "set"  # (_SET, dst, names, values, None), values masked already
_VGIC_SAVE = "vgic_save"  # (kind, store, i_mmio, i_struct, by_live): the
_VGIC_RESTORE = "vgic_restore"  # names and cycles for each live-LR count
_FOLD = "fold"  # (_FOLD, slot, None, None, None)
_FLUSH = "flush"  # (_FLUSH, slot, i_work, i_struct, (work, struct_access))

_MASK64 = 0xFFFFFFFFFFFFFFFF


class CompiledSwitch:
    """A switch program compiled for one CPU at real EL2.

    ``ops`` are the bulk moves in program order (see ``_MOVE`` and
    friends).  ``cycles`` are the summed charges per category; the vGIC
    ops add their live-LR-sized cycles to them by index when they run.
    ``charges`` and ``flushed_charges`` are ``(index, category)`` in the
    order the per-phase runner would first have charged them, without
    and with an interrupt flushed: a category only the flush charges is
    charged only then.
    """

    __slots__ = ("ops", "cycles", "charges", "flushed_charges")

    def __init__(self, ops, cycles, charges, flushed_charges):
        self.ops = ops
        self.cycles = cycles
        self.charges = charges
        self.flushed_charges = flushed_charges


class Cpu:
    """One simulated CPU (a physical core).

    The CPU owns the *hardware* register state (one EL1/EL0 bank, one EL2
    bank), the cycle ledger and the trap counter.  Hypervisors install
    themselves as ``trap_handler`` and manipulate the guest-context flags
    via :meth:`enter_guest_context` when switching worlds.
    """

    def __init__(self, arch=None, costs=None, ledger=None, traps=None,
                 memory=None, cpu_id=0, dispatch=None):
        self.arch = arch if arch is not None else ArchConfig()
        self.costs = costs if costs is not None else ARM_COSTS
        self.ledger = ledger if ledger is not None else CycleLedger()
        self.traps = traps if traps is not None else TrapCounter()
        self.memory = memory
        self.cpu_id = cpu_id

        self.el1_regs = RegisterFile()  # hardware EL0/EL1 bank
        self.el2_regs = RegisterFile()  # hardware EL2 bank

        self.current_el = ExceptionLevel.EL2
        self.host_e2h = False  # VHE host hypervisor running with E2H=1

        # Guest-context flags, configured by the host hypervisor before
        # entering a guest (Section 4 / 6.1 workflow).
        self.nv_enabled = False  # vcpu is in *virtual* EL2
        self.virtual_e2h = False  # the guest hypervisor is a VHE hypervisor
        self.trap_wfi = True
        self.fp_trap = True  # CPTR_EL2 traps FP/SIMD (lazy switching)

        self.trap_handler = None  # host hypervisor (L0)
        self.gic = None  # GIC attached by the machine model
        self._in_host_handler = False

        # Optional fault injector (repro.faults.points.FaultInjector).
        # When attached, register accesses and deferred-page traffic are
        # filtered through it so seeded campaigns can flip bits, tear
        # writes and raise spurious SErrors at named points.
        self.fault_hook = None

        # Optional cross-CPU recovery-ordering guard
        # (repro.faults.recovery.RecoveryCoordinator).  When attached,
        # every deferred-page access is checked against the machine-wide
        # quarantine: a CPU must not observe another vCPU's
        # half-repaired VNCR page while its recovery is in flight.
        # It never charges the ledger.
        self.recovery_guard = None

        # Observers (repro.trace.spans.Observer: the tracer, the metrics
        # facade): a Machine replaces this list with its own, shared by
        # its cpus and fault injectors.  Every trap, phase and deferred
        # access is reported to each; they only read, so an empty list
        # (one truth test per site) is the whole disabled path.
        self.observers = []

        # Precompiled dispatch table (repro.arch.dispatch.DispatchTable),
        # shared by every CPU of a machine.  When armed, sysreg_access
        # delegates to _fast_sysreg_access: one verdict-cache lookup
        # replaces the classification ladder.  None (the default for
        # bare Cpu instances) keeps the reference ladder below.
        self.dispatch = dispatch
        # Per-CPU verdict cache over the table, keyed (context, name,
        # encoding, is_write).  The context codes are NEVE-blind: which
        # verdicts hold depends only on the hardware VNCR_EL2 enable
        # bit, and that bit changes only through an EL2 write of
        # VNCR_EL2 in sysreg_access, which empties the cache (see
        # invalidate_verdict_cache).
        self._verdicts = {}
        self._neve_verdict_state = None  # cached neve_enabled, or None

        # Compiled switch programs, whole or one phase of one (see
        # compiled_switch), keyed by the program's identity; each entry
        # is (program, switch), with None for a program the compiler
        # rejected.
        self._switches = {}

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------

    def enter_guest_context(self, el, nv=False, virtual_e2h=False):
        """Configure the CPU to run a guest (called by L0 on VM entry)."""
        if el not in (ExceptionLevel.EL0, ExceptionLevel.EL1):
            raise ValueError("guests run at EL0 or EL1, not %r" % (el,))
        self.current_el = el
        self.nv_enabled = nv
        self.virtual_e2h = virtual_e2h

    def enter_host_context(self):
        """Return the CPU to host-hypervisor (EL2) execution."""
        self.current_el = ExceptionLevel.EL2
        self.nv_enabled = False
        self.virtual_e2h = False

    @contextmanager
    def host_mode(self):
        """Temporarily run at EL2 (used while servicing a trap)."""
        saved = (self.current_el, self.nv_enabled, self.virtual_e2h,
                 self._in_host_handler)
        self.enter_host_context()
        self._in_host_handler = True
        try:
            yield self
        finally:
            (self.current_el, self.nv_enabled, self.virtual_e2h,
             self._in_host_handler) = saved

    @contextmanager
    def guest_call(self, nv, virtual_e2h):
        """Run guest code synchronously from within a trap handler.

        The host hypervisor uses this when it *forwards* an exception into
        a guest hypervisor: the guest flow runs at (virtual) EL1 and its
        accesses may trap recursively.  On exit the CPU returns to
        host-handler mode so the enclosing handler can finish.
        """
        saved = (self.current_el, self.nv_enabled, self.virtual_e2h,
                 self._in_host_handler)
        self.enter_guest_context(ExceptionLevel.EL1, nv=nv,
                                 virtual_e2h=virtual_e2h)
        self._in_host_handler = False
        try:
            yield self
        finally:
            (self.current_el, self.nv_enabled, self.virtual_e2h,
             self._in_host_handler) = saved

    @property
    def at_virtual_el2(self):
        return self.current_el == ExceptionLevel.EL1 and self.nv_enabled

    @property
    def neve_enabled(self):
        """NEVE is active: hardware supports it and VNCR_EL2.Enable is set."""
        return bool(self.arch.has_neve and (self.el2_regs.read("VNCR_EL2") & 1))

    @property
    def vncr_baddr(self):
        """Deferred-access-page base address from VNCR_EL2 (Table 2)."""
        return self.el2_regs.read("VNCR_EL2") & ~0xFFF

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def work(self, instructions, category="guest"):
        """Charge *instructions* plain-instruction cycles."""
        self.ledger.charge(instructions * self.costs.instr, category)

    def gpr_block(self, count, category="world_switch"):
        """Charge the cost of saving-or-restoring *count* GPRs."""
        self.ledger.charge(count * self.costs.gpr_save_restore, category)

    def barrier(self, category="world_switch"):
        self.ledger.charge(self.costs.dsb_isb, category)

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(self, addr, category="mem"):
        self.ledger.charge(self.costs.mem_load, category)
        if self.memory is None:
            return 0
        return self.memory.read_word(addr)

    def store(self, addr, value, category="mem"):
        self.ledger.charge(self.costs.mem_store, category)
        if self.memory is not None:
            self.memory.write_word(addr, value)

    def mmio_read(self, addr):
        """Guest access to unmapped/MMIO IPA: stage-2 abort to EL2."""
        syndrome = Syndrome(ec=ExceptionClass.DABT_LOWER, fault_ipa=addr,
                            is_write=False)
        return self._trap(syndrome, ExitReason.MEM_ABORT)

    def mmio_write(self, addr, value):
        syndrome = Syndrome(ec=ExceptionClass.DABT_LOWER, fault_ipa=addr,
                            is_write=True, value=value)
        return self._trap(syndrome, ExitReason.MEM_ABORT)

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------

    def hvc(self, imm=0):
        """Hypervisor call.  From any guest context this traps to EL2."""
        if self.current_el == ExceptionLevel.EL2:
            raise RuntimeError("hvc at EL2 is a self-call; not modelled")
        syndrome = Syndrome(ec=ExceptionClass.HVC, imm=imm)
        return self._trap(syndrome, ExitReason.HVC)

    def eret(self):
        """Exception return.

        At real EL2 this is the host hypervisor entering a guest (the
        caller handles the actual context switch); at virtual EL2 it traps
        to the host hypervisor (Section 4: "the eret instruction is
        paravirtualized to trap to EL2"), NEVE included (Section 6.1).
        """
        if self.current_el == ExceptionLevel.EL2:
            self.ledger.charge(self.costs.trap_return, "trap")
            return None
        if self.at_virtual_el2:
            if not self.arch.has_nv:
                raise UndefinedInstruction("ERET-to-EL1-from-vEL2", False)
            syndrome = Syndrome(ec=ExceptionClass.ERET)
            return self._trap(syndrome, ExitReason.ERET_TRAP)
        # eret inside a guest (kernel returning to userspace): local cost.
        self.ledger.charge(self.costs.trap_return, "guest")
        return None

    def wfi(self):
        if self.current_el == ExceptionLevel.EL2:
            self.ledger.charge(self.costs.instr, "host")
            return None
        if self.trap_wfi:
            syndrome = Syndrome(ec=ExceptionClass.WFI)
            return self._trap(syndrome, ExitReason.WFI)
        self.ledger.charge(self.costs.instr, "guest")
        return None

    def fp_op(self, instructions=1):
        """Execute FP/SIMD work.

        KVM switches FP state lazily: ``CPTR_EL2`` traps the first FP use
        after a world switch so the hypervisor can load the guest's FP
        context; afterwards FP runs at native speed until the next
        switch.
        """
        if self.current_el != ExceptionLevel.EL2 and self.fp_trap:
            syndrome = Syndrome(ec=ExceptionClass.FP_ACCESS)
            self._trap(syndrome, ExitReason.FP_TRAP)
        self.ledger.charge(instructions * self.costs.instr, "fp")
        return None

    def smc(self, function_id=0, args=()):
        """Secure monitor call — the PSCI conduit on the paper's testbed.

        Carries the PSCI function id and arguments in the syndrome
        detail for the hypervisor's PSCI emulation.
        """
        syndrome = Syndrome(ec=ExceptionClass.SMC, imm=0,
                            detail={"function": function_id,
                                    "args": tuple(args)})
        return self._trap(syndrome, ExitReason.SMC)

    def tlbi(self, scope="vmalls12e1", address=None):
        """TLB maintenance.

        At EL2 and inside ordinary guests this is a local operation; at
        virtual EL2 it must trap — under ARMv8.3 *and* NEVE — because the
        host hypervisor has to mirror the invalidation onto the shadow
        stage-2 tables it built for the nested VM (Section 4).  NEVE
        explicitly does not defer TLB maintenance: it has an immediate
        effect on translation.
        """
        if self.current_el == ExceptionLevel.EL2:
            self.ledger.charge(self.costs.tlb_maintenance, "tlbi")
            return None
        if self.at_virtual_el2:
            syndrome = Syndrome(ec=ExceptionClass.TLBI,
                                detail={"scope": scope,
                                        "address": address})
            return self._trap(syndrome, ExitReason.TLBI_TRAP)
        # A guest's own TLBI is handled by hardware (VMID-scoped).
        self.ledger.charge(self.costs.tlb_maintenance // 4, "guest")
        return None

    def at_translate(self, va):
        """AT S1E1R-style address translation, result into PAR_EL1.

        Traps from virtual EL2 so the host can run the walk against the
        virtual translation state.
        """
        if self.at_virtual_el2:
            syndrome = Syndrome(ec=ExceptionClass.AT,
                                detail={"va": va})
            return self._trap(syndrome, ExitReason.SYSREG_TRAP)
        self.ledger.charge(20 * self.costs.instr, "mmu")
        return None

    def read_currentel(self):
        """Read the CurrentEL special register.

        ARMv8.3 "disguises the deprivileged execution by telling the guest
        hypervisor that it runs in EL2" (Section 2); this never traps.
        """
        self.ledger.charge(self.costs.sysreg_read, "sysreg")
        if self.current_el == ExceptionLevel.EL2 or self.at_virtual_el2:
            return ExceptionLevel.EL2
        return self.current_el

    # ------------------------------------------------------------------
    # System register access
    # ------------------------------------------------------------------

    def mrs(self, name, enc=Encoding.NORMAL):
        """Read system register *name* using encoding space *enc*."""
        value, _kind = self.sysreg_access(name, is_write=False, enc=enc)
        return value

    def msr(self, name, value, enc=Encoding.NORMAL):
        """Write system register *name* using encoding space *enc*."""
        _value, _kind = self.sysreg_access(name, is_write=True, value=value,
                                           enc=enc)
        return None

    def sysreg_access(self, name, is_write, value=None, enc=Encoding.NORMAL):
        """Perform a system register access; returns ``(value, AccessKind)``.

        This is the single resolution point for the semantics table in the
        module docstring.  With a precompiled dispatch table armed, the
        resolution is served from the verdict cache instead of walking
        the classification ladder; the two paths are byte-identical in
        every observable effect (``tests/arch/test_dispatch.py`` and
        ``tests/analysis/test_fastpath_parity.py`` compare them).
        """
        if self.dispatch is not None:
            return self._fast_sysreg_access(name, is_write, value, enc)
        reg = lookup_register(name)
        if reg.vhe_only and not self.arch.has_vhe:
            raise UndefinedInstruction(name, is_write)
        if is_write and reg.read_only:
            raise UndefinedInstruction(name, is_write)

        cost = self.costs.sysreg_write if is_write else self.costs.sysreg_read
        self.ledger.charge(cost, "sysreg")

        hook = self.fault_hook
        if hook is not None and is_write:
            # A planned bit-flip corrupts the value in flight, before the
            # access resolves (so the corruption lands wherever the
            # access does — hardware register or deferred page).
            value = hook.filter_sysreg_write(self, reg, value)

        if self.current_el == ExceptionLevel.EL2:
            result = self._access_at_el2(reg, is_write, value, enc)
        elif self.at_virtual_el2:
            result = self._access_at_virtual_el2(reg, is_write, value, enc)
        else:
            result = self._access_at_guest_el1(reg, is_write, value, enc)

        if hook is not None:
            if not is_write:
                read_value, kind = result
                result = (hook.filter_sysreg_read(self, reg, read_value),
                          kind)
            if hook.serror_pending(self):
                self.deliver_serror()
        return result

    # -- the precompiled fast path --------------------------------------

    def _fast_sysreg_access(self, name, is_write, value, enc):
        """Table-driven twin of the slow path above.

        Effect ordering is identical by construction: pre-charge UNDEF
        -> ledger charge -> fault-hook write filter -> mechanism (which
        may raise a post-charge UNDEF) -> fault-hook read filter /
        SError.
        Only the *decision* is precompiled; every mechanism runs the
        same code the ladder would have called.
        """
        if self.current_el == ExceptionLevel.EL2:
            ctx = CTX_EL2_E2H if self.host_e2h else CTX_EL2
        elif self.nv_enabled and self.current_el == ExceptionLevel.EL1:
            ctx = CTX_VEL2_VHE if self.virtual_e2h else CTX_VEL2
        else:
            ctx = CTX_GUEST
        key = (ctx, name, enc, is_write)
        entry = self._verdicts.get(key)
        if entry is None:
            entry = self._resolve_verdict(ctx, key, name, enc, is_write)
        reg, action = entry
        op = action[0]
        if op == OP_UNDEF_NOCHARGE:
            raise UndefinedInstruction(name, is_write)

        cost = self.costs.sysreg_write if is_write else self.costs.sysreg_read
        self.ledger.charge(cost, "sysreg")

        hook = self.fault_hook
        if hook is not None and is_write:
            value = hook.filter_sysreg_write(self, reg, value)

        if op == OP_HW:
            _op, bank_is_el2, target, kind = action
            regfile = self.el2_regs if bank_is_el2 else self.el1_regs
            result = self._hw_access(regfile, target, is_write, value,
                                     kind)
            if is_write and bank_is_el2 and target == "VNCR_EL2":
                # The hardware NEVE enable state may just have flipped;
                # the NEVE-blind verdict cache is stale.
                self.invalidate_verdict_cache()
        elif op == OP_DEFER:
            result = self._deferred_access(action[1], is_write, value)
        elif op == OP_TRAP:
            result = self._sysreg_trap(reg, is_write, value, enc)
        elif op == OP_GIC:
            result = self._gic_cpu_access(reg, is_write, value)
        else:  # OP_UNDEF: a ladder-level UNDEF, after the charge.
            raise UndefinedInstruction(reg.name, is_write)

        if hook is not None:
            if not is_write:
                read_value, kind = result
                result = (hook.filter_sysreg_read(self, reg, read_value),
                          kind)
            if hook.serror_pending(self):
                self.deliver_serror()
        return result

    def _resolve_verdict(self, ctx, key, name, enc, is_write):
        """Verdict-cache miss: consult the machine's dispatch table
        (which itself resolves each distinct key once, by partial
        evaluation of the ladder) and memoize the action per CPU."""
        reg = lookup_register(name)
        neve = False
        if ctx == CTX_VEL2 or ctx == CTX_VEL2_VHE:
            neve = self._neve_verdict_state
            if neve is None:
                neve = self.neve_enabled
                self._neve_verdict_state = neve
        action = self.dispatch.resolve(ctx, neve, reg, enc, is_write)
        entry = (reg, action)
        self._verdicts[key] = entry
        return entry

    def invalidate_verdict_cache(self):
        """Drop every cached dispatch verdict and the cached NEVE state.

        The verdict keys are deliberately NEVE-blind (the enable bit is
        runtime state, not context), so the cache holds only while the
        hardware ``VNCR_EL2.Enable`` bit holds still.  The one caller is
        :meth:`_fast_sysreg_access`, on every EL2 write of ``VNCR_EL2``,
        and that is enough: the bit reaches the hardware bank only
        through :meth:`sysreg_access` (``sim-sysreg-bypass`` flags direct
        bank writes, and :meth:`compile_switch` rejects a ``VNCR_EL2``
        write).  ``NeveRunner`` enable, disable and relocate, and the
        recovery layer's degrade, all write it that way; a re-promotion
        leaves the bit clear until the next enable.
        """
        self._verdicts.clear()
        self._neve_verdict_state = None

    # -- compiled switch programs ---------------------------------------

    def block_eligible(self):
        """May a compiled one-phase switch program stand in for
        per-access execution of a register phase right now?

        Only at real EL2, where no access can trap or defer.  Every
        attached consumer is inert for these accesses by its own code:
        the fault injector's ``cpu.msr``/``cpu.mrs``/``cpu.serror``
        points return before counting unless the CPU is at virtual EL2,
        the sanitizer checks only virtual-EL2 accesses and EL2
        ``*_EL12``/``*_EL02`` aliases (which never compile), and the
        observers only read the ledger's totals.
        """
        return self.current_el == ExceptionLevel.EL2

    def switch_eligible(self):
        """May a compiled world switch stand in for the per-phase runner?
        Checked once per switch.

        Only where a compiled phase may (:meth:`block_eligible`), and
        only while nothing sees the switch's phases: no observer (each
        takes one region per phase), and no fault injector, which counts
        ``ws.after-save``, ``ws.before-restore`` and ``ws.vgic-lr`` hits
        (``FaultInjector.at_point`` and ``filter_lr_save``) without
        checking the exception level.
        """
        return (not self.observers and self.fault_hook is None
                and self.block_eligible())

    def compiled_switch(self, program, vhe, structs, phase=None):
        """This CPU's compiled switch for *program* run with *structs*
        (the vcpu structs its slots name), or None when it does not
        compile; compiled on first use, for this CPU's architecture and
        cost model.  With *phase*, only the program's step at that
        index, as a one-phase program: how a register phase that runs on
        its own compiles.

        Keyed by the program object, not its value: the hypervisor
        builds one program per direction and stage-2 base from the
        register lists as they stand then and reuses it, so hashing
        the whole program on every switch would buy nothing.  The entry
        keeps its program alive and is matched with ``is``, so a reused
        ``id`` never hits; a program built per call must never come
        here."""
        categories = tuple([struct.category for struct in structs])
        key = (self.host_e2h, vhe, categories, id(program), phase)
        entry = self._switches.get(key)
        if entry is None or entry[0] is not program:
            entry = self._switches[key] = (program, self.compile_switch(
                program if phase is None else program[phase:phase + 1],
                vhe, categories))
        return entry[1]

    def compile_switch(self, program, vhe, categories):
        """Compile one direction's switch *program* (see ``SWITCH_*``)
        for this CPU at real EL2, or return None to run it per phase.

        *categories* are the charge categories of the vcpu structs in
        the program's slots.  Every step of a register phase is routed
        by :func:`el2_route`, the ladder's own EL2 rule, for this CPU's
        ``host_e2h`` and architecture, and must be a NORMAL-encoding
        access the ladder turns into a hardware register move.  Any of
        these rejects the program: an empty phase, a pre-charge UNDEF
        (``vhe_only``, or a write to a read-only register), a
        ``*_EL12``/``*_EL02`` alias (a VHE hypervisor's EL1 context
        moves through them), a GIC CPU-interface register, or a
        ``VNCR_EL2`` write.  Plain reads are dropped: reading a register
        has no side effect.  A phase charges its sysreg accesses, its
        vcpu-struct loads and stores, then its barrier; a phase whose
        first step is a restore charges its loads first, as the
        per-access path does.  Consecutive moves between the same two
        stores merge, as do consecutive constant writes to one store; no
        value read from a register store is masked again.  The vGIC ops
        do what ``world_switch.vgic_save_mmio``/``vgic_restore_mmio``
        and the list-register fold and flush do, in bulk.  Every charge
        is summed per category in first-charge order.  Fault points
        compile to nothing: :meth:`switch_eligible` admits no fault hook,
        and a lone phase's runner crosses them itself.  Rejected too:
        the system-register vGIC, list-register steps on a CPU without a
        GIC, and a category first charged by interrupt flushing alone but
        charged unconditionally later (its position would depend on the
        flush).
        """
        costs = self.costs
        has_vhe = self.arch.has_vhe
        steps_of = CpuOps(self, vhe).steps
        ops = []
        order = {}
        cycles = []
        always = []

        def charge(category, amount, flush_only=False):
            index = order.get(category)
            if index is None:
                index = order[category] = len(cycles)
                cycles.append(0)
                always.append(not flush_only)
            elif not (flush_only or always[index]):
                always[index] = None  # rejected below
            cycles[index] += amount
            return index

        def move(src, dst, src_names, dst_names):
            last = ops[-1] if ops else None
            if last is not None and last[:3] == (_MOVE, src, dst):
                ops[-1] = (_MOVE, src, dst, last[3] + src_names,
                           last[4] + dst_names)
            else:
                ops.append((_MOVE, src, dst, src_names, dst_names))

        def assign(dst, names, values):
            last = ops[-1] if ops else None
            if last is not None and last[:2] == (_SET, dst):
                ops[-1] = (_SET, dst, last[2] + names, last[3] + values, None)
            else:
                ops.append((_SET, dst, names, values, None))

        for step in program:
            kind = step[0]
            if kind == SWITCH_PHASE:
                _kind, phase, slot = step
                _span, steps, values, _before, _after, barrier = phase
                steps = steps_of(steps)
                if not steps:
                    return None
                sysreg = loads = saves = written = 0
                for name, enc, op in steps:
                    reg = lookup_register(name)
                    is_write = op == BLOCK_WRITE or op == BLOCK_RESTORE
                    if (enc is not Encoding.NORMAL
                            or reg.reg_class is RegClass.GIC_CPU
                            or (reg.vhe_only and not has_vhe)
                            or (is_write and reg.read_only)):
                        return None
                    bank_is_el2, target, _access = el2_route(
                        reg, enc, self.host_e2h, has_vhe)
                    if is_write and bank_is_el2 and target == "VNCR_EL2":
                        return None
                    bank = _EL2 if bank_is_el2 else _EL1
                    sysreg += (costs.sysreg_write if is_write
                               else costs.sysreg_read)
                    if op == BLOCK_SAVE:
                        move(bank, _STRUCT + slot, (target,), (name,))
                        saves += 1
                    elif op == BLOCK_RESTORE:
                        move(_STRUCT + slot, bank, (name,), (target,))
                        loads += 1
                    elif op == BLOCK_WRITE:
                        assign(bank, (target,),
                               (values[written] & _MASK64,))
                        written += 1
                category = None if slot is None else categories[slot]
                if steps[0][2] == BLOCK_RESTORE:  # loads charge first
                    charge(category, loads * costs.mem_load)
                    charge("sysreg", sysreg)
                else:
                    charge("sysreg", sysreg)
                    if loads:
                        charge(category, loads * costs.mem_load)
                if saves:
                    charge(category, saves * costs.mem_store)
                if barrier:
                    charge("world_switch", costs.dsb_isb)
            elif kind == SWITCH_WORK:
                charge(step[2], step[1] * costs.instr)
            elif kind == SWITCH_BARRIER:
                charge("world_switch", costs.dsb_isb)  # as barrier()
            elif kind == SWITCH_ERET:
                charge("trap", costs.trap_return)  # as eret() at EL2
            elif self.gic is None:
                return None  # the list-register steps need the GIC
            elif kind == SWITCH_VGIC_SAVE or kind == SWITCH_VGIC_RESTORE:
                _kind, slot, (state, control), (fixed, when_live) = step
                access = costs.vgic_mmio_access
                i_mmio = charge("vgic_mmio", fixed * access)
                by_live = []
                for live in range(self.gic.num_lrs + 1):
                    lrs = LR_NAMES[:live]
                    mmio = (live + when_live if live else 0) * access
                    if kind == SWITCH_VGIC_SAVE:
                        by_live.append(((state,) + lrs, lrs + (control,),
                                        (0,) * (live + 1), mmio,
                                        live * costs.mem_store))
                    else:
                        by_live.append(((state,) + lrs,
                                        (state, control) + lrs,
                                        None, mmio, live * costs.mem_load))
                if kind == SWITCH_VGIC_SAVE:
                    i_struct = charge(categories[slot], costs.mem_store)
                    ops.append((_VGIC_SAVE, _STRUCT + slot, i_mmio, i_struct,
                                tuple(by_live)))
                else:
                    i_struct = charge(categories[slot], costs.mem_load)
                    ops.append((_VGIC_RESTORE, _STRUCT + slot, i_mmio,
                                i_struct, tuple(by_live)))
            elif kind == SWITCH_FOLD_LRS:
                ops.append((_FOLD, step[1], None, None, None))
            elif kind == SWITCH_FLUSH_LRS:
                _kind, slot, instructions, category = step
                i_work = charge(category, 0, flush_only=True)
                i_struct = charge(categories[slot], 0, flush_only=True)
                ops.append((_FLUSH, slot, i_work, i_struct,
                            (instructions * costs.instr, costs.mem_store)))
            else:
                return None
        if None in always:
            return None
        charges = tuple(enumerate(order))
        return CompiledSwitch(
            ops=tuple(ops), cycles=tuple(cycles),
            charges=tuple(charge for charge in charges
                          if always[charge[0]]),
            flushed_charges=charges)

    def run_switch(self, switch, structs, vcpu):
        """Execute a compiled switch with *structs* in its slots: its
        moves in program order, then one ledger charge per category.
        *vcpu* owns the list registers the vGIC ops move: they read and
        update its ``used_lrs``, and the flush takes its queued
        interrupts (``pending_lrs``)."""
        el2 = self.el2_regs
        stores = (self.el1_regs, el2, *[struct.regs for struct in structs])
        cycles = list(switch.cycles)
        flushed = 0
        for kind, a, b, c, d in switch.ops:
            if kind == _MOVE:
                stores[b].copy_from(stores[a], c, d)
            elif kind == _SET:
                stores[a].put_many(b, c)
            elif kind == _FOLD:
                vcpu.used_lrs = structs[a].fold_lrs(self.gic.num_lrs)
            elif kind == _FLUSH:
                used = vcpu.used_lrs
                values = vcpu.pending_lrs(self.gic.num_lrs - used)
                flushed = len(values)
                if flushed:
                    structs[a].regs.put_many(LR_NAMES[used:used + flushed],
                                             values)
                    vcpu.used_lrs = used + flushed
                    work, stored = d
                    cycles[b] += flushed * work
                    cycles[c] += flushed * stored
            else:
                moved, written, zeros, mmio, struct_cycles = \
                    d[vcpu.used_lrs]
                if kind == _VGIC_SAVE:
                    stores[a].copy_from(el2, moved)
                    el2.put_many(written, zeros)
                else:
                    values = stores[a].read_many(moved)
                    values.insert(1, 1)  # the control register's En
                    el2.put_many(written, values)
                self.gic.sync_status(self)
                cycles[b] += mmio
                cycles[c] += struct_cycles
        charge = self.ledger.charge
        for index, category in (switch.flushed_charges if flushed
                                else switch.charges):
            charge(cycles[index], category)

    # -- resolution per context -----------------------------------------

    def _access_at_el2(self, reg, is_write, value, enc):
        route = el2_route(reg, enc, self.host_e2h, self.arch.has_vhe)
        if route is None:
            raise UndefinedInstruction(reg.name, is_write)
        bank_is_el2, target, kind = route
        regfile = self.el2_regs if bank_is_el2 else self.el1_regs
        return self._hw_access(regfile, target, is_write, value, kind)

    def _access_at_virtual_el2(self, reg, is_write, value, enc):
        if not self.arch.has_nv:
            # Pre-v8.3: hypervisor instructions at EL1 do not trap to EL2;
            # EL2 accesses and VHE aliases are undefined (Section 2).
            if reg.el == 2 or enc in (Encoding.EL12, Encoding.EL02):
                raise UndefinedInstruction(reg.name, is_write)
            return self._hw_access(self.el1_regs, reg.name, is_write, value,
                                   AccessKind.DIRECT_EL1)

        if enc is Encoding.EL02:
            # Always trap, NEVE or not (Section 6.1 / 7.1 discussion of the
            # VHE guest hypervisor's EL2 virtual timer).
            return self._sysreg_trap(reg, is_write, value, enc)

        if enc is Encoding.EL12:
            if self.neve_enabled and reg.neve is NeveBehavior.DEFER:
                return self._deferred_access(reg, is_write, value)
            if (self.neve_enabled and reg.neve is NeveBehavior.CACHED_COPY
                    and not is_write):
                # e.g. MDSCR_EL1: "reads ... can be redirected to a cached
                # copy so that only writes must trap" (Section 6.1).
                return self._deferred_access(reg, is_write, value)
            return self._sysreg_trap(reg, is_write, value, enc)

        if reg.el == 2:
            return self._virtual_el2_reg_access(reg, is_write, value, enc)

        # EL1/EL0-encoded access from virtual EL2.
        if reg.reg_class is RegClass.GIC_CPU:
            # The GIC virtual CPU interface serves the guest hypervisor's
            # own interrupt handling without traps (except SGIs).
            return self._gic_cpu_access(reg, is_write, value)
        if self.virtual_e2h:
            # VHE guest hypervisor: the E2H-redirected access targets an
            # EL2 register.  If NEVE keeps that register in the deferred
            # access page (DEFER or cached copy), the transformation to a
            # memory access applies to *this encoding too* — otherwise
            # the cached copy could go stale through the alias.  All
            # other accesses go straight to the hardware EL1 registers,
            # which the host keeps loaded with the guest hypervisor's
            # state (Section 5).
            if self.neve_enabled:
                counterpart_name = reg.e2h_redirect
                if counterpart_name is not None:
                    counterpart = lookup_register(counterpart_name)
                    redirected = (counterpart.reg_class
                                  is RegClass.HYP_REDIRECT_OR_TRAP)
                    if counterpart.vncr_offset is not None \
                            and not redirected:
                        # Under VHE the "redirect or trap" rows behave as
                        # redirects (Table 4), so their aliases stay on
                        # the hardware register; everything VNCR-backed
                        # defers through this encoding too.
                        return self._deferred_access(counterpart,
                                                     is_write, value)
            return self._hw_access(self.el1_regs, reg.name, is_write, value,
                                   AccessKind.DIRECT_EL1)
        if reg.neve is NeveBehavior.NONE:
            # e.g. CNTVCT_EL0: reads the hardware counter directly.
            return self._hw_access(self.el1_regs, reg.name, is_write, value,
                                   AccessKind.DIRECT_EL1)
        if reg.el == 0:
            # EL0 register state is not protected by the NV mechanisms:
            # accesses from virtual EL2 reach the hardware registers
            # directly (the guest hypervisor multiplexes EL0 state itself;
            # only the VHE *_EL02 aliases trap, handled above).
            return self._hw_access(self.el1_regs, reg.name, is_write, value,
                                   AccessKind.DIRECT_EL1)
        if self.neve_enabled:
            if reg.neve is NeveBehavior.DEFER:
                return self._deferred_access(reg, is_write, value)
            if reg.neve is NeveBehavior.CACHED_COPY:
                if is_write:
                    return self._sysreg_trap(reg, is_write, value, enc)
                return self._deferred_access(reg, is_write, value)
            if reg.neve is NeveBehavior.TRAP:
                return self._sysreg_trap(reg, is_write, value, enc)
        # ARMv8.3: non-VHE guest hypervisor EL1 accesses trap so the host
        # can emulate them on the *nested VM's* virtual EL1 state
        # (Section 4, second instruction category).
        return self._sysreg_trap(reg, is_write, value, enc)

    def _virtual_el2_reg_access(self, reg, is_write, value, enc):
        """EL2-encoded access from virtual EL2 (ARMv8.3+ semantics)."""
        if not self.neve_enabled:
            return self._sysreg_trap(reg, is_write, value, enc)

        behavior = reg.neve
        if (reg.reg_class is RegClass.HYP_REDIRECT_OR_TRAP
                and self.virtual_e2h):
            # TCR_EL2/TTBR0_EL2: VHE format matches EL1, so redirect
            # (Table 4, "Redirect or trap").
            behavior = NeveBehavior.REDIRECT

        if behavior is NeveBehavior.DEFER:
            return self._deferred_access(reg, is_write, value)
        if behavior is NeveBehavior.REDIRECT:
            target = reg.el1_counterpart
            if target is None:
                raise RuntimeError("%s marked REDIRECT without counterpart"
                                   % reg.name)
            return self._hw_access(self.el1_regs, target, is_write, value,
                                   AccessKind.REDIRECTED_EL1)
        if behavior is NeveBehavior.CACHED_COPY:
            if is_write:
                return self._sysreg_trap(reg, is_write, value, enc)
            return self._deferred_access(reg, is_write, value)
        # TRAP (EL2 timers) and NONE fall through to a trap.
        return self._sysreg_trap(reg, is_write, value, enc)

    def _access_at_guest_el1(self, reg, is_write, value, enc):
        if reg.el == 2 or enc in (Encoding.EL12, Encoding.EL02):
            raise UndefinedInstruction(reg.name, is_write)
        if reg.reg_class is RegClass.GIC_CPU:
            return self._gic_cpu_access(reg, is_write, value)
        return self._hw_access(self.el1_regs, reg.name, is_write, value,
                               AccessKind.DIRECT_EL1)

    # -- access mechanisms ------------------------------------------------

    def _hw_access(self, regfile, name, is_write, value, kind):
        if is_write:
            regfile.write(name, value)
            return value, kind
        return regfile.read(name), kind

    def _deferred_access(self, reg, is_write, value):
        """NEVE: rewrite the access into a load/store on the deferred
        access page (Section 6.1)."""
        if reg.vncr_offset is None:
            raise RuntimeError("%s has no deferred-access slot" % reg.name)
        addr = self.vncr_baddr + reg.vncr_offset
        for observer in self.observers:
            observer.deferred(self, reg, is_write)
        guard = self.recovery_guard
        if guard is not None:
            guard.on_deferred_access(self, addr)
        hook = self.fault_hook
        if hook is not None:
            hook.on_deferred_access(self, reg, is_write)
        if is_write:
            if hook is not None:
                # A torn write: the store is interrupted mid-way and only
                # part of the doubleword reaches the page.
                value = hook.filter_deferred_store(self, reg, addr, value)
            self.store(addr, value, category="neve_deferred")
            return value, AccessKind.DEFERRED_MEMORY
        return (self.load(addr, category="neve_deferred"),
                AccessKind.DEFERRED_MEMORY)

    def _gic_cpu_access(self, reg, is_write, value):
        """VM-side GIC CPU interface access (never traps except SGI)."""
        if reg.neve is NeveBehavior.TRAP:
            # ICC_SGI1R_EL1: SGIs trap so the hypervisor can route them.
            syndrome = Syndrome(ec=ExceptionClass.SYSREG, register=reg.name,
                                is_write=is_write, value=value)
            result = self._trap(syndrome, ExitReason.GIC_TRAP)
            return result, AccessKind.TRAPPED
        if self.gic is None:
            return self._hw_access(self.el1_regs, reg.name, is_write, value,
                                   AccessKind.DIRECT_EL1)
        result = self.gic.cpu_interface_access(self, reg.name, is_write,
                                               value)
        return result, AccessKind.DIRECT_EL1

    def _sysreg_trap(self, reg, is_write, value, enc):
        syndrome = Syndrome(ec=ExceptionClass.SYSREG, register=reg.name,
                            is_write=is_write, value=value, encoding=enc)
        result = self._trap(syndrome, ExitReason.SYSREG_TRAP)
        return result, AccessKind.TRAPPED

    # ------------------------------------------------------------------
    # Trap plumbing
    # ------------------------------------------------------------------

    def _trap(self, syndrome, reason):
        """Deliver a trap to the host hypervisor and resume."""
        if self._in_host_handler:
            raise RuntimeError(
                "recursive trap while handling a trap at EL2: %s"
                % syndrome.describe())
        self.traps.record(reason)
        # One trap region per TrapCounter.record, covering the whole
        # round trip (entry + emulation + return) and opened before the
        # handler switches worlds: traps the handler causes while
        # emulating this one nest inside it, so the span tree's trap
        # count is the exit-multiplication factor.
        region = None
        if self.observers:
            region = Region()
            for observer in self.observers:
                region.append((observer,
                               observer.begin_trap(self, syndrome, reason)))
        try:
            self.ledger.charge(self.costs.trap_entry, "trap")
            if self.trap_handler is None:
                raise TrapToEl2(syndrome)
            with self.host_mode():
                result = self.trap_handler.handle_trap(self, syndrome)
            # The handler may have switched worlds (entered a nested VM,
            # emulated a virtual exception-level transition...).  Resume
            # in whatever context the host hypervisor's bookkeeping says
            # is now running; handlers without the hook keep the trapped
            # context.
            resume = getattr(self.trap_handler, "resume_context", None)
            if resume is not None:
                ctx = resume(self)
                if ctx is None:
                    self.enter_host_context()
                else:
                    self.enter_guest_context(
                        ctx.get("el", ExceptionLevel.EL1),
                        nv=ctx.get("nv", False),
                        virtual_e2h=ctx.get("virtual_e2h", False))
            self.ledger.charge(self.costs.trap_return, "trap")
            return result
        finally:
            if region is not None:
                region.close()

    def deliver_interrupt(self):
        """A physical interrupt arrives while a guest runs: exit to EL2."""
        syndrome = Syndrome(ec=ExceptionClass.IRQ)
        self.ledger.charge(self.costs.irq_delivery_wire, "irq")
        return self._trap(syndrome, ExitReason.IRQ)

    def deliver_serror(self):
        """An SError (asynchronous external abort) becomes pending while a
        guest runs.  HCR_EL2.AMO routes it to EL2, so it is taken to the
        host hypervisor like any other exit — with an unknown syndrome,
        which is what makes recovery policy (not decode) the hard part."""
        syndrome = Syndrome(ec=ExceptionClass.SERROR)
        self.ledger.charge(self.costs.irq_delivery_wire, "irq")
        return self._trap(syndrome, ExitReason.SERROR)


class CpuOps:
    """Hypervisor-eye view of the CPU, mirroring KVM/ARM's accessors.

    KVM/ARM is compiled either for non-VHE (EL2-encoded accesses to
    hypervisor state, EL1-encoded accesses to VM state) or for VHE
    (EL1-encoded accesses to hypervisor state — redirected by E2H — and
    ``*_EL12``/``*_EL02`` accesses to VM state).  The *same* hypervisor
    flow code runs in both modes through this adapter, exactly as the same
    KVM/ARM source builds both ways (Section 6.4).
    """

    def __init__(self, cpu, vhe):
        self.cpu = cpu
        self.vhe = vhe

    # -- hypervisor's own (EL2) state -------------------------------------

    def read_hyp(self, el2_name):
        """Read hypervisor state: ``read_sysreg_el2()`` in KVM."""
        name, enc = self._hyp_alias(el2_name)
        return self.cpu.mrs(name, enc)

    def write_hyp(self, el2_name, value):
        name, enc = self._hyp_alias(el2_name)
        return self.cpu.msr(name, value, enc)

    def _hyp_alias(self, el2_name):
        if self.vhe:
            reg = lookup_register(el2_name)
            counterpart = _e2h_reverse(el2_name)
            if counterpart is not None:
                return counterpart, Encoding.NORMAL
            # No EL1 alias exists (HCR_EL2, VTTBR_EL2, ICH_*...): even a
            # VHE hypervisor must use the EL2 encoding.
            assert reg.el == 2
        return el2_name, Encoding.NORMAL

    # -- any state, by accessor -------------------------------------------

    def steps(self, program):
        """A register program's ``(register, accessor, op)`` steps as
        ``(register, encoding, op)``, resolved for this hypervisor
        flavour exactly as its accessors would issue them."""
        return tuple(self.alias(name, accessor) + (op,)
                     for name, accessor, op in program)

    def alias(self, name, accessor):
        """The ``(register, encoding)`` one of KVM's accessors issues
        for *name*.  ``"hyp"`` is the hypervisor's own state
        (``read_sysreg_el2()``, as :meth:`read_hyp`); ``"vm"`` the VM's
        EL1 state (``read_sysreg_el1()``: ``*_EL12`` under VHE);
        ``"vm_el0"`` the VM's EL0 timers (``*_EL02`` under VHE); ``"raw"``
        a plain ``cpu.mrs``/``msr`` of *name*.  The world switch's
        register programs resolve through this."""
        if accessor == "hyp":
            return self._hyp_alias(name)
        if accessor == "vm":
            return name, Encoding.EL12 if self.vhe else Encoding.NORMAL
        if accessor == "vm_el0":
            return name, Encoding.EL02 if self.vhe else Encoding.NORMAL
        if accessor == "raw":
            return name, Encoding.NORMAL
        raise ValueError("unknown accessor: %r" % (accessor,))


def _e2h_reverse(el2_name):
    """EL1 encoding that E2H redirects to *el2_name*, or None.

    Thin wrapper over the registry's ``e2h_redirect`` rows (the VHE
    redirect knowledge lives in :mod:`repro.arch.registers` so the spec
    checker validates one source of truth)."""
    return e2h_counterpart(el2_name)
