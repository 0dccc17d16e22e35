"""The ARM system-register registry, encoding the paper's Tables 2-5.

Every system register the modelled hypervisors touch is described by a
:class:`SysReg` carrying its classification from the paper:

* **VM system registers** (Table 3): 27 registers that "do not affect
  execution of the hypervisor directly" — with NEVE their accesses are
  rewritten into loads/stores on the deferred access page.
* **Hypervisor control registers** (Table 4): 18 enumerated registers that
  do affect the (guest) hypervisor's execution — handled with register
  redirection to the EL1 counterpart, or with cached copies that trap on
  write.  (The table's caption says 17; the rows enumerate 18 — we encode
  the rows, see DESIGN.md.)
* **GIC hypervisor control interface registers** (Table 5): all handled as
  cached copies, trap on write.
* Performance-monitor, debug and timer registers per the end of Section 6.1:
  ``PMUSERENR_EL0``/``PMSELR_EL0`` deferred, ``MDSCR_EL1`` cached copy,
  EL2 hypervisor timers always trap.

The paper omits the classification of the remaining EL0/EL1 context
registers "due to space constraints"; following the shipped ARMv8.4 NV2
design we classify those (``PAR_EL1``, ``TPIDR*``, ``CNTKCTL_EL1``, ...) as
deferred VM registers as well, and note the extension in DESIGN.md.
"""

import enum
from dataclasses import dataclass
from operator import itemgetter


class RegClass(enum.Enum):
    """Functional classification, following the paper's tables."""

    VM_TRAP_CONTROL = "vm_trap_control"  # Table 3, first group
    VM_EXECUTION_CONTROL = "vm_execution_control"  # Table 3, second group
    THREAD_ID = "thread_id"  # Table 3, third group
    HYP_REDIRECT = "hyp_redirect"  # Table 4: redirect to *_EL1
    HYP_REDIRECT_VHE = "hyp_redirect_vhe"  # Table 4: redirect (VHE regs)
    HYP_TRAP_ON_WRITE = "hyp_trap_on_write"  # Table 4: cached copy
    HYP_REDIRECT_OR_TRAP = "hyp_redirect_or_trap"  # Table 4: TCR/TTBR0_EL2
    GIC_HYP = "gic_hyp"  # Table 5: ICH_* hypervisor interface
    GIC_CPU = "gic_cpu"  # ICC_*/ICV_* VM-side CPU interface
    TIMER_EL2 = "timer_el2"  # hypervisor timers: always trap
    TIMER_GUEST = "timer_guest"  # EL0/EL1 timers owned by the guest
    PMU = "pmu"
    DEBUG = "debug"
    EL1_CONTEXT = "el1_context"  # extra EL1/EL0 context (deferred)
    SPECIAL = "special"  # CurrentEL and friends


class NeveBehavior(enum.Enum):
    """What NEVE does with an access from virtual EL2 (Section 6.1)."""

    DEFER = "defer"  # rewrite to deferred-access-page memory access
    REDIRECT = "redirect"  # rewrite to the EL1 counterpart register
    CACHED_COPY = "cached_copy"  # reads from page, writes trap
    TRAP = "trap"  # always trap (EL2 timers)
    NONE = "none"  # NEVE does not change this register


@dataclass(frozen=True)
class SysReg:
    """One system register and its nested-virtualization semantics."""

    name: str
    el: int  # exception level owning the register (0, 1 or 2)
    reg_class: RegClass
    neve: NeveBehavior
    description: str = ""
    el1_counterpart: str = None  # for REDIRECT: the *_EL1 register
    vhe_only: bool = False  # register only exists with FEAT_VHE
    read_only: bool = False
    vncr_offset: int = None  # byte offset in the deferred access page
    #: EL2 register the VHE ``HCR_EL2.E2H`` bit redirects this EL1/EL0
    #: encoding to when executing at EL2 (ARM ARM D5.x).  Models a VHE
    #: *host* hypervisor; the spec checker validates these pairs against
    #: the same registry rows that carry ``el1_counterpart``.
    e2h_redirect: str = None

    @property
    def is_vm_register(self):
        """True for the paper's Table 3 set (plus the space-constrained
        EL1-context extension): no immediate effect on hypervisor
        execution."""
        return self.reg_class in (
            RegClass.VM_TRAP_CONTROL,
            RegClass.VM_EXECUTION_CONTROL,
            RegClass.THREAD_ID,
            RegClass.EL1_CONTEXT,
        )

    @property
    def is_hyp_control(self):
        """True for the paper's Table 4/5 hypervisor-control sets."""
        return self.reg_class in (
            RegClass.HYP_REDIRECT,
            RegClass.HYP_REDIRECT_VHE,
            RegClass.HYP_TRAP_ON_WRITE,
            RegClass.HYP_REDIRECT_OR_TRAP,
            RegClass.GIC_HYP,
        )


#: One deferred-access-page slot per register NEVE stores in memory.
VNCR_SLOT_BYTES = 8


@dataclass(frozen=True)
class DispatchRow:
    """Precomputed static dispatch facts for one register.

    Built once, when the registry freezes: everything here is a pure
    function of the (immutable) registry rows, so the trap-dispatch fast
    path (:mod:`repro.arch.dispatch`) can read one row instead of
    re-deriving classification facts per access.  ``undef_without_vhe``
    and ``undef_on_write`` are the two *pre-charge* UNDEF conditions —
    they must raise before the access is charged, unlike ladder-level
    UNDEFs, so the fast path needs them split out.  ``vhe_alias_defer``
    resolves the VHE-guest-hypervisor alias rule up front: the EL2
    counterpart a VNCR-backed EL1 encoding defers through at virtual EL2
    with E2H set (None when the alias stays on the hardware register).
    """

    reg: "SysReg"
    undef_without_vhe: bool
    undef_on_write: bool
    vhe_alias_defer: "SysReg" = None
    gic_sgi_trap: bool = False


class RegistryFrozenError(RuntimeError):
    """Raised when a frozen :class:`RegistryBuilder` is asked to define
    another register — registering into a registry machines have already
    snapshotted would silently shift the deferred-page layout."""


class RegistryBuilder:
    """Builder-scoped registry construction and VNCR slot allocation.

    Offsets are a pure function of definition order: the *n*-th register
    that owns a page slot gets byte offset ``n * VNCR_SLOT_BYTES``.  The
    builder validates the layout (unique, aligned, contiguous offsets)
    and then freezes; any later :meth:`define` raises loudly instead of
    mutating a layout other code may have captured.  Tests that need a
    scratch registry build their own instance — the module-level one is
    only ever mutated while this module imports.
    """

    def __init__(self):
        self.registry = {}
        self._next_offset = 0
        self._frozen = False
        #: name -> :class:`DispatchRow`, built by :meth:`freeze` — empty
        #: (and unusable by the fast path) until the layout is sealed.
        self.dispatch_rows = {}

    @property
    def frozen(self):
        return self._frozen

    @property
    def page_bytes(self):
        """Bytes of deferred-access page the layout uses so far."""
        return self._next_offset

    def define(self, name, el, reg_class, neve, description="",
               el1_counterpart=None, vhe_only=False, read_only=False,
               e2h_redirect=None):
        """Register *name*, assigning a deferred-access page offset to
        every register NEVE stores in memory."""
        if self._frozen:
            raise RegistryFrozenError(
                "registry is frozen: cannot define %s after the layout "
                "was published (build a fresh RegistryBuilder instead)"
                % name)
        if name in self.registry:
            raise ValueError("duplicate register definition: %s" % name)
        vncr_offset = None
        if neve in (NeveBehavior.DEFER, NeveBehavior.CACHED_COPY):
            vncr_offset = self._next_offset
            self._next_offset += VNCR_SLOT_BYTES
        reg = SysReg(
            name=name,
            el=el,
            reg_class=reg_class,
            neve=neve,
            description=description,
            el1_counterpart=el1_counterpart,
            vhe_only=vhe_only,
            read_only=read_only,
            vncr_offset=vncr_offset,
            e2h_redirect=e2h_redirect,
        )
        self.registry[name] = reg
        return reg

    def snapshot(self):
        """Immutable view of the layout: ((name, vncr_offset), ...) in
        definition order, plus the allocation high-water mark."""
        return (tuple((reg.name, reg.vncr_offset)
                      for reg in self.registry.values()),
                self._next_offset)

    def restore(self, snap):
        """Roll an *unfrozen* builder back to a previous :meth:`snapshot`
        (drops registers defined since, releases their slots)."""
        if self._frozen:
            raise RegistryFrozenError(
                "registry is frozen: cannot restore a snapshot")
        layout, next_offset = snap
        keep = {name for name, _offset in layout}
        current = dict(self.registry)
        if not keep <= set(current):
            raise ValueError("snapshot does not match this builder")
        self.registry.clear()
        self.registry.update(
            (name, current[name]) for name in current if name in keep)
        self._next_offset = next_offset

    def validate(self):
        """Check the layout invariants; returns the offset map."""
        offsets = {}
        expected = 0
        for reg in self.registry.values():
            if reg.vncr_offset is None:
                continue
            if reg.vncr_offset % VNCR_SLOT_BYTES:
                raise ValueError("%s: misaligned VNCR offset %#x"
                                 % (reg.name, reg.vncr_offset))
            if reg.vncr_offset in offsets:
                raise ValueError(
                    "VNCR offset %#x assigned to both %s and %s"
                    % (reg.vncr_offset, offsets[reg.vncr_offset],
                       reg.name))
            if reg.vncr_offset != expected:
                raise ValueError(
                    "%s: non-contiguous VNCR offset %#x (expected %#x)"
                    % (reg.name, reg.vncr_offset, expected))
            offsets[reg.vncr_offset] = reg.name
            expected += VNCR_SLOT_BYTES
        if expected != self._next_offset:
            raise ValueError("allocator high-water mark %#x disagrees "
                             "with the layout (%#x)"
                             % (self._next_offset, expected))
        return offsets

    def freeze(self):
        """Validate, seal the builder, build the per-register dispatch
        rows, and return the registry dict.

        The dispatch rows are the *static* half of the trap-dispatch
        fast path: once the layout is sealed nothing a row depends on
        can change, so they are computed exactly once here rather than
        re-derived per access by the classification ladder.
        """
        self.validate()
        self._frozen = True
        self.dispatch_rows = self._build_dispatch_rows()
        return self.registry

    def _build_dispatch_rows(self):
        rows = {}
        for reg in self.registry.values():
            vhe_alias_defer = None
            if reg.e2h_redirect is not None:
                counterpart = self.registry.get(reg.e2h_redirect)
                if (counterpart is not None
                        and counterpart.vncr_offset is not None
                        and counterpart.reg_class
                        is not RegClass.HYP_REDIRECT_OR_TRAP):
                    # Under VHE the "redirect or trap" rows behave as
                    # redirects (Table 4), so their aliases stay on the
                    # hardware register; everything VNCR-backed defers
                    # through the alias encoding too.
                    vhe_alias_defer = counterpart
            rows[reg.name] = DispatchRow(
                reg=reg,
                undef_without_vhe=reg.vhe_only,
                undef_on_write=reg.read_only,
                vhe_alias_defer=vhe_alias_defer,
                gic_sgi_trap=(reg.reg_class is RegClass.GIC_CPU
                              and reg.neve is NeveBehavior.TRAP))
        return rows


_BUILDER = RegistryBuilder()
_define = _BUILDER.define


# --------------------------------------------------------------------------
# Table 3: VM system registers (27) — NEVE defers them to memory.
# --------------------------------------------------------------------------
_define("HACR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Hypervisor Auxiliary Control")
_define("HCR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Hypervisor Configuration")
_define("HPFAR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Hypervisor IPA Fault Address")
_define("HSTR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Hypervisor System Trap")
_define("VMPIDR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Virtualization Multiprocessor ID")
_define("VNCR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Virtual Nested Control (recursively deferred, Section 6.2)")
_define("VPIDR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Virtualization Processor ID")
_define("VTCR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Virtualization Translation Control")
_define("VTTBR_EL2", 2, RegClass.VM_TRAP_CONTROL, NeveBehavior.DEFER,
        "Virtualization Translation Table Base")

_define("AFSR0_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Auxiliary Fault Status 0",
        e2h_redirect="AFSR0_EL2")
_define("AFSR1_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Auxiliary Fault Status 1",
        e2h_redirect="AFSR1_EL2")
_define("AMAIR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Auxiliary Memory Attribute Indirection",
        e2h_redirect="AMAIR_EL2")
_define("CONTEXTIDR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Context ID",
        e2h_redirect="CONTEXTIDR_EL2")
_define("CPACR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Architectural Feature Access Control",
        e2h_redirect="CPTR_EL2")
_define("ELR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Exception Link",
        e2h_redirect="ELR_EL2")
_define("ESR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Exception Syndrome",
        e2h_redirect="ESR_EL2")
_define("FAR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Fault Address",
        e2h_redirect="FAR_EL2")
_define("MAIR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Memory Attribute Indirection",
        e2h_redirect="MAIR_EL2")
_define("SCTLR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "System Control",
        e2h_redirect="SCTLR_EL2")
_define("SP_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Stack Pointer")
_define("SPSR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Saved Program Status",
        e2h_redirect="SPSR_EL2")
_define("TCR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Translation Control",
        e2h_redirect="TCR_EL2")
_define("TTBR0_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Translation Table Base 0",
        e2h_redirect="TTBR0_EL2")
_define("TTBR1_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Translation Table Base 1",
        e2h_redirect="TTBR1_EL2")
_define("VBAR_EL1", 1, RegClass.VM_EXECUTION_CONTROL, NeveBehavior.DEFER,
        "Vector Base Address",
        e2h_redirect="VBAR_EL2")

_define("TPIDR_EL2", 2, RegClass.THREAD_ID, NeveBehavior.DEFER,
        "EL2 Software Thread ID")

# --------------------------------------------------------------------------
# Table 4: hypervisor control registers.
# --------------------------------------------------------------------------
_define("AFSR0_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Auxiliary Fault Status 0", el1_counterpart="AFSR0_EL1")
_define("AFSR1_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Auxiliary Fault Status 1", el1_counterpart="AFSR1_EL1")
_define("AMAIR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Auxiliary Memory Attribute Indirection",
        el1_counterpart="AMAIR_EL1")
_define("ELR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Exception Link", el1_counterpart="ELR_EL1")
_define("ESR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Exception Syndrome", el1_counterpart="ESR_EL1")
_define("FAR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Fault Address", el1_counterpart="FAR_EL1")
_define("SPSR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Saved Program Status", el1_counterpart="SPSR_EL1")
_define("MAIR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Memory Attribute Indirection", el1_counterpart="MAIR_EL1")
_define("SCTLR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "System Control", el1_counterpart="SCTLR_EL1")
_define("VBAR_EL2", 2, RegClass.HYP_REDIRECT, NeveBehavior.REDIRECT,
        "Vector Base Address", el1_counterpart="VBAR_EL1")

_define("CONTEXTIDR_EL2", 2, RegClass.HYP_REDIRECT_VHE, NeveBehavior.REDIRECT,
        "Context ID", el1_counterpart="CONTEXTIDR_EL1", vhe_only=True)
_define("TTBR1_EL2", 2, RegClass.HYP_REDIRECT_VHE, NeveBehavior.REDIRECT,
        "Translation Table Base 1", el1_counterpart="TTBR1_EL1",
        vhe_only=True)

_define("CNTHCTL_EL2", 2, RegClass.HYP_TRAP_ON_WRITE, NeveBehavior.CACHED_COPY,
        "Counter-timer Hypervisor Control")
_define("CNTVOFF_EL2", 2, RegClass.HYP_TRAP_ON_WRITE, NeveBehavior.CACHED_COPY,
        "Counter-timer Virtual Offset")
_define("CPTR_EL2", 2, RegClass.HYP_TRAP_ON_WRITE, NeveBehavior.CACHED_COPY,
        "Architectural Feature Trap")
_define("MDCR_EL2", 2, RegClass.HYP_TRAP_ON_WRITE, NeveBehavior.CACHED_COPY,
        "Monitor Debug Configuration")

# "Redirect or trap": format is EL1-compatible only under VHE, so these
# redirect for VHE guest hypervisors and fall back to cached copies (trap on
# write) for non-VHE guest hypervisors.  The CPU model makes the choice at
# access time based on the virtual E2H setting.
_define("TCR_EL2", 2, RegClass.HYP_REDIRECT_OR_TRAP, NeveBehavior.CACHED_COPY,
        "Translation Control", el1_counterpart="TCR_EL1")
_define("TTBR0_EL2", 2, RegClass.HYP_REDIRECT_OR_TRAP, NeveBehavior.CACHED_COPY,
        "Translation Table Base 0", el1_counterpart="TTBR0_EL1")

# --------------------------------------------------------------------------
# Table 5: GIC hypervisor control interface — cached copies, trap on write.
# --------------------------------------------------------------------------
_define("ICH_HCR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "GIC Hypervisor Control")
_define("ICH_VTR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "VGIC Type", read_only=True)
_define("ICH_VMCR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "Virtual Machine Control")
_define("ICH_MISR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "Maintenance Interrupt Status", read_only=True)
_define("ICH_EISR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "End of Interrupt Status", read_only=True)
_define("ICH_ELRSR_EL2", 2, RegClass.GIC_HYP, NeveBehavior.CACHED_COPY,
        "Empty List Register Status", read_only=True)
for _n in range(4):
    _define("ICH_AP0R%d_EL2" % _n, 2, RegClass.GIC_HYP,
            NeveBehavior.CACHED_COPY, "Active Priorities Group 0 #%d" % _n)
for _n in range(4):
    _define("ICH_AP1R%d_EL2" % _n, 2, RegClass.GIC_HYP,
            NeveBehavior.CACHED_COPY, "Active Priorities Group 1 #%d" % _n)
for _n in range(16):
    _define("ICH_LR%d_EL2" % _n, 2, RegClass.GIC_HYP,
            NeveBehavior.CACHED_COPY, "List Register #%d" % _n)

# --------------------------------------------------------------------------
# Section 6.1, final paragraph: PMU, debug and timer registers.
# --------------------------------------------------------------------------
_define("PMUSERENR_EL0", 0, RegClass.PMU, NeveBehavior.DEFER,
        "Performance Monitors User Enable")
_define("PMSELR_EL0", 0, RegClass.PMU, NeveBehavior.DEFER,
        "Performance Monitors Event Counter Selection")
_define("MDSCR_EL1", 1, RegClass.DEBUG, NeveBehavior.CACHED_COPY,
        "Monitor Debug System Control")

# EL2 hypervisor timers: "all accesses ... trap as reads must access the
# registers directly to obtain correct values updated by hardware".
_define("CNTHP_CTL_EL2", 2, RegClass.TIMER_EL2, NeveBehavior.TRAP,
        "EL2 Physical Timer Control")
_define("CNTHP_CVAL_EL2", 2, RegClass.TIMER_EL2, NeveBehavior.TRAP,
        "EL2 Physical Timer CompareValue")
_define("CNTHV_CTL_EL2", 2, RegClass.TIMER_EL2, NeveBehavior.TRAP,
        "EL2 Virtual Timer Control", vhe_only=True)
_define("CNTHV_CVAL_EL2", 2, RegClass.TIMER_EL2, NeveBehavior.TRAP,
        "EL2 Virtual Timer CompareValue", vhe_only=True)

# Guest-owned timers (EL0-accessible): deferred like VM registers when the
# guest hypervisor manipulates the *nested VM's* copies.
_define("CNTV_CTL_EL0", 0, RegClass.TIMER_GUEST, NeveBehavior.DEFER,
        "EL1 Virtual Timer Control",
        e2h_redirect="CNTHV_CTL_EL2")
_define("CNTV_CVAL_EL0", 0, RegClass.TIMER_GUEST, NeveBehavior.DEFER,
        "EL1 Virtual Timer CompareValue",
        e2h_redirect="CNTHV_CVAL_EL2")
_define("CNTP_CTL_EL0", 0, RegClass.TIMER_GUEST, NeveBehavior.DEFER,
        "EL1 Physical Timer Control")
_define("CNTP_CVAL_EL0", 0, RegClass.TIMER_GUEST, NeveBehavior.DEFER,
        "EL1 Physical Timer CompareValue")
_define("CNTKCTL_EL1", 1, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "Kernel Counter-timer Control",
        e2h_redirect="CNTHCTL_EL2")
_define("CNTVCT_EL0", 0, RegClass.TIMER_GUEST, NeveBehavior.NONE,
        "Virtual Count (reads hardware counter)", read_only=True)

# --------------------------------------------------------------------------
# Remaining EL0/EL1 context registers ("details omitted" in the paper;
# classified as deferred VM state, matching the shipped NV2 design).
# --------------------------------------------------------------------------
_define("PAR_EL1", 1, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "Physical Address (AT instruction result)")
_define("TPIDR_EL1", 1, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "EL1 Software Thread ID")
_define("TPIDR_EL0", 0, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "EL0 Software Thread ID")
_define("TPIDRRO_EL0", 0, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "EL0 Read-Only Software Thread ID")
_define("SP_EL0", 0, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "EL0 Stack Pointer")
_define("CSSELR_EL1", 1, RegClass.EL1_CONTEXT, NeveBehavior.DEFER,
        "Cache Size Selection")

# --------------------------------------------------------------------------
# GIC CPU interface (VM side).  ICC_* accesses from a VM operate on the
# virtual interface backed by the list registers; SGI generation always
# traps to the hypervisor so it can route the IPI.
# --------------------------------------------------------------------------
_define("ICC_IAR1_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "Interrupt Acknowledge (group 1)", read_only=True)
_define("ICC_EOIR1_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "End Of Interrupt (group 1)")
_define("ICC_DIR_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "Deactivate Interrupt")
_define("ICC_PMR_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "Priority Mask")
_define("ICC_BPR1_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "Binary Point (group 1)")
_define("ICC_IGRPEN1_EL1", 1, RegClass.GIC_CPU, NeveBehavior.NONE,
        "Group 1 Enable")
_define("ICC_SGI1R_EL1", 1, RegClass.GIC_CPU, NeveBehavior.TRAP,
        "Software Generated Interrupt (group 1) — always traps")

# --------------------------------------------------------------------------
# Special registers.
# --------------------------------------------------------------------------
_define("CURRENTEL", None, RegClass.SPECIAL, NeveBehavior.NONE,
        "Current exception level (disguised at virtual EL2)", read_only=True)

#: The published registry: validated and frozen at import time.  From
#: here on every definition attempt raises ``RegistryFrozenError``, so
#: the deferred-page layout machines capture at build time cannot drift.
_REGISTRY = _BUILDER.freeze()


def lookup_register(name):
    """Return the :class:`SysReg` for *name*; raise KeyError if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown system register: %s" % name)


def dispatch_row(name):
    """Return the precomputed :class:`DispatchRow` for *name* (built
    when the module registry froze); raise KeyError if unknown."""
    try:
        return _BUILDER.dispatch_rows[name]
    except KeyError:
        raise KeyError("unknown system register: %s" % name)


def iter_registers(reg_class=None, neve=None):
    """Iterate registered :class:`SysReg` objects, optionally filtered."""
    for reg in _REGISTRY.values():
        if reg_class is not None and reg.reg_class is not reg_class:
            continue
        if neve is not None and reg.neve is not neve:
            continue
        yield reg


def vm_register_names():
    """The paper's Table 3 set (exactly 27 registers)."""
    table3_classes = (
        RegClass.VM_TRAP_CONTROL,
        RegClass.VM_EXECUTION_CONTROL,
        RegClass.THREAD_ID,
    )
    return [r.name for r in _REGISTRY.values() if r.reg_class in table3_classes]


def deferred_page_size():
    """Bytes of deferred-access page the registry currently uses."""
    return _BUILDER.page_bytes


def e2h_redirects():
    """The VHE ``HCR_EL2.E2H`` redirection map, derived from the
    registry rows: EL1/EL0-encoded name -> EL2 register reached when
    executing at EL2 with E2H set."""
    return {reg.name: reg.e2h_redirect for reg in _REGISTRY.values()
            if reg.e2h_redirect is not None}


_E2H_REVERSE = {reg.e2h_redirect: reg.name for reg in _REGISTRY.values()
                if reg.e2h_redirect is not None}


def e2h_counterpart(el2_name):
    """EL1/EL0 encoding that E2H redirects to *el2_name*, or None."""
    return _E2H_REVERSE.get(el2_name)


class RegisterFile:
    """A bank of system-register values (one per context).

    Values default to zero, as architectural reset state is irrelevant to
    the evaluation; unknown register names are rejected so typos in
    hypervisor flows fail fast.
    """

    def __init__(self, initial=None):
        self._values = {}
        if initial:
            for name, value in initial.items():
                self.write(name, value)

    def read(self, name):
        lookup_register(name)  # validate
        return self._values.get(name, 0)

    def write(self, name, value):
        reg = lookup_register(name)
        if reg.read_only and name in self._values:
            # Read-only registers may still be *initialized* (hardware
            # state), but guests cannot rewrite them; the CPU layer
            # enforces the guest-facing rule.  Here we simply allow it.
            pass
        self._values[name] = value & 0xFFFFFFFFFFFFFFFF

    # The bulk moves trust their names: they serve compiled switch
    # programs (repro.arch.cpu.Cpu.compile_switch), which look every
    # name up in the registry once, when the program compiles.

    def read_many(self, names):
        """Bulk :meth:`read`: the values of *names*, in order."""
        get = self._values.get
        return [get(name, 0) for name in names]

    def write_many(self, names, values):
        """Bulk :meth:`write`: *values* into *names*, in order (a later
        write to the same register wins, as it would one at a time)."""
        self._values.update(zip(names, [value & 0xFFFFFFFFFFFFFFFF
                                        for value in values]))

    def put_many(self, names, values):
        """:meth:`write_many` of values already 64 bits wide (read from
        a RegisterFile, or masked once when a switch was compiled)."""
        self._values.update(zip(names, values))

    def copy_from(self, other, names, own_names=None):
        """Bulk copy: *other*'s values of *names* into *own_names* here
        (the same names by default), in order.  No cycle cost: callers
        charge costs through the CPU layer.  Not masked again: every
        value in a RegisterFile was masked when it was written."""
        values = other._values
        try:
            moved = (itemgetter(*names)(values) if len(names) > 1
                     else [values[name] for name in names])
        except KeyError:  # a register never written reads as zero
            moved = [values.get(name, 0) for name in names]
        self._values.update(zip(names if own_names is None else own_names,
                                moved))

    def as_dict(self):
        return dict(self._values)

    def __repr__(self):
        populated = {k: v for k, v in self._values.items() if v}
        return "RegisterFile(%r)" % (populated,)
