"""Precompiled system-register dispatch tables (the trap-dispatch fast
path).

For a fixed (config, register, context, encoding, op) key the
classification ladder in :mod:`repro.arch.cpu` re-derives the same
verdict on every access.  This module compiles the ladder's decisions
into a flat ``(context, neve, register, encoding, op) -> action`` table
that the hot loop answers with one dictionary lookup.

Resolution is **partial evaluation of the real ladder**, not a
re-implementation: a probe CPU subclass intercepts the four access
mechanisms (hardware register file, deferred-access page, sysreg trap,
GIC CPU interface) and runs the genuine ``_access_at_*`` ladder code
with the context flags pinned.  The captured action therefore equals
the slow path's decision *by construction*; the parity tests
(``tests/arch/test_dispatch.py`` over the access matrix,
``tests/analysis/test_fastpath_parity.py`` over every configuration's
exports) additionally prove the executed effects are byte-identical.

Tables are owned per machine — no module-level mutable state, so the
statecheck shardability gate stays clean — and filled lazily: each
distinct key is resolved once, on first use, and served from the flat
table afterwards.  Lazy filling matters for the test suite, where most
machines touch a handful of registers; a machine that touches every
register simply converges on the full table.

Action vocabulary (defined in :mod:`repro.arch.cpu`, so the dependency
points one way):

========================  ================================================
``OP_HW``                 hardware register-file access (bank, name, kind)
``OP_DEFER``              deferred-access-page load/store (target SysReg)
``OP_TRAP``               trap to the host hypervisor
``OP_GIC``                GIC CPU interface (SGI-trap decided at runtime)
``OP_UNDEF``              UndefinedInstruction *after* the ledger charge
``OP_UNDEF_NOCHARGE``     UndefinedInstruction *before* the charge
========================  ================================================
"""

from repro.arch.cpu import (
    CTX_EL2,
    CTX_EL2_E2H,
    CTX_GUEST,
    CTX_VEL2,
    CTX_VEL2_VHE,
    OP_DEFER,
    OP_GIC,
    OP_HW,
    OP_TRAP,
    OP_UNDEF,
    OP_UNDEF_NOCHARGE,
    Cpu,
)
from repro.arch.exceptions import ExceptionLevel, UndefinedInstruction
from repro.arch.features import ArchConfig

#: Every resolution context a dispatch table distinguishes.
CONTEXTS = (CTX_EL2, CTX_EL2_E2H, CTX_VEL2, CTX_VEL2_VHE, CTX_GUEST)

#: Bank selector carried in ``OP_HW`` actions.
BANK_EL1 = False
BANK_EL2 = True


class _Captured(Exception):
    """Carries a captured action out of the probe ladder."""

    def __init__(self, action):
        super().__init__(action)
        self.action = action


class _ProbeCpu(Cpu):
    """A CPU whose access mechanisms capture instead of execute.

    The ladder methods themselves are pure decision code — they charge
    nothing and mutate nothing; every side effect lives behind the four
    mechanisms intercepted here.  Running the ladder on a probe with
    pinned context flags therefore yields the decision and only the
    decision.  ``neve_enabled`` is overridden (rather than programming
    the probe's VNCR_EL2 through ``msr``) so probing never charges the
    probe's own ledger either.
    """

    def __init__(self, arch, neve):
        super().__init__(arch=arch)
        self._probe_neve = bool(neve and arch.has_neve)

    @property
    def neve_enabled(self):
        return self._probe_neve

    # -- intercepted mechanisms -----------------------------------------

    def _hw_access(self, regfile, name, is_write, value, kind):
        bank = BANK_EL2 if regfile is self.el2_regs else BANK_EL1
        raise _Captured((OP_HW, bank, name, kind))

    def _deferred_access(self, reg, is_write, value):
        raise _Captured((OP_DEFER, reg))

    def _sysreg_trap(self, reg, is_write, value, enc):
        raise _Captured((OP_TRAP,))

    def _gic_cpu_access(self, reg, is_write, value):
        raise _Captured((OP_GIC,))


def _configure(probe, ctx):
    """Pin *probe*'s context flags to resolution context *ctx*."""
    if ctx == CTX_EL2 or ctx == CTX_EL2_E2H:
        probe.enter_host_context()
        probe.host_e2h = ctx == CTX_EL2_E2H
    elif ctx == CTX_VEL2 or ctx == CTX_VEL2_VHE:
        probe.enter_guest_context(ExceptionLevel.EL1, nv=True,
                                  virtual_e2h=(ctx == CTX_VEL2_VHE))
    elif ctx == CTX_GUEST:
        probe.enter_guest_context(ExceptionLevel.EL1)
    else:
        raise ValueError("unknown dispatch context: %r" % (ctx,))
    return probe


class DispatchTable:
    """The per-machine precompiled dispatch table.

    One instance is built per :class:`~repro.hypervisor.kvm.Machine`
    (at machine build time) and shared by all of its CPUs; each CPU
    layers a NEVE-blind verdict cache on top (see
    ``Cpu._fast_sysreg_access``).  ``resolutions`` counts distinct keys
    resolved so far — tests and telemetry use it to prove the fast path
    actually ran.
    """

    def __init__(self, arch=None):
        self.arch = arch if arch is not None else ArchConfig()
        self._actions = {}
        self._probes = {}
        self.resolutions = 0

    def resolve(self, ctx, neve, reg, enc, is_write):
        """The action for one (context, neve, register, encoding, op)
        key; resolved through the probe ladder on first use."""
        key = (ctx, neve, reg.name, enc, is_write)
        action = self._actions.get(key)
        if action is None:
            action = self._derive(ctx, neve, reg, enc, is_write)
            self._actions[key] = action
            self.resolutions += 1
        return action

    # -- derivation ------------------------------------------------------

    def _probe_for(self, ctx, neve):
        probe = self._probes.get((ctx, neve))
        if probe is None:
            probe = _configure(_ProbeCpu(self.arch, neve), ctx)
            self._probes[(ctx, neve)] = probe
        return probe

    def _derive(self, ctx, neve, reg, enc, is_write):
        # The two pre-charge UNDEF conditions come first, exactly as in
        # the slow path: they raise before the access is charged.
        if reg.vhe_only and not self.arch.has_vhe:
            return (OP_UNDEF_NOCHARGE,)
        if is_write and reg.read_only:
            return (OP_UNDEF_NOCHARGE,)
        probe = self._probe_for(ctx, neve)
        try:
            if ctx == CTX_EL2 or ctx == CTX_EL2_E2H:
                probe._access_at_el2(reg, is_write, None, enc)
            elif ctx == CTX_VEL2 or ctx == CTX_VEL2_VHE:
                probe._access_at_virtual_el2(reg, is_write, None, enc)
            else:
                probe._access_at_guest_el1(reg, is_write, None, enc)
        except _Captured as captured:
            return captured.action
        except UndefinedInstruction:
            return (OP_UNDEF,)
        raise RuntimeError(
            "classification ladder resolved %s (ctx=%r neve=%r enc=%r "
            "write=%r) without reaching a mechanism" %
            (reg.name, ctx, neve, enc, is_write))
